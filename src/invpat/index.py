"""Inverted-index classification core.

A model keeps one posting list per (dimension, feature value): the ids of
every stored class whose prototype takes that value in that dimension.
Posting lists hold exact values only; the generalization radius R is applied
at query time by sweeping the value window [v - R, v + R] in each dimension.
This keeps the per-dimension index a partition of the class ids (each class
appears exactly once per dimension, lists at distinct values are disjoint).

Classification counts one vote per class per matching dimension; a class
reaching K votes lies within Chebyshev distance R of the query. Training is
instant: a query that fails to reach K votes is appended as a new class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ValidationError


@dataclass(frozen=True)
class ClassHistogram:
    """Vote counts per class id for one query.

    ``counts`` maps class id -> vote count; absent ids have zero votes.
    ``argmax`` is the smallest class id attaining ``max_count`` (ties break
    toward the smaller id so results are insertion-order stable), or None
    for an empty histogram.
    """

    counts: dict[int, int]
    max_count: int
    argmax: int | None

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "ClassHistogram":
        if not counts:
            return cls({}, 0, None)
        best = max(counts.values())
        winner = min(n for n, c in counts.items() if c == best)
        return cls(counts, best, winner)

    def __bool__(self) -> bool:
        return bool(self.counts)


class Model:
    """Numeric-feature model: K dimensions, feature range [0, X), radius R.

    ``postings[k][v]`` is the sorted list of class ids whose prototype has
    value v in dimension k (missing keys mean an empty list). Prototypes are
    kept alongside the index for persistence and invariant checking.

    Thread safety: any number of concurrent readers may classify; training
    mutates and must be serialized by the caller.
    """

    def __init__(self, K: int, X: int, R: int):
        if K < 1:
            raise ConfigError(f"K must be >= 1, got {K}")
        if X < 2:
            raise ConfigError(f"X must be >= 2, got {X}")
        if not 0 <= R < X:
            raise ConfigError(f"R must satisfy 0 <= R < X, got R={R}, X={X}")
        self.K = int(K)
        self.X = int(X)
        self.R = int(R)
        self.N = 0
        self.postings: list[dict[int, list[int]]] = [{} for _ in range(K)]
        self.prototypes: list[tuple[int, ...]] = []

    # -- validation ---------------------------------------------------------

    def _check(self, x) -> None:
        if len(x) != self.K:
            raise ValidationError(f"expected {self.K} features, got {len(x)}")
        for v in x:
            if not 0 <= v < self.X:
                raise ValidationError(f"feature value {v} outside [0, {self.X})")

    # -- training -----------------------------------------------------------

    def insert_class(self, x) -> int:
        """Store x as a new class and return its id (ids are dense, 1..N)."""
        self._check(x)
        proto = tuple(int(v) for v in x)
        self.N += 1
        n = self.N
        for k, v in enumerate(proto):
            # ids only grow, so appending keeps every list sorted
            self.postings[k].setdefault(v, []).append(n)
        self.prototypes.append(proto)
        return n

    def train_step(self, x) -> tuple[int, bool]:
        """Classify x; create a new class when no full match exists.

        Returns (class id, created flag). A full match is max_count == K,
        i.e. some stored prototype within Chebyshev distance R.
        """
        hist = self.classify(x)
        if hist.max_count == self.K:
            return hist.argmax, False
        return self.insert_class(x), True

    # -- classification -----------------------------------------------------

    def classify(self, x, radius: int | None = None) -> ClassHistogram:
        """Vote histogram for x; ``radius`` overrides the stored R."""
        hist, _ = self.classify_counted(x, radius)
        return hist

    def classify_counted(self, x, radius: int | None = None):
        """Like classify, but also returns the posting entries visited."""
        self._check(x)
        r_max = self.R if radius is None else radius
        counts: dict[int, int] = {}
        touched = 0
        get = counts.get
        for k in range(self.K):
            post = self.postings[k]
            lo = max(0, x[k] - r_max)
            hi = min(self.X - 1, x[k] + r_max)
            for v in range(lo, hi + 1):
                ids = post.get(v)
                if not ids:
                    continue
                touched += len(ids)
                for n in ids:
                    counts[n] = get(n, 0) + 1
        return ClassHistogram.from_counts(counts), touched

    def classify_exact_fast(self, x, radius: int | None = None) -> int | None:
        """Return the smallest fully matching class id, or None.

        Candidate filtering: seed candidates from dimension 0's radius
        window, intersect with each later window, stop as soon as the set
        empties. Agrees with classify's full-match verdict by construction.
        """
        self._check(x)
        r_max = self.R if radius is None else radius
        candidates: set[int] | None = None
        for k in range(self.K):
            post = self.postings[k]
            lo = max(0, x[k] - r_max)
            hi = min(self.X - 1, x[k] + r_max)
            window: set[int] = set()
            for v in range(lo, hi + 1):
                ids = post.get(v)
                if ids:
                    window.update(ids)
            candidates = window if candidates is None else candidates & window
            if not candidates:
                return None
        return min(candidates) if candidates else None

    # -- instrumentation ----------------------------------------------------

    def avg_height(self) -> float:
        """Mean size of the non-empty posting lists across all dimensions."""
        total = 0
        lists = 0
        for post in self.postings:
            for ids in post.values():
                total += len(ids)
                lists += 1
        if lists == 0:
            raise ValidationError("empty model has no posting lists")
        return total / lists

    def touched_mass(self, x, radius: int | None = None) -> int:
        """Posting entries a classification of x visits (analytic count)."""
        self._check(x)
        r_max = self.R if radius is None else radius
        total = 0
        for k in range(self.K):
            post = self.postings[k]
            lo = max(0, x[k] - r_max)
            hi = min(self.X - 1, x[k] + r_max)
            for v in range(lo, hi + 1):
                ids = post.get(v)
                if ids:
                    total += len(ids)
        return total


class CategoricalModel:
    """Binary-feature model: classes vote once per present category.

    Only present categories are indexed and only present categories vote,
    so the maximum vote count of a query equals the overlap between the
    query's category set and the best stored set. A query is recognized
    when the best overlap reaches ``recognition_threshold``.

    ``grow=True`` lets the category universe expand during training, which
    level stacks need because the class-id space of the previous level grows.
    """

    def __init__(self, num_categories: int, recognition_threshold: int, grow: bool = False):
        if num_categories < 1:
            raise ConfigError(f"need at least one category, got {num_categories}")
        if recognition_threshold < 1:
            raise ConfigError(f"recognition threshold must be >= 1, got {recognition_threshold}")
        self.K = int(num_categories)
        self.recognition_threshold = int(recognition_threshold)
        self.grow = grow
        self.N = 0
        self.postings: dict[int, list[int]] = {}
        self.stored: list[frozenset[int]] = []

    def _check(self, present, training: bool) -> None:
        """Validate every category, then (training, grow mode) widen K."""
        for k in present:
            if k < 1:
                raise ValidationError(f"category index {k} must be >= 1")
            if k > self.K and not self.grow:
                raise ValidationError(f"category index {k} outside [1, {self.K}]")
        if training and self.grow:
            self.K = max([self.K, *(int(k) for k in present)])

    def classify(self, present) -> ClassHistogram:
        """Vote histogram: counts[n] = |stored set of n ∩ present|."""
        self._check(present, training=False)
        counts: dict[int, int] = {}
        get = counts.get
        for k in present:
            for n in self.postings.get(k, ()):
                counts[n] = get(n, 0) + 1
        return ClassHistogram.from_counts(counts)

    def insert_class(self, pattern) -> int:
        """Store a category set as a new class and return its id (ids are dense, 1..N)."""
        self._check(pattern, training=True)
        pattern = frozenset(int(k) for k in pattern)
        if not pattern:
            raise ValidationError("cannot create a class from an empty pattern")
        self.N += 1
        n = self.N
        for k in sorted(pattern):
            self.postings.setdefault(k, []).append(n)
        self.stored.append(pattern)
        return n

    def train_step(self, present) -> tuple[int, bool]:
        """Recognize or append; returns (class id, created flag)."""
        self._check(present, training=True)
        hist = self.classify(present)
        if hist.max_count >= self.recognition_threshold:
            return hist.argmax, False
        return self.insert_class(present), True
