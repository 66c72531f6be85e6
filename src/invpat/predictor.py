"""Parameter prediction by histogram accumulation over a value index.

Training stores, for every (dimension, feature value) pair, a count table
of the parameter values t observed together with that feature value
(multiset semantics: repeated observations accumulate), laid out as the
posting lists of ``index.Model``'s snapshot, through ``index``'s layout
helpers. Prediction gathers the K tables addressed by a query vector into a
dense histogram over t with one weighted ``np.bincount`` and takes its
argmax, breaking ties toward the smaller t so a predicted lifetime never
exceeds an equally likely shorter one.

No generalization radius is applied here; the index is exact-value.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NoEvidenceError, ValidationError
from .index import (_entries, _gather, _int_table, _is_int, _lists, _offsets, _setting, _vector,
                    _windows)


class ParamHistogram:
    """Histogram of a predicted parameter t for one query: ``acc[i]`` counts
    ``t[i]``, t ascending. ``argmax_t`` is the t of the first maximum (ties
    break toward the smaller t); ``counts`` maps each t with a count to it."""

    __slots__ = ("t", "acc")

    def __init__(self, t: np.ndarray, acc: np.ndarray):
        self.t, self.acc = t, acc

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "ParamHistogram":
        """Histogram of a t -> count mapping: t is any integer, a count an integer >= 0."""
        for v, c in counts.items():
            if not (_is_int(v) and _is_int(c) and c >= 0):
                raise ValidationError(f"t {v!r} with count {c!r}: want integers, count >= 0")
        t = sorted(counts)
        return cls(_int_table(t, "t values"), _int_table([counts[v] for v in t], "counts"))

    @property
    def counts(self) -> dict[int, int]:
        nz = np.flatnonzero(self.acc)
        return dict(zip(self.t[nz].tolist(), self.acc[nz].tolist()))

    @property
    def total(self) -> int:
        return int(self.acc.sum())

    @property
    def argmax_t(self) -> int:
        """Smallest t attaining the maximum count."""
        if not self:
            raise NoEvidenceError("empty parameter histogram")
        return int(self.t[self.acc.argmax()])

    def __bool__(self) -> bool:
        return bool(self.acc.any())


class ParamIndex:
    """Per (dimension, feature value) count tables over the parameter t.

    Built once, then immutable, in the posting layout of ``index.Model``'s
    snapshot: the (t rank, count) entries of all K tables sorted by dimension,
    value and t, as two compact unsigned memoryviews, with ``index._offsets``
    giving each (dimension, value) table's slice for ``index._gather``. t is
    stored as its rank among the distinct values seen, so prediction memory
    follows how many values t takes, not their span. ``build_param_index``
    hands its layout straight to ``_layout``; only tables from outside (a
    loaded file, a caller) go through the validating constructor.
    """

    def __init__(self, tables, X: int):
        """Index over ``tables[k]``: dimension k's (v, t, count) rows of integers,
        sorted by (v, t) without repeats; value v was seen ``count`` times with t."""
        tables = [_int_table(tab, f"table {k}", width=3) for k, tab in enumerate(tables)]
        if not tables:
            raise ConfigError("ParamIndex needs K >= 1 tables, got none")
        X = _setting(X, "X")
        for v, t, count in (tab.T for tab in tables):
            # neighbours are compared, not subtracted: a difference can overflow int64
            if (((v[1:] < v[:-1]) | (v[1:] == v[:-1]) & (t[1:] <= t[:-1])).any()
                    or (count < 1).any()
                    or v.size and not 0 <= v[0] <= v[-1] < X):
                raise ValidationError("table rows must be unique, sorted by (v, t), with "
                                      f"v in [0, {X}) and count >= 1")
        entries = np.concatenate(tables)
        self._layout(_offsets([tab[:, 0] for tab in tables], X), X,
                     *np.unique(entries[:, 1], return_inverse=True), entries[:, 2])

    def _layout(self, offsets: memoryview, X: int, t_values: np.ndarray, rank: np.ndarray,
                count: np.ndarray) -> None:
        """Set every field from a checked layout: ``offsets`` over X values, the
        sorted distinct t, and each entry's t rank and count in layout order."""
        self.K, self.X = (len(offsets) - 1) // (X + 1), X
        self._offsets, self._t_values = offsets, t_values
        self.rows = int(count[:offsets[X + 1]].sum())  # dimension 0 counts every row once
        self._rank, self._count = (memoryview(a.astype(np.min_scalar_type(a.max(initial=0))))
                                   for a in (rank, count))
        self.t_min = int(t_values[0]) if t_values.size else None
        self.t_max = int(t_values[-1]) if t_values.size else None
        self.schema = None  # optional ColumnSchema, saved with the index

    def table_arrays(self) -> list[np.ndarray]:
        """The (v, t, count) int64 rows of each dimension's table, as the constructor takes them."""
        v, ends = _entries(self._offsets, self.X)
        rows = np.column_stack((v, self._t_values[np.asarray(self._rank)],
                                np.asarray(self._count, np.int64)))
        return np.split(rows, ends[:-1])

    def tables(self) -> list[dict[int, dict[int, int]]]:
        """Plain-dict view of the count tables, in (v, t) order (for persistence and tests)."""
        t, count = self._t_values[np.asarray(self._rank)].tolist(), self._count.tolist()
        out: list[dict[int, dict[int, int]]] = [{} for _ in range(self.K)]
        for k, v, a, b in _lists(self._offsets, self.X):
            out[k][v] = dict(zip(t[a:b], count[a:b]))
        return out


def build_param_index(rows, X: int) -> ParamIndex:
    """Build an index from (feature vector, t) pairs sharing one K; a vector may
    be a tuple, a list or an integer array row (``normalize_columns`` gives those).

    One pass: t is ranked once, each dimension's (v, t rank) keys are sorted
    in one ``np.sort`` over the (K, n) key array, and the runs of equal keys
    are the entries and counts, already in layout order."""
    rows = list(rows)
    if not rows:
        raise ValidationError("cannot build a parameter index from no rows")
    try:
        xs, ts = [x for x, _ in rows], [t for _, t in rows]
        lengths = set(map(len, xs))
    except (TypeError, ValueError):  # a row that is not a pair, or a vector without a length
        raise ValidationError("rows must be (feature vector, t) pairs") from None
    if len(lengths) > 1:
        raise ValidationError("feature vectors differ in length")
    X, K = _setting(X, "X"), lengths.pop()
    if not K:
        raise ConfigError("ParamIndex needs K >= 1 features, got none")
    t = _int_table(ts, "t")
    if t.ndim != 1:
        raise ValidationError("t holds a cell that is not one integer")
    table = _int_table(xs, "feature vectors", X, K)
    t_values, t_rank = np.unique(t, return_inverse=True)
    T = len(t_values)
    if X * T >= 2**63:  # a key v * T + rank is below X * T: one per (v, t) pair of a dimension
        raise ConfigError(f"X={X} with {T} distinct t values overflows the int64 sort keys")
    keys = np.array(table.T, order="C")  # (K, n), one row per dimension
    keys *= T
    keys += t_rank
    keys.sort(axis=1)
    first = np.ones(keys.shape, bool)  # the first key of each run of equal keys
    np.not_equal(keys[:, 1:], keys[:, :-1], out=first[:, 1:])
    at = np.flatnonzero(first)  # runs never cross dimensions: each row starts one
    v, rank = np.divmod(keys.ravel()[at], T)
    ends = np.cumsum(first.sum(axis=1))
    offsets = _offsets(np.split(v, ends[:-1]), X)
    idx = ParamIndex.__new__(ParamIndex)
    idx._layout(offsets, X, t_values, rank, np.diff(at, append=keys.size))
    return idx


def predict_histogram(idx: ParamIndex, x) -> ParamHistogram:
    """Parameter histogram for x: counts[t] = sum over k of table hits."""
    x = _vector(x, idx.K, idx.X)
    starts, ends = _windows(idx._offsets, idx.X, x, x)
    acc = np.bincount(_gather(idx._rank, starts, ends), weights=_gather(idx._count, starts, ends),
                      minlength=len(idx._t_values))
    return ParamHistogram(idx._t_values, acc.astype(np.int64))


def predict_value(idx: ParamIndex, x) -> int:
    """Most probable t for x; smallest t on ties; error when no evidence."""
    return predict_histogram(idx, x).argmax_t


def histogram_spread(h: ParamHistogram) -> tuple[int, float, int]:
    """(mode, weighted mean, skew sign) of a parameter histogram.

    The skew sign is sign(mean - mode); a nonzero sign flags the symmetry
    breakdown seen near end of life and is exposed as a diagnostic only.
    """
    mode = h.argmax_t  # raises NoEvidenceError on an empty histogram
    mean = sum(t * c for t, c in h.counts.items()) / h.total
    return mode, mean, (mean > mode) - (mean < mode)
