"""Inverted-index classification core.

A model's index has one posting list per (dimension, feature value): the ids
of every stored class whose prototype takes that value in that dimension.
Posting lists hold exact values only; the generalization radius R is applied
at query time by sweeping the value window [v - R, v + R] in each dimension.
This keeps the per-dimension index a partition of the class ids (each class
appears exactly once per dimension, lists at distinct values are disjoint).
A numeric model stores one thing, its prototype array, kept as one compact
unsigned row per dimension; the posting lists are derived from it, and the
plain-list views of both are built on read (the lists from the snapshot).

Classification counts one vote per class per matching dimension; a class
reaching K votes lies within Chebyshev distance R of the query. Training is
instant: a query that fails to reach K votes is appended as a new class.

Both models vote into one dense array indexed by class id, which is the whole
of a ``ClassHistogram``; its ``argmax`` is the one place ties break (toward the
smaller id). Numeric votes take one of two paths, chosen per query by the share
of the store its windows cover. Narrow windows gather from a snapshot holding,
per dimension, the class ids sorted by value and value offsets, the layout
``predictor.ParamIndex`` shares: a window is one slice, ``_gather`` joins them
and one ``np.bincount`` votes (Zobel & Moffat). Wide windows skip the gather:
one column scan compares every stored value with its dimension's window.
Classes inserted since the snapshot vote through the same scan over their
columns; this tail is merged once it outgrows an eighth. A categorical model
stores each class's categories instead, and scores a batch of category sets
against every class by one ``np.add.reduceat`` over the gathered columns.

A table of 8-bit rows, an image's pixels, finds its winners through inverse
patterns (``Model.winners``): per channel, a table from each sample value to
the classes within R of it, one bit per class packed into uint64 words, ANDed
across the channels; the winner is the lowest set bit. The tables are built
once per (N, R, mask) and kept in one slot on the ``Model``, so a stream of
query frames reuses them; pixel training starts from them, each row read as
one Python int, and grows them one class at a time.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ConfigError, ValidationError

_MAX_CATEGORY = int(np.iinfo(np.intp).max)  # a categorical model stores categories as intp


def _is_int(v) -> bool:
    """v is an int or a numpy integer, and not a bool: the one integer rule of
    feature values, radii, categories and model configuration."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _setting(value, name: str, low: int | None = 1) -> int:
    """value as a Python int: the one rule of every setting. It must pass
    ``_is_int`` and be >= low (any integer when low is None), else ConfigError."""
    if _is_int(value) and (low is None or value >= low):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}" if low is None
                      else f"{name} must be an integer >= {low}, got {value!r}")


def _vector(x, K: int, X: int) -> tuple[int, ...]:
    """x as K Python ints in [0, X); bools, floats and other types are rejected."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        x = x.tolist()  # Python ints take the fast path below; a 2-D row keeps its lists
    if len(x) != K:
        raise ValidationError(f"expected {K} features, got {len(x)}")
    exact = True
    for v in x:
        if type(v) is not int:  # the exact type test keeps plain ints on the fast path
            if not _is_int(v):
                raise ValidationError(f"feature value {v!r} is not an integer")
            exact = False
        if not 0 <= v < X:
            raise ValidationError(f"feature value {v} outside [0, {X})")
    return tuple(x) if exact else tuple(map(int, x))


def _int_table(values, name: str, X: int | None = None, width: int | None = None) -> np.ndarray:
    """values (a column, or a table of rows) as int64, each in [0, X) when X is
    given; a scalar, a ragged table and a bool, float or other non-integer are
    rejected. Given ``width`` it must be an (n, width) table, an empty column
    reading as (0, width): the one shape rule of integer tables."""
    try:
        table = np.asarray(values)  # an int64 array passes through without a copy
    except ValueError:  # ragged
        table = np.array(None)
    if table.ndim == 0:
        raise ValidationError(f"{name} is not a column or a table of equal rows")
    if width is not None:
        table = table.reshape(0, width) if table.shape == (0,) else table
        if table.ndim != 2 or table.shape[1] != width:
            raise ValidationError(f"{name} is not an (n, {width}) table, got shape {table.shape}")
    if table.size == 0:
        return table.astype(np.int64)
    if table.dtype.kind not in "iu" or X is None and not np.can_cast(table.dtype, np.int64):
        raise ValidationError(f"{name} holds values that are not int64 integers ({table.dtype})")
    if not isinstance(values, np.ndarray):  # a bool reads as 0 or 1: type-check rows holding one
        at = np.flatnonzero((table <= 1).reshape(len(table), -1).any(axis=1)).tolist()
        cells = [values[i] for i in at]
        for _ in range(table.ndim - 1):  # down to the cells, however deep the rows nest
            cells = chain.from_iterable(cells)
        if not {bool, np.bool_}.isdisjoint(map(type, cells)):
            raise ValidationError(f"{name} holds bools, not integers")
    if X is not None and (table.min() < 0 or table.max() >= X):
        raise ValidationError(f"{name} holds a value outside [0, {X})")
    return table.astype(np.int64, copy=False)


def _offsets(value_columns, X: int) -> memoryview:
    """Offsets of the posting layout (Zobel & Moffat's inverted file): entries
    sorted by dimension k, then by value ``value_columns[k]``. Offset
    ``k * (X + 1) + v`` is the position of dimension k's first entry with
    value >= v; the last is the entry count. Only ``_offsets``, ``_windows``,
    ``_entries``, ``_lists`` and ``_gather`` address the layout. An X whose
    K * (X + 1) offsets cannot be allocated is a ConfigError."""
    columns = list(value_columns)
    try:
        counts = np.concatenate([[0], *(np.bincount(c, minlength=X + 1) for c in columns)])
    except (MemoryError, ValueError):  # ValueError: a size past what numpy can address
        raise ConfigError(f"X={X} is too large: K * (X + 1) = {len(columns) * (X + 1)} "
                          f"offsets need {8 * (len(columns) * (X + 1) + 1)} bytes") from None
    return memoryview(np.cumsum(counts, out=counts))


def _windows(offsets: memoryview, X: int, lo, hi) -> tuple[list[int], list[int]]:
    """(starts, ends) of the windows of dimension k's entries in [lo[k], hi[k]], each k."""
    base = range(0, len(lo) * (X + 1), X + 1)
    return ([offsets[o + a] for o, a in zip(base, lo)],
            [offsets[o + b + 1] for o, b in zip(base, hi)])


def _entries(offsets: memoryview, X: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, ends): each entry's value in layout order, each dimension's end."""
    at = np.asarray(offsets)
    return np.repeat(np.arange(len(at) - 1) % (X + 1), np.diff(at)), at[X + 1::X + 1]


def _lists(offsets: memoryview, X: int):
    """(k, v, start, end) of each non-empty posting list, in (k, v) order."""
    c = np.flatnonzero(np.diff(at := np.asarray(offsets)))
    return zip(*(a.tolist() for a in (c // (X + 1), c % (X + 1), at[c], at[c + 1])))


def _gather(view: memoryview, starts, ends) -> np.ndarray:
    """The entries view[a:b] of every window (a, b), joined into one array.
    Memoryviews slice and join faster than numpy views at small heights."""
    return np.frombuffer(b"".join([view[a:b] for a, b in zip(starts, ends)]), view.format)


def _radius(radius, default: int) -> int:
    """radius (default when None) as a Python int; bools, floats and negatives are rejected."""
    r = default if radius is None else radius
    if not _is_int(r) or r < 0:
        raise ValidationError(f"radius must be a non-negative integer, got {r!r}")
    return int(r)


def _live(nonempty: np.ndarray, run, samples: np.ndarray) -> np.ndarray:
    """Whether each uint8 sample value has a live class in one channel, given
    the channel's ``nonempty`` row and its ``run`` from ``Model._patterns``.
    A one-run channel is one range test, ``samples - lo <= span`` in uint8: a
    value below lo wraps past 255 - lo, which is at least the span; any other
    channel reads its row."""
    if run is None:
        return np.take(nonempty, samples)
    lo, span = run
    return samples - lo <= span


class ClassHistogram:
    """Vote counts per class id for one query.

    ``votes[n]`` is the vote count of class n; index 0 is unused. ``argmax``
    is the smallest class id attaining ``max_count`` (ties break toward the
    smaller id so results are insertion-order stable), or None for an empty
    histogram. ``counts`` maps each class id with votes to its count.
    """

    __slots__ = ("votes", "max_count", "argmax")

    def __init__(self, votes: np.ndarray):
        winner = int(votes.argmax())  # the first maximum: the smallest id
        self.votes, self.max_count = votes, int(votes[winner])
        self.argmax = winner if self.max_count > 0 else None

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "ClassHistogram":
        """Histogram of a class id -> count mapping: ids are integers >= 1, counts >= 0."""
        for n, c in counts.items():
            if not (_is_int(n) and n >= 1 and _is_int(c) and c >= 0):
                raise ValidationError(f"class id {n!r} must be an integer >= 1 and its "
                                      f"count {c!r} an integer >= 0")
        votes = np.zeros(max(counts, default=0) + 1, np.int64)
        votes[list(counts)] = _int_table(list(counts.values()), "counts")
        return cls(votes)

    @property
    def counts(self) -> dict[int, int]:
        ids = np.flatnonzero(self.votes)
        return dict(zip(ids.tolist(), self.votes[ids].tolist()))

    def __bool__(self) -> bool:
        return self.max_count > 0


class Model:
    """Numeric-feature model: K dimensions, feature range [0, X), radius R.

    The one stored state is the prototype array, one compact unsigned row
    per dimension grown by doubling: column n - 1 is class n's prototype,
    columns past N are unused capacity. ``postings[k][v]``, the
    sorted list of class ids whose prototype has value v in dimension k
    (missing keys mean an empty list), and ``prototypes``, the list of
    prototype tuples, are read-only views built on read (postings from the snapshot).

    Thread safety: any number of concurrent readers may classify; training
    mutates and must be serialized by the caller. An insert writes its columns
    (into a grown copy of the array when it is full) before it publishes the
    new N, and a reader reads N before the array, so it never sees an
    unwritten column. A reader that refreshes the snapshot publishes it in
    one assignment, never half-built.
    """

    def __init__(self, K: int, X: int, R: int):
        self.K = _setting(K, "K")
        self.X = _setting(X, "X", 2)
        if not _is_int(R) or not 0 <= R < X:
            raise ConfigError(f"R must be an integer with 0 <= R < X, got R={R!r}, X={X}")
        self.R = int(R)
        self.N = 0
        self.labels = None  # optional LabelTable of the classes, saved with the model
        self.schema = None  # optional ColumnSchema of the training table, saved too
        self._protos = np.empty((self.K, 0), np.min_scalar_type(self.X - 1))  # the store
        self._tally = np.min_scalar_type(self.K)  # the smallest vote dtype holding K
        # (snapshot size nf, ids, offsets)
        self._state = (0, memoryview(np.empty(0, np.uint8)), _offsets(self._protos, self.X))
        self._tables = None  # ((N, radius, mask), inverse patterns): ``_patterns``' one slot

    # -- the store ----------------------------------------------------------

    def _append(self, rows) -> int:
        """Write rows after the N stored ones as columns of the store, doubling
        it when it is full, then publish the new N; returns the first new id."""
        n, m = self.N, len(rows)
        store = self._protos
        if n + m > store.shape[1]:  # columns past N are never read
            grown = np.empty((self.K, max(n + m, 2 * store.shape[1])), store.dtype)
            grown[:, :n] = store[:, :n]
            self._protos = store = grown
        store.T[n:n + m] = rows
        self.N = n + m
        return n + 1

    def _rows(self) -> np.ndarray:
        """The N stored prototypes as a (N, K) view of the store, N read first."""
        n = self.N
        return self._protos[:, :n].T

    @property
    def postings(self) -> list[dict[int, list[int]]]:
        _, ids, offsets = self._merge()
        ids, out = ids.tolist(), [{} for _ in range(self.K)]
        for k, v, a, b in _lists(offsets, self.X):
            out[k][v] = ids[a:b]
        return out

    @property
    def prototypes(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self._rows().tolist()))

    # -- training -----------------------------------------------------------

    def insert_class(self, x) -> int:
        """Store x as a new class and return its id (ids are dense, 1..N)."""
        return self._append([_vector(x, self.K, self.X)])

    def insert_classes(self, rows) -> list[int]:
        """Store each row of a (rows, K) integer table as a new class, in order,
        and return their ids, as a loop of ``insert_class`` would. The whole
        table is validated first, so a bad one stores nothing."""
        table = _int_table(rows, "prototype table", self.X, self.K)
        first = self._append(table)
        return list(range(first, first + len(table)))

    def train_step(self, x) -> tuple[int, bool]:
        """Classify x; create a new class when no full match exists.

        Returns (class id, created flag). A full match is max_count == K,
        i.e. some stored prototype within Chebyshev distance R.
        """
        n = self.recognized(self.classify(x))
        return (n, False) if n is not None else (self.insert_class(x), True)

    def _train_samples(self, colors: np.ndarray) -> int:
        """One ``train_step`` per row of a (n, K) table of 8-bit samples, through
        ``_patterns``' tables at R; returns the classes created. The samples are
        checked against X first and the new classes stored by one ``_append``."""
        if colors.size and colors.max() >= self.X:
            raise ValidationError(f"feature value {colors.max()} outside [0, {self.X})")
        r, n = self.R, self.N
        patterns = [[int.from_bytes(row.tobytes(), "little") for row in table]  # bit n is class n
                    for table in self._patterns(r, None)[0]]
        new = []
        for color in colors.tolist():
            hit = -1
            for bits, v in zip(patterns, color):
                hit &= bits[v]
            if not hit:
                n += 1
                new.append(color)
                bit = 1 << n
                for bits, v in zip(patterns, color):
                    for u in range(max(v - r, 0), min(v + r, 255) + 1):
                        bits[u] |= bit
        if new:
            self._append(new)
        return len(new)

    # -- voting kernel ------------------------------------------------------

    def _merge(self):
        """The snapshot (nf, ids, offsets) of all nf = N classes: ``ids`` in the
        posting layout, ascending per value; published in one assignment."""
        state = self._state
        n = self.N  # read after the snapshot, so n >= its size
        if n == state[0]:  # nothing new, or another reader merged it already
            return state
        columns = self._protos[:, :n]
        order = np.empty((self.K, n), np.min_scalar_type(n))  # uint16 up to 65535 classes
        for k, column in enumerate(columns):  # one column at a time keeps the temporaries small
            order[k] = np.argsort(column, kind="stable") + 1
        self._state = state = (n, memoryview(order.ravel()), _offsets(columns, self.X))
        return state

    def _refresh(self):
        """The snapshot, merged once the classes past it outgrow an eighth of it."""
        state = self._state
        n = self.N  # read after the snapshot, so n >= its size
        if n - state[0] <= state[0] // 8:  # a small tail, or another reader merged it already
            return state
        return self._merge()  # the tail outgrew an eighth (O'Neil et al.'s LSM tree)

    def _scan(self, block: np.ndarray, lo, hi) -> np.ndarray:
        """Votes of the classes of a (K, m) block of the store: per class, the
        dimensions k with lo[k] <= value <= hi[k], as one unsigned subtract and
        compare (a value below lo wraps past the span) and one column sum."""
        dtype = block.dtype
        span = np.array([b - a for a, b in zip(lo, hi)], dtype)
        hit = block - np.array(lo, dtype)[:, None] <= span[:, None]
        return hit.view(np.uint8).sum(axis=0, dtype=self._tally)  # a bool sum would upcast

    def _votes(self, x, radius: int | None) -> np.ndarray:
        """``votes[n]`` counts the dimensions where class n is within the radius
        of x. Each entry of the K windows is one vote, so the votes sum to the
        entries touched.

        The offsets give the snapshot's window entries before any gather.
        Windows covering a wide share of the snapshot's K * nf entries vote by
        one scan of the whole store instead of gathering their ids: the access
        path is chosen by selectivity (Selinger et al.)."""
        x = _vector(x, self.K, self.X)
        r = _radius(radius, self.R)
        top = self.X - 1  # the window of v is [max(v - r, 0), min(v + r, X - 1)]
        lo = [v - r if v > r else 0 for v in x]
        hi = [v + r if v + r < top else top for v in x]
        nf, ids, offsets = self._refresh()
        n = self.N  # the snapshot, then N, then the store: n >= nf and the store holds n classes
        store = self._protos
        starts, ends = _windows(offsets, self.X, lo, hi)
        touched = sum(ends) - sum(starts)  # of the snapshot
        # the crossover measured from K * N = 600 to 520,000 (K = 3 to 64):
        # a 5% share plus the scan's fixed cost, ~12,500 entries' gather
        if 20 * touched > self.K * nf + 250_000:
            votes = np.zeros(n + 1, self._tally)
            votes[1:] = self._scan(store[:, :n], lo, hi)
        else:
            votes = np.bincount(_gather(ids, starts, ends), minlength=n + 1)
            if n > nf:
                votes[nf + 1:] = self._scan(store[:, nf:n], lo, hi)
        return votes

    # -- classification -----------------------------------------------------

    def classify(self, x, radius: int | None = None) -> ClassHistogram:
        """Vote histogram for x; ``radius`` overrides the stored R."""
        return ClassHistogram(self._votes(x, radius))

    def classify_counted(self, x, radius: int | None = None):
        """Like classify, but also returns the posting entries visited."""
        votes = self._votes(x, radius)
        return ClassHistogram(votes), int(votes.sum())

    def recognized(self, hist: ClassHistogram) -> int | None:
        """The winner of ``hist`` when it is a full match (K votes), else None."""
        return hist.argmax if hist.max_count == self.K else None

    def classify_exact_fast(self, x, radius: int | None = None) -> int | None:
        """Return the smallest fully matching class id, or None."""
        return self.recognized(self.classify(x, radius))

    # -- inverse patterns ---------------------------------------------------

    def _patterns(self, r: int, masked
                  ) -> tuple[list[np.ndarray], np.ndarray, list[int], list]:
        """(tables, nonempty, order, runs). Per channel c a (256, W) table of
        little-endian uint64 words: bit n of row v is set when class n lies within
        r of sample value v and is not masked (bit 0, "no class", never is).
        ``nonempty[c, v]`` says whether that row has a bit set, and ``order`` lists
        the channels by their count of non-empty rows, fewest first, leaving out
        those with all 256 rows non-empty, which keep every pixel. ``runs[c]`` is
        ``(lo, hi - lo)`` as uint8 when channel c's non-empty rows are the one run
        lo..hi, else None (no such row, or a hole between two). Built once per
        (N, r, mask) and published in ``self._tables`` in one assignment, so
        concurrent readers never see half of it; an insert grows N, which
        invalidates it."""
        rows, mask = self._rows(), frozenset(masked or ())
        n, slot = len(rows), self._tables
        if slot is not None and slot[0] == (n, r, mask):
            return slot[1]
        protos = np.zeros((n + 1, self.K), np.int64)  # row 0: "no class"
        protos[1:] = rows
        live = ~np.isin(np.arange(n + 1), [0, *mask])
        values = np.arange(256)[:, None]
        tables, nonempty, runs = [], np.zeros((self.K, 256), bool), []
        for c in range(self.K):
            hits = (np.abs(values - protos[:, c]) <= r) & live
            nonempty[c] = hits.any(axis=1)
            at = np.flatnonzero(nonempty[c])
            one = len(at) and at[-1] - at[0] == len(at) - 1
            runs.append((np.uint8(at[0]), np.uint8(at[-1] - at[0])) if one else None)
            packed = np.packbits(hits, axis=1, bitorder="little")
            words = np.zeros((256, 8 * -(-(n + 1) // 64)), np.uint8)  # W whole words
            words[:, :packed.shape[1]] = packed
            tables.append(words.view("<u8"))
        counts = nonempty.sum(axis=1)
        order = [c for c in np.argsort(counts, kind="stable").tolist() if counts[c] < 256]
        patterns = tables, nonempty, order, runs
        self._tables = ((n, r, mask), patterns)
        return patterns

    def winners(self, rows, radius: int | None = None, masked=None
                ) -> tuple[np.ndarray, np.ndarray]:
        """(at, ids): the ascending indices of the rows of 8-bit samples that fully
        match an unmasked class, and each such row's smallest one.

        ``rows`` is an (n, K) integer table with samples in [0, min(X, 256)): a
        uint8 table is taken as it is when X >= 256, any other is checked by
        ``_int_table``. Full match means Chebyshev distance <= R from a stored
        prototype, i.e. a vote count of K under classification. The rows are
        intersected channel by channel, the channel with the fewest non-empty
        table rows first (smallest first, Culpepper & Moffat), keeping those
        whose sample value has some live class in that channel (``_live``):
        when the channel's live values form one run, one wrapped uint8 compare
        against it, a range predicate with no gather; otherwise one ``np.take``
        of its non-empty rows. A channel with all 256 rows non-empty is not
        tested, as it keeps all. Once no row is left, the empty (at, ids) comes
        back at once: no later channel, gather or scan runs. Only the rows left
        at the end AND their K rows of the packed inverse-pattern tables (a
        range-encoded bitmap index, Chan & Ioannidis); the winner is the lowest
        set bit, ``64 * w + bitwise_count((x & -x) - 1)`` for the first nonzero
        word x at index w.
        """
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.uint8 and self.X >= 256):
            rows = _int_table(rows, "samples", min(self.X, 256))
        if rows.ndim != 2 or rows.shape[1] != self.K:
            raise ValidationError(f"expected (n, {self.K}) samples, got shape {rows.shape}")
        tables, nonempty, order, runs = self._patterns(_radius(radius, self.R), masked)
        colors = np.asarray(rows, np.uint8)  # the run test wraps in uint8
        if order:
            c = order[0]
            at = np.flatnonzero(_live(nonempty[c], runs[c], colors[:, c]))
            for c in order[1:]:  # flat reads: a strided column would be copied whole by np.take
                if not len(at):
                    break
                at = at[_live(nonempty[c], runs[c], np.take(colors, self.K * at + c))]
            if not len(at):  # an empty intersection stays empty: nothing to gather
                return at, np.zeros(0, np.int64)
            colors = np.take(colors, at, axis=0)  # the survivors' samples, in order
        else:  # every channel keeps every row
            at = np.arange(len(colors))
        ids = np.zeros(len(at), np.int64)
        words = tables[0].shape[1]
        ones = np.ones(words, np.float32)
        chunk = max(1, 32_768 // words)  # 256 KB: bigger gathers page-fault per call
        for start in range(0, len(at), chunk):
            block = colors[start:start + chunk]
            hit = np.take(tables[0], block[:, 0], axis=0)
            for c in range(1, self.K):
                hit &= np.take(tables[c], block[:, c], axis=0)
            nonzero = hit != 0
            # rows with a set bit; numpy reduces a short last axis one row at a
            # time, a matrix-vector product counts the nonzero words in one call
            rows = np.flatnonzero(nonzero.astype(np.float32) @ ones)
            w = np.take(nonzero, rows, axis=0).argmax(axis=1)
            x = np.take(hit, rows * words + w)
            ids[start + rows] = 64 * w + np.bitwise_count((x & -x) - 1)
        full = ids != 0
        return at[full], ids[full]

    # -- instrumentation ----------------------------------------------------

    def avg_height(self) -> float:
        """Mean size of the non-empty posting lists (each class is in one per dimension):
        K * N over the count of non-empty lists of the merged snapshot."""
        n, _, offsets = self._merge()
        if n == 0:
            raise ValidationError("empty model has no posting lists")
        return self.K * n / np.count_nonzero(np.diff(offsets))

    def touched_mass(self, x, radius: int | None = None) -> int:
        """Posting entries a classification of x visits (analytic count)."""
        return int(self._votes(x, radius).sum())


class CategoricalModel:
    """Binary-feature model: classes vote once per present category.

    Only present categories are indexed and only present categories vote,
    so the maximum vote count of a query equals the overlap between the
    query's category set and the best stored set. A query is recognized
    when the best overlap reaches ``recognition_threshold``.

    The one stored state is a forward index, grown by doubling: every class's
    sorted category ids in one int array, class after class, and N + 1
    offsets, class n's ids lying from offset n - 1 to offset n. One kernel,
    ``_score``, scores k category sets against every class at once by one
    ``np.add.reduceat`` over the stored ids marked present (document-at-a-time
    scoring, Turtle & Flood). ``_overlaps`` marks them by gathering the ids'
    columns of a (k, width) boolean matrix; ``classify`` marks one row, so
    each call costs time and memory in the store and the query, never in K.
    Categories are stored as intp, so training rejects a larger one.
    ``stored`` (each class's set) and ``postings`` (each category's
    ascending class ids) are views built on read. The store has two writers:
    assigning ``stored``, the one assignable view, rebuilds it in bulk, and
    ``insert_class`` appends one class; N and ``postings`` are read-only.

    ``grow=True`` lets the category universe expand during training, which
    level stacks need because the class-id space of the previous level grows.
    """

    def __init__(self, num_categories: int, recognition_threshold: int, grow: bool = False):
        self.K = _setting(num_categories, "the category count")
        self.recognition_threshold = _setting(recognition_threshold, "recognition threshold")
        if not isinstance(grow, bool):
            raise ConfigError(f"grow must be a bool, got {grow!r}")
        self.grow = grow
        self._cats = np.zeros(0, np.intp)  # the store; entries past the last offset are unused
        self._offsets = np.zeros(1, np.intp)  # so are offsets past N
        self._n = 0
        self.schema = None  # optional ColumnSchema, saved with the model

    # -- the store ----------------------------------------------------------

    @property
    def N(self) -> int:
        return self._n

    @property
    def stored(self) -> list[frozenset[int]]:
        n = self._n
        bounds = self._offsets[:n + 1].tolist()
        cats = self._cats[:bounds[-1]].tolist()
        return [frozenset(cats[a:b]) for a, b in zip(bounds, bounds[1:])]

    @stored.setter
    def stored(self, sets) -> None:
        """Replace the store with the category sets of classes 1..len(sets),
        all checked (and K widened in grow mode) first. Each set is stored
        deduplicated and sorted, as ``insert_class`` stores it; an empty set
        is a class no query votes for."""
        sets = [list(cats) for cats in sets]  # each read once: a set may be an iterator
        self._check(chain.from_iterable(sets), training=True)
        sets = [sorted({int(k) for k in cats}) for cats in sets]
        self._cats = np.array(list(chain.from_iterable(sets)), np.intp)
        self._offsets = np.cumsum([0, *map(len, sets)], dtype=np.intp)
        self._n = len(sets)

    @property
    def postings(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for n, cats in enumerate(self.stored, start=1):
            for k in sorted(cats):
                out.setdefault(k, []).append(n)
        return out

    def _check(self, present, training: bool) -> list:
        """Validate every category, then (training, grow mode) widen K; return the
        categories as a list, read once, so ``present`` may be an iterator.

        Plain ints, the usual case, are checked in bulk: their types as one
        set, their range by one ``min`` and one ``max``. Any other type sends
        every category through ``_is_int`` first, so a bool, a float or a
        string is rejected wherever it stands."""
        present = list(present)
        if not {int}.issuperset(map(type, present)):  # the exact type test keeps bools out
            for k in present:
                if not _is_int(k):
                    raise ValidationError(f"category index {k!r} is not an integer")
        low, high = min(present, default=1), max(present, default=0)
        if low < 1:
            raise ValidationError(f"category index {low} must be >= 1")
        if high > self.K and not self.grow:
            raise ValidationError(f"category index {high} outside [1, {self.K}]")
        if training and high > _MAX_CATEGORY:  # checked before K widens
            raise ValidationError(f"category index {high} outside [1, {_MAX_CATEGORY}], "
                                  "the categories a model can store")
        if training and self.grow:
            self.K = max(self.K, int(high))
        return present

    # -- the kernel ---------------------------------------------------------

    def _score(self, hit) -> np.ndarray:
        """(k, N + 1) overlap counts from ``hit(cats)``, a (k, len(cats)) boolean
        matrix marking the stored ids row i holds: column n of row i counts
        class n's marked ids (column 0 is 0). The one kernel, one
        ``np.add.reduceat`` over the class offsets."""
        n = self._n  # read first: an insert writes the store before it publishes N
        offsets = self._offsets[:n + 1]
        marks = hit(self._cats[:offsets[-1]])
        counts = np.zeros((len(marks), n + 1), np.int64)
        # reduceat sums from each start to the next, but gives an empty segment
        # the element at its start, not 0, so only the non-empty classes are summed
        full = np.flatnonzero(offsets[1:] > offsets[:-1])
        if len(full):
            counts[:, full + 1] = np.add.reduceat(marks, offsets[full], axis=1)
        return counts

    def _overlaps(self, meta: np.ndarray) -> np.ndarray:
        """``_score`` of a (k, width) boolean matrix whose row i holds category c
        when ``meta[i, c]``: the one place the stored ids' columns are
        gathered. Each row is checked as ``_check`` checks one category set,
        and the first bad row raises that row's error; in grow mode,
        categories past K hold no class."""
        bad = meta[:, 0]
        if meta.shape[1] > self.K + 1 and not self.grow:
            bad = bad | meta[:, self.K + 1:].any(axis=1)
        if np.count_nonzero(bad):
            self._check(np.flatnonzero(meta[bad.argmax()]).tolist(), training=False)
        # one False column past the matrix, for np.take to clip a larger stored id to
        meta = np.concatenate([meta, np.zeros((len(meta), 1), bool)], axis=1)
        return self._score(lambda cats: np.take(meta, cats, axis=1, mode="clip"))

    # -- classification and training ------------------------------------------

    def classify(self, present) -> ClassHistogram:
        """Vote histogram: votes[n] = |stored set of n ∩ present|, the kernel on
        one row. The row is a boolean one up to the largest present category,
        scored by ``_overlaps``, while it takes no more memory than the stored
        ids, else ``np.isin`` marks the ids; either way a call costs time and
        memory in the store and the query, not in K."""
        present = self._check(present, training=False)
        high = min(self.K, _MAX_CATEGORY)  # no class holds a larger category
        present = [k for k in present if k <= high]
        width = int(max(present, default=0)) + 1  # int(): a numpy category may sit at its maximum
        if width > self._cats[:self._offsets[self._n]].nbytes:
            return ClassHistogram(self._score(lambda cats: np.isin(cats, present)[None])[0])
        row = np.zeros((1, width), bool)
        row[0, present] = True
        return ClassHistogram(self._overlaps(row)[0])

    def recognized(self, hist: ClassHistogram) -> int | None:
        """The winner of ``hist`` when it has ``recognition_threshold`` votes, else None."""
        return hist.argmax if hist.max_count >= self.recognition_threshold else None

    def insert_class(self, pattern) -> int:
        """Store a category set as a new class and return its id (ids are dense,
        1..N). Its sorted categories are written after the stored ones, into a
        doubled array when full, before the new N is published."""
        cats = sorted({int(k) for k in self._check(pattern, training=True)})
        if not cats:
            raise ValidationError("cannot create a class from an empty pattern")
        n = self._n
        start = int(self._offsets[n])
        end = start + len(cats)
        if end > len(self._cats):
            self._cats = np.resize(self._cats, max(end, 2 * len(self._cats)))
        if n + 2 > len(self._offsets):
            self._offsets = np.resize(self._offsets, 2 * (n + 1))
        self._cats[start:end] = cats
        self._offsets[n + 1] = end
        self._n = n + 1
        return n + 1

    def train_step(self, present) -> tuple[int, bool]:
        """Recognize or append; returns (class id, created flag)."""
        present = self._check(present, training=True)
        n = self.recognized(self.classify(present))
        return (n, False) if n is not None else (self.insert_class(present), True)
