"""Parameter prediction by histogram accumulation over a value index.

Training stores, for every (dimension, feature value) pair, a count table
of the parameter values t observed together with that feature value
(multiset semantics: repeated observations accumulate). Prediction sums
the K tables addressed by a query vector into a parameter histogram and
takes its argmax, breaking ties toward the smaller t so a predicted
lifetime never exceeds an equally likely shorter one.

No generalization radius is applied here; the index is exact-value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoEvidenceError, ValidationError
from .index import _int_table, _vector


@dataclass(frozen=True)
class ParamHistogram:
    """Histogram of a predicted parameter t for one query."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def argmax_t(self) -> int:
        """Smallest t attaining the maximum count."""
        if not self.counts:
            raise NoEvidenceError("empty parameter histogram")
        best = max(self.counts.values())
        return min(t for t, c in self.counts.items() if c == best)

    def __bool__(self) -> bool:
        return bool(self.counts)


class ParamIndex:
    """Per (dimension, feature value) count tables over the parameter t.

    Built once, then immutable. All K tables share one layout: the
    (cell = k * X + v, t, count) triples sorted by cell and then t, in flat
    arrays, where the triples of cell c are ``offsets[c]:offsets[c + 1]``.
    t is stored as its rank among the distinct values seen, so prediction
    memory follows how many values t takes, not their span.
    """

    def __init__(self, tables, X: int):
        """Index over ``tables[k]``: dimension k's (v, t, count) rows of integers,
        sorted by (v, t) without repeats; value v was seen ``count`` times with t."""
        tables = [_int_table(tab, f"table {k}") for k, tab in enumerate(tables)]
        if any(tab.size and (tab.ndim != 2 or tab.shape[1] != 3) for tab in tables):
            raise ValidationError("table rows must be (v, t, count) triples")
        tables = [tab.reshape(-1, 3) for tab in tables]
        self.K, self.X = len(tables), int(X)
        if self.K < 1 or self.X < 1:
            raise ConfigError(f"ParamIndex needs K >= 1 and X >= 1, got K={self.K}, X={X}")
        for v, t, count in (tab.T for tab in tables):
            step = np.diff(v)
            if (((step < 0) | ((step == 0) & (np.diff(t) <= 0))).any() or (count < 1).any()
                    or v.size and not 0 <= v[0] <= v[-1] < self.X):
                raise ValidationError("table rows must be unique, sorted by (v, t), with "
                                      f"v in [0, {self.X}) and count >= 1")
        self._t_values = np.unique(np.concatenate([np.unique(tab[:, 1]) for tab in tables]))
        self._t_rank = np.concatenate([np.searchsorted(self._t_values, tab[:, 1])
                                       for tab in tables])
        self._count = np.concatenate([tab[:, 2] for tab in tables])
        self._offsets = np.cumsum(np.concatenate(
            [[0], *(np.bincount(tab[:, 0], minlength=self.X) for tab in tables)]))
        self.rows = int(tables[0][:, 2].sum())
        self.t_min = int(self._t_values[0]) if self._t_values.size else None
        self.t_max = int(self._t_values[-1]) if self._t_values.size else None
        self.schema = None  # optional ColumnSchema, saved with the index

    def tables(self) -> list[dict[int, dict[int, int]]]:
        """Plain-dict view of the count tables (for persistence and tests)."""
        t = self._t_values[self._t_rank].tolist()
        count, at = self._count.tolist(), self._offsets.tolist()
        out: list[dict[int, dict[int, int]]] = [{} for _ in range(self.K)]
        for c in np.flatnonzero(np.diff(self._offsets)).tolist():
            out[c // self.X][c % self.X] = dict(zip(t[at[c]:at[c + 1]], count[at[c]:at[c + 1]]))
        return out

    def _accumulate(self, x) -> np.ndarray:
        """Summed counts of the K tables addressed by x, indexed by t rank."""
        x = np.array(_vector(x, self.K, self.X), dtype=np.int64)
        cells = np.arange(0, self.K * self.X, self.X) + x
        lo, size = self._offsets[cells], self._offsets[cells + 1] - self._offsets[cells]
        # positions lo[k] .. lo[k] + size[k] - 1 of every k, as one index array
        pick = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
        acc = np.bincount(self._t_rank[pick], weights=self._count[pick],
                          minlength=len(self._t_values))
        return acc.astype(np.int64)


def build_param_index(rows, X: int) -> ParamIndex:
    """Build an index from (feature vector, t) pairs sharing one K."""
    rows = list(rows)
    if not rows:
        raise ValidationError("cannot build a parameter index from no rows")
    if len({len(x) for x, _ in rows}) > 1:
        raise ValidationError("feature vectors differ in length")
    t_values, t_rank = np.unique(_int_table([t for _, t in rows], "t"), return_inverse=True)
    T = len(t_values)
    tables = []
    for k in range(len(rows[0][0])):
        v = _int_table([x[k] for x, _ in rows], f"dimension {k}", X)  # so v * T cannot overflow
        # one key per (v, t) pair, so sorted keys are the sorted (v, t) pairs
        key, count = np.unique(v * T + t_rank, return_counts=True)
        tables.append(np.column_stack((key // T, t_values[key % T], count)))
    return ParamIndex(tables, X)


def predict_histogram(idx: ParamIndex, x) -> ParamHistogram:
    """Parameter histogram for x: counts[t] = sum over k of table hits."""
    acc = idx._accumulate(x)
    nz = np.flatnonzero(acc)
    return ParamHistogram(dict(zip(idx._t_values[nz].tolist(), acc[nz].tolist())))


def predict_value(idx: ParamIndex, x) -> int:
    """Most probable t for x; smallest t on ties; error when no evidence."""
    acc = idx._accumulate(x)
    if not acc.any():
        raise NoEvidenceError("no training evidence for this query")
    return int(idx._t_values[np.argmax(acc)])


def histogram_spread(h: ParamHistogram) -> tuple[int, float, int]:
    """(mode, weighted mean, skew sign) of a parameter histogram.

    The skew sign is sign(mean - mode); a nonzero sign flags the symmetry
    breakdown seen near end of life and is exposed as a diagnostic only.
    """
    if not h.counts:
        raise NoEvidenceError("empty parameter histogram")
    mode = h.argmax_t
    total = h.total
    mean = sum(t * c for t, c in h.counts.items()) / total
    diff = mean - mode
    skew = 0 if diff == 0 else (1 if diff > 0 else -1)
    return mode, mean, skew
