"""Image-side applications of the inverted-index classifier.

Two pipelines live here. Segmentation treats every pixel as a K-channel
feature vector, classifies it against a small teacher-labeled pixel model
and paints the label of the winning inner class. Detection against an
arbitrary background trains on a thresholded difference image, masks the
pixel classes that fire on the background, groups the surviving pixels
by a vectorised union-find over their row runs (a row's pixels with column
gaps up to the cluster distance), joining the runs that come within that
distance, and recognizes each cluster's class histogram at a categorical
second level. Both find a pixel's winning class through inverse patterns:
per channel, a table from each sample value to the classes within R of it,
one bit per class packed into little-endian uint64 words, ANDed across the
channels; the winner is the lowest set bit. Before any AND, the pixels are
intersected channel by channel, fewest non-empty table rows first, so only
the pixels whose every sample value has some live class gather their rows;
a channel whose live values form one run lo..hi is tested by one wrapped
uint8 compare, ``sample - lo <= hi - lo``, any other by a read of its table
of non-empty values. A query frame of masked background usually keeps none,
and the intersection stops at the first channel that leaves no pixel.
Detection reads the result sparse, as the matched pixels' flat indices and
winners, from the winner kernel to the per-cluster histograms, and a frame
with no matched pixel skips clustering; segmentation scatters it into a
dense (height, width) map of winner ids and reads each pixel's label from
that map. The tables, their non-empty rows, their runs and the channel
order are built once per (model N, R, mask) and kept in one slot on the
``Model``, so a stream of query frames reuses them. ``train_pixels`` starts
from those tables (``_inverse_patterns``), each row read as one Python int,
and grows them one class at a time.

Masks are boolean numpy arrays of shape (height, width); ``train_pixels``
reads a 0/1 integer mask as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .index import CategoricalModel, ClassHistogram, Model, _int_table, _is_int, _radius, _setting
from .levels import UNLABELED, LabelTable, histogram_to_metapattern


@dataclass
class RasterImage:
    """8-bit raster image, ``pixels`` shaped (height, width, channels)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if not (isinstance(px, np.ndarray) and px.dtype == np.uint8):
            # checked as given, so a ragged list or a bool in a nested one is rejected
            px = _int_table(px, "image samples", 256).astype(np.uint8)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValidationError(f"expected (h, w, 1|3) samples, got shape {px.shape}")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass
class PixelCluster:
    """Connected group of selected pixels.

    ``members`` are (row, col) pairs sorted row-major; ``bbox`` is
    (row_min, col_min, row_max, col_max) inclusive; ``class_histogram``
    counts the members' pixel classes when they were supplied.
    """

    members: list[tuple[int, int]]
    bbox: tuple[int, int, int, int]
    class_histogram: ClassHistogram | None = None


# -- difference image -------------------------------------------------------


def diff_mask(a: RasterImage, b: RasterImage, window: int = 3, threshold: int = 12) -> np.ndarray:
    """Pixels whose windowed mean absolute difference exceeds threshold.

    The mean runs over the window and the channels; borders are clamped
    (edge replication). Computed in integers, so the > comparison is exact.
    The window is an odd integer >= 1 and the threshold any integer
    (``index._setting``).
    """
    if a.pixels.shape != b.pixels.shape:
        raise ValidationError(f"image shapes differ: {a.pixels.shape} vs {b.pixels.shape}")
    window, threshold = _setting(window, "window"), _setting(threshold, "threshold", None)
    if window % 2 == 0:
        raise ConfigError(f"window must be odd, got {window}")
    diff = np.abs(a.pixels.astype(np.int64) - b.pixels.astype(np.int64)).sum(axis=2)
    diff = np.pad(diff, window // 2, mode="edge")
    # summed areas: area[i, j] is the sum of diff[:i, :j], so each window sum is four reads
    area = np.zeros((diff.shape[0] + 1, diff.shape[1] + 1), np.int64)
    np.cumsum(np.cumsum(diff, axis=0, out=diff), axis=1, out=area[1:, 1:])
    sums = (area[window:, window:] - area[:-window, window:]
            - area[window:, :-window] + area[:-window, :-window])
    return sums > threshold * window * window * a.channels


# -- pixel-model training and masking ----------------------------------------


def train_pixels(model: Model, img: RasterImage, mask: np.ndarray) -> int:
    """Train the model on the masked pixels in row-major order; returns classes created.

    The result is that of one ``model.train_step`` per masked pixel, reached
    through the inverse patterns that detection reads, ``_inverse_patterns``'
    tables at R with each row read as one Python int: per channel, bit n of
    sample value v's int is set when class n lies within R of v. A pixel's
    full match is the lowest set bit of its K ints ANDed; a miss becomes
    class N + 1 and sets that bit in the values within R of each of its
    samples. Every sample is checked against X first and the new classes
    are stored together at the end, so a failing call stores nothing."""
    if np.shape(mask) != (img.height, img.width):
        raise ValidationError("mask shape does not match image")
    colors = _colors(model, img)[np.asarray(mask, bool).ravel()]
    if colors.size and colors.max() >= model.X:
        raise ValidationError(f"feature value {colors.max()} outside [0, {model.X})")
    r, n = model.R, model.N
    patterns = [[int.from_bytes(row.tobytes(), "little") for row in table]  # bit n is class n
                for table in _inverse_patterns(model, r, None)[0]]
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
        model._append(new)
    return len(new)


def _inverse_patterns(model: Model, r: int, masked
                      ) -> tuple[list[np.ndarray], np.ndarray, list[int], list]:
    """(tables, nonempty, order, runs). Per channel c a (256, W) table of
    little-endian uint64 words: bit n of row v is set when class n lies within
    r of sample value v and is not masked (bit 0, "no class", never is).
    ``nonempty[c, v]`` says whether that row has a bit set, and ``order`` lists
    the channels by their count of non-empty rows, fewest first, leaving out
    those with all 256 rows non-empty, which keep every pixel. ``runs[c]`` is
    ``(lo, hi - lo)`` as uint8 when channel c's non-empty rows are the one run
    lo..hi, else None (no such row, or a hole between two). Built once per
    (N, r, mask) and published in ``model._tables`` in one assignment, so
    concurrent readers never see half of it; an insert grows N, which
    invalidates it."""
    rows, mask = model._rows(), frozenset(masked or ())
    n, slot = len(rows), model._tables
    if slot is not None and slot[0] == (n, r, mask):
        return slot[1]
    protos = np.zeros((n + 1, model.K), np.int64)  # row 0: "no class"
    protos[1:] = rows
    live = ~np.isin(np.arange(n + 1), [0, *mask])
    values = np.arange(256)[:, None]
    tables, nonempty, runs = [], np.zeros((model.K, 256), bool), []
    for c in range(model.K):
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
    model._tables = ((n, r, mask), patterns)
    return patterns


def _live(nonempty: np.ndarray, run, samples: np.ndarray) -> np.ndarray:
    """Whether each uint8 sample value has a live class in one channel, given
    the channel's ``nonempty`` row and its ``run`` from ``_inverse_patterns``.
    A one-run channel is one range test, ``samples - lo <= span`` in uint8: a
    value below lo wraps past 255 - lo, which is at least the span; any other
    channel reads its row."""
    if run is None:
        return np.take(nonempty, samples)
    lo, span = run
    return samples - lo <= span


def _sparse_winners(model: Model, colors: np.ndarray, radius: int | None = None,
                    masked=None) -> tuple[np.ndarray, np.ndarray]:
    """(at, ids): the ascending indices of the rows of 8-bit samples that fully
    match an unmasked class, and each such row's smallest one.

    Full match means Chebyshev distance <= R from a stored prototype, i.e.
    a vote count of K under classification. The rows are intersected channel
    by channel, the channel with the fewest non-empty table rows first
    (smallest first, Culpepper & Moffat), keeping those whose sample value has
    some live class in that channel (``_live``): when the channel's live
    values form one run, one wrapped uint8 compare against it, a range
    predicate with no gather; otherwise one ``np.take`` of its non-empty rows.
    A channel with all 256 rows non-empty is not tested, as it keeps all. Once
    no row is left, the empty (at, ids) comes back at once: no later channel,
    gather or scan runs. Only the rows left at the end AND their K rows of
    the packed inverse-pattern tables (a range-encoded bitmap index, Chan &
    Ioannidis); the winner is the lowest set bit,
    ``64 * w + bitwise_count((x & -x) - 1)`` for the first nonzero word x at
    index w.
    """
    tables, nonempty, order, runs = _inverse_patterns(model, _radius(radius, model.R), masked)
    colors = np.asarray(colors, np.uint8)  # the run test wraps in uint8
    if order:
        c = order[0]
        at = np.flatnonzero(_live(nonempty[c], runs[c], colors[:, c]))
        for c in order[1:]:  # flat reads: a strided column would be copied whole by np.take
            if not len(at):
                break
            at = at[_live(nonempty[c], runs[c], np.take(colors, model.K * at + c))]
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
        for c in range(1, model.K):
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


def _colors(model: Model, img: RasterImage) -> np.ndarray:
    """The image's samples, one row per pixel in row-major order."""
    if model.K != img.channels:
        raise ValidationError(f"model K={model.K} does not match {img.channels} channels")
    return img.pixels.reshape(-1, img.channels)


def build_class_mask(model: Model, background: RasterImage, freq_threshold: int) -> set[int]:
    """Classes that fully match too many background pixels.

    A class enters the mask set when it wins (full match) on more than
    ``freq_threshold`` background pixels; the threshold is any integer
    (``index._setting``).
    """
    freq_threshold = _setting(freq_threshold, "frequency threshold", None)
    _, ids = _sparse_winners(model, _colors(model, background))
    counts = np.bincount(ids, minlength=model.N + 1)
    return set((np.flatnonzero(counts[1:] > freq_threshold) + 1).tolist())


def select_pixel_classes(model: Model, img: RasterImage,
                         masked: set[int] | frozenset[int]) -> dict[tuple[int, int], int]:
    """(row, col) -> smallest unmasked fully matching class, for all pixels
    that have one."""
    at, ids = _sparse_winners(model, _colors(model, img), masked=masked)
    rows, cols = np.divmod(at, img.width)
    return dict(zip(zip(rows.tolist(), cols.tolist()), ids.tolist()))


def select_pixels(model: Model, img: RasterImage,
                  masked: set[int] | frozenset[int]) -> set[tuple[int, int]]:
    """Coordinates of pixels fully matching some unmasked class."""
    return set(select_pixel_classes(model, img, masked))


# -- clustering ---------------------------------------------------------------


_TOP = np.uint64(1 << 63)  # int64 view as uint64 ^ _TOP keeps the order, from 0 up


def _components(rows: np.ndarray, cols: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """Clusters of distinct int64 points given in row-major order, two points
    being adjacent when their Chebyshev distance is <= d.

    Returns (labels, k): point i lies in cluster ``labels[i]`` of k, numbered in
    the order of the clusters' first points. A distance of at least the row
    and the column span joins every point. Otherwise the points are cut into
    runs, consecutive points of one row with column gaps <= d, and the runs
    are joined instead of the points (He, Chao & Suzuki's run-based labeling):
    two runs at most d rows apart are adjacent exactly when their column
    intervals come within d, since no gap inside a run exceeds d. The
    coordinates are read as uint64 in order, where every difference fits and
    first - d and last + d saturate, and the search keys are ranks,
    ``row rank * M + rank among the run ends``, so any distance is exact and
    the keys stay small however far apart the points lie. For each later row
    within d of its own, a run finds the range of runs it reaches there with
    one ``searchsorted`` over the end keys and one over the start keys, so
    the searches number the runs times the rows in reach; runs in a row are
    sorted and disjoint, so a run pairs only with the runs it touches. A
    vectorised union-find joins them: each round hooks the larger root of
    every pair onto the smaller, jumps pointers until every run points at its
    root, and drops the pairs already joined. A root is always its cluster's
    smallest run index, which holds the cluster's first point; each point
    takes its run's label.
    """
    d = _setting(d, "cluster distance")
    n = len(rows)
    if n == 0:
        return np.zeros(0, np.int64), 0
    if d >= max(int(rows[-1]) - int(rows[0]), int(cols.max()) - int(cols.min())):
        return np.zeros(n, np.int64), 1
    reach = np.uint64(d)  # below the span of two int64 values, so it fits
    breaks = (np.diff(rows) != 0) | (np.diff(cols).view(np.uint64) > reach)
    bounds = np.flatnonzero(np.concatenate([[True], breaks, [True]]))  # run starts, then n
    starts, runs = bounds[:-1], len(bounds) - 1
    edges = cols[np.concatenate([starts, bounds[1:] - 1])].view(np.uint64) ^ _TOP
    first, last = edges[:runs], edges[runs:]
    ends = np.sort(edges)
    rank = np.searchsorted(ends, edges)  # the ends below each end
    # the ends below first - d, and those up to last + d
    lo_rank = np.searchsorted(ends, first - np.minimum(first, reach))
    hi_rank = np.searchsorted(ends, last + np.minimum(~last, reach), "right")
    run_rows = rows[starts].view(np.uint64) ^ _TOP
    row = np.zeros(runs, np.int64)  # each run's row rank
    np.cumsum(run_rows[1:] != run_rows[:-1], out=row[1:])
    reached = np.searchsorted(run_rows, run_rows + np.minimum(~run_rows, reach), "right")
    ahead = row[reached - 1] - row  # the later rows within d
    m = 2 * runs + 1  # no rank reaches into the next row's keys
    base = row * m
    first_key, last_key = base + rank[:runs], base + rank[runs:]
    # per run and j-th later row: the first run there that ends at first - d
    # or later, and the one past the last that starts by last + d
    j = np.arange(1, int(ahead.max()) + 1)[:, None]
    lo = np.searchsorted(last_key, (base + lo_rank + j * m).ravel())
    hi = np.searchsorted(first_key, (base + hi_rank + j * m).ravel())
    counts = (hi - lo) * (j <= ahead).ravel()
    a = np.repeat(np.tile(np.arange(runs), len(j)), counts)
    b = np.arange(len(a)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    parent = np.arange(runs)
    while a.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
        a, b = parent[a], parent[b]
        joined = a == b
        a, b = a[~joined], b[~joined]
    roots = parent == np.arange(runs)
    return np.repeat((np.cumsum(roots) - 1)[parent], np.diff(bounds)), int(roots.sum())


def cluster_pixels(pixels, d: int, classes: dict[tuple[int, int], int] | None = None
                   ) -> list[PixelCluster]:
    """Partition pixels into connected clusters.

    Two pixels are adjacent when their Chebyshev distance is <= d (d=1 is
    classic 8-connectivity); clusters are found by union-find over the
    pixels' row runs (``_components``). They come back ordered by their
    topmost-leftmost member; when ``classes`` maps coordinates to pixel class
    ids, each cluster carries its member-class histogram, and every pixel must
    map to an integer id >= 1. Each pixel is a (row, col) pair of int64 integers.
    """
    table = _int_table(list(set(pixels)) or np.zeros((0, 2), np.int64), "pixel coordinates")
    if table.shape[1:] != (2,):
        raise ValidationError("pixel coordinates are not (row, col) pairs")
    rows, cols = table[np.lexsort(table.T[::-1])].T  # row-major
    points = list(zip(rows.tolist(), cols.tolist()))
    ids = None if classes is None else [classes.get(p) for p in points]
    for p, n in zip(points, ids or ()):
        if type(n) is not int and not _is_int(n) or n < 1:  # plain ints skip _is_int
            raise ValidationError(f"pixel {p} has no class id >= 1 in classes, got {n!r}")
    labels, k = _components(rows, cols, d)
    if not k:
        return []
    order = np.argsort(labels, kind="stable")  # each cluster's points stay row-major
    rows, cols = rows[order], cols[order]
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    ends = np.append(starts[1:], len(order))
    members = list(zip(rows.tolist(), cols.tolist()))
    bboxes = zip(rows[starts].tolist(), np.minimum.reduceat(cols, starts).tolist(),
                 rows[ends - 1].tolist(), np.maximum.reduceat(cols, starts).tolist())
    ids = None if ids is None else [ids[i] for i in order.tolist()]
    return [PixelCluster(members[s:e], bbox,
                         None if ids is None else ClassHistogram(np.bincount(ids[s:e])))
            for s, e, bbox in zip(starts.tolist(), ends.tolist(), bboxes)]


def _cluster_votes(model: Model, img: RasterImage, masked, d: int) -> np.ndarray:
    """(k, N + 1) pixel-class counts of the k clusters of the image's selected
    pixels, one row per cluster in ``cluster_pixels`` order."""
    at, ids = _sparse_winners(model, _colors(model, img), masked=masked)
    width = model.N + 1
    if not len(at):  # no pixel matched, so no cluster; the distance is still checked
        _setting(d, "cluster distance")
        return np.zeros((0, width), np.int64)
    rows, cols = np.divmod(at, img.width)
    labels, k = _components(rows, cols, d)
    return np.bincount(labels * width + ids, minlength=k * width).reshape(k, width)


# -- cluster recognition -------------------------------------------------------


def recognize_clusters(level2: CategoricalModel, clusters: list[PixelCluster],
                       threshold: int) -> tuple[int, int] | None:
    """Argmax object class over accumulated cluster activities.

    Each cluster's class histogram is thresholded into a meta-pattern and
    classified at the second level; recognized clusters add their vote
    count to their winning object class. Returns (class id, activity) or
    None when every cluster is rejected. The histograms are padded to one
    width and stacked for ``_recognize``.
    """
    hists = [cl.class_histogram for cl in clusters]
    if any(h is None for h in hists):
        raise ValidationError("cluster has no class histogram attached")
    votes = np.zeros((len(hists), max((len(h.votes) for h in hists), default=1)), np.int64)
    for row, h in zip(votes, hists):
        row[:len(h.votes)] = h.votes
    return _recognize(level2, votes, threshold)


def _recognize(level2: CategoricalModel, votes: np.ndarray, threshold: int
               ) -> tuple[int, int] | None:
    """``recognize_clusters`` over a (k, width) matrix of the clusters' class
    votes, one row per cluster: the rows' meta-patterns, ``votes >= threshold``,
    are scored against level 2 by one call of its kernel
    (``CategoricalModel._overlaps``), each row is read as a ``ClassHistogram``,
    and a row ``level2.recognized`` accepts adds its best overlap to its
    winner, so both rules, the threshold and the tie-break, have one owner. A
    row with a meta-pattern level 2 rejects raises its error, the first such
    row in cluster order. The threshold is checked even when there is no cluster."""
    threshold = _setting(threshold, "meta threshold")
    if not len(votes):
        return None
    activities = np.zeros(level2.N + 1, np.int64)
    for h in map(ClassHistogram, level2._overlaps(votes >= threshold)):
        if (n := level2.recognized(h)) is not None:
            activities[n] += h.max_count
    winner = ClassHistogram(activities)
    return (winner.argmax, winner.max_count) if winner else None


def detect_objects(level1: Model, level2: CategoricalModel, masked, img: RasterImage,
                   meta_threshold: int, cluster_dist: int) -> tuple[int, int] | None:
    """Full recognition pass: select, cluster, recognize. None = no object."""
    votes = _cluster_votes(level1, img, masked, cluster_dist)
    return _recognize(level2, votes, meta_threshold)


def train_detector(background: RasterImage, object_frame: RasterImage, *, radius: int,
                   window: int, threshold: int, freq_threshold: int, cluster_dist: int,
                   meta_threshold: int, meta_votes: int) -> tuple[Model, CategoricalModel, set]:
    """Train a two-level detector; returns (level1, level2, masked) for ``detect_objects``.

    The pixel model (X=256) trains on the object-frame pixels the difference
    image marks, its classes winning on more than ``freq_threshold`` background
    pixels are masked, and the largest cluster of the rest (the first on ties)
    trains level 2, whose recognition threshold is ``meta_votes``. With no
    cluster or an empty meta-pattern, level 2 stays empty. Every setting is
    checked before the difference image or any training, by ``index._setting``
    (the window, the cluster distance, the meta threshold and ``meta_votes``
    integers >= 1, the two other thresholds any integer) and by ``Model`` (the
    radius in [0, 256))."""
    for value, name, low in ((window, "window", 1), (threshold, "threshold", None),
                             (freq_threshold, "frequency threshold", None),
                             (cluster_dist, "cluster distance", 1),
                             (meta_threshold, "meta threshold", 1),
                             (meta_votes, "recognition threshold", 1)):
        _setting(value, name, low)
    level1 = Model(background.channels, 256, radius)
    train_pixels(level1, object_frame, diff_mask(background, object_frame, window, threshold))
    masked = build_class_mask(level1, background, freq_threshold)
    level2 = CategoricalModel(max(level1.N, 1), meta_votes, grow=True)
    votes = _cluster_votes(level1, object_frame, masked, cluster_dist)
    if len(votes):
        biggest = ClassHistogram(votes[votes.sum(axis=1).argmax()])  # the first on ties
        meta = histogram_to_metapattern(biggest, meta_threshold)
        if meta:
            level2.train_step(meta)
    return level1, level2, masked


# -- segmentation ---------------------------------------------------------------


def segment_image(model: Model, table: LabelTable, img: RasterImage,
                  radius: int | None = None) -> np.ndarray:
    """Per-pixel label map (object array of strings).

    A pixel gets the label of its winning inner class when it fully
    matches one; everything else stays "unlabeled".
    """
    at, ids = _sparse_winners(model, _colors(model, img), radius)
    wins = np.zeros(img.height * img.width, np.int64)  # 0: no winner
    wins[at] = ids  # a 1-D scatter: ``.flat[at] = ids`` on a 2-D map is ~5x slower
    labels = np.empty(model.N + 1, dtype=object)
    labels[0] = UNLABELED
    for n in range(1, model.N + 1):
        labels[n] = table.lookup(n)
    return labels[wins.reshape(img.height, img.width)]
