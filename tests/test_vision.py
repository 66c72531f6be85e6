"""Vision pipeline tests: difference masks, masking, clustering, detection,
segmentation."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invpat import (
    CategoricalModel,
    ClassHistogram,
    ConfigError,
    LabelTable,
    Model,
    PixelCluster,
    RasterImage,
    UNLABELED,
    ValidationError,
    build_class_mask,
    cluster_pixels,
    detect_objects,
    diff_mask,
    histogram_to_metapattern,
    load_model,
    recognize_clusters,
    save_model,
    segment_image,
    select_pixel_classes,
    select_pixels,
    train_detector,
    train_pixels,
)
from invpat import vision
from invpat.vision import (
    _cluster_votes,
    _components,
    _inverse_patterns,
    _sparse_winners,
)
from test_index import overlap_counts


def img(arr):
    return RasterImage(np.asarray(arr, dtype=np.uint8))


def brute_diff_mask(a, b, window, threshold):
    h, w, ch = a.pixels.shape
    pad = window // 2
    out = np.zeros((h, w), dtype=bool)
    ai = a.pixels.astype(int)
    bi = b.pixels.astype(int)
    for r in range(h):
        for c in range(w):
            total = 0
            for dr in range(-pad, pad + 1):
                for dc in range(-pad, pad + 1):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    total += abs(ai[rr, cc] - bi[rr, cc]).sum()
            out[r, c] = total / (window * window * ch) > threshold
    return out


class TestDiffMask:
    def test_identical_images(self):
        rng = np.random.default_rng(71)
        a = img(rng.integers(0, 256, size=(8, 9, 3)))
        assert not diff_mask(a, a, 3, 1).any()

    def test_single_changed_pixel(self):
        a = img(np.zeros((5, 5, 3)))
        b_px = np.zeros((5, 5, 3), dtype=np.uint8)
        b_px[2, 3] = 255
        mask = diff_mask(a, img(b_px), 1, 10)
        assert mask[2, 3] and mask.sum() == 1

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(73)
        a = img(rng.integers(0, 256, size=(10, 7, 3)))
        b = img(rng.integers(0, 256, size=(10, 7, 3)))
        for window, threshold in [(1, 30), (3, 60), (5, 90)]:
            got = diff_mask(a, b, window, threshold)
            assert np.array_equal(got, brute_diff_mask(a, b, window, threshold))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 3]),
           st.sampled_from([1, 3, 5, 9, 15]), st.integers(0, 2**32 - 1), st.integers(-1, 1))
    def test_summed_areas_match_brute_force(self, h, w, channels, window, seed, step):
        """Random shapes, 1x1 and windows wider than the image among them, at a
        threshold next to or at the window mean of one pixel."""
        rng = np.random.default_rng(seed)
        a, b = (img(rng.integers(0, 256, size=(h, w, channels))) for _ in range(2))
        r, c, pad = int(rng.integers(h)), int(rng.integers(w)), window // 2
        rows = np.clip(np.arange(r - pad, r + pad + 1), 0, h - 1)
        cols = np.clip(np.arange(c - pad, c + pad + 1), 0, w - 1)
        total = np.abs(a.pixels.astype(int) - b.pixels.astype(int))[np.ix_(rows, cols)].sum()
        threshold = int(total) // (window * window * channels) + step
        got = diff_mask(a, b, window, threshold)
        assert np.array_equal(got, brute_diff_mask(a, b, window, threshold))

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_threshold_at_the_exact_mean(self, window):
        """A mean equal to the threshold does not exceed it; one above does."""
        rng = np.random.default_rng(79)
        a = rng.integers(0, 200, size=(5, 4, 3))
        d = int(rng.integers(1, 56))
        first, second = img(a), img(a + d)
        assert not diff_mask(first, second, window, d).any()
        assert diff_mask(first, second, window, d - 1).all()

    def test_errors(self):
        a = img(np.zeros((4, 4, 3)))
        b = img(np.zeros((4, 5, 3)))
        with pytest.raises(Exception):
            diff_mask(a, b, 3, 10)
        with pytest.raises(ConfigError):
            diff_mask(a, a, 2, 10)

    def test_negative_and_numpy_thresholds_accepted(self):
        """A threshold below 0 marks every pixel, as the mean is never negative."""
        a = img(np.zeros((4, 4, 3)))
        assert diff_mask(a, a, 3, -1).all() and not diff_mask(a, a, np.int64(3), np.int8(0)).any()
        m = Model(3, 256, 0)
        m.insert_class((9, 9, 9))  # wins on no pixel of a
        assert build_class_mask(m, a, -1) == {1} and build_class_mask(m, a, 0) == set()


class TestTrainPixels:
    def test_uniform_region_one_class(self):
        frame = np.zeros((6, 6, 3), dtype=np.uint8)
        frame[:] = (10, 20, 30)
        mask = np.zeros((6, 6), dtype=bool)
        mask[1:4, 1:4] = True
        m = Model(3, 256, 0)
        assert train_pixels(m, img(frame), mask) == 1

    def test_mask_of_another_shape_rejected(self):
        m = Model(3, 256, 0)
        with pytest.raises(ValidationError, match="mask shape"):
            train_pixels(m, img(np.zeros((4, 5, 3), np.uint8)), np.ones((5, 4), bool))
        assert m.N == 0

    def test_distinct_color_count(self):
        rng = np.random.default_rng(79)
        frame = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        mask = rng.random((8, 8)) < 0.6
        m = Model(3, 256, 0)
        created = train_pixels(m, img(frame), mask)
        distinct = {tuple(frame[r, c]) for r, c in np.argwhere(mask)}
        assert created == len(distinct) == m.N

    def test_radius_collapses_noise(self):
        rng = np.random.default_rng(83)
        base = np.array([100, 120, 140])
        noise = rng.normal(0, 8, size=(20, 20, 3))
        frame = np.clip(base + noise, 0, 255).astype(np.uint8)
        mask = np.ones((20, 20), dtype=bool)
        m = Model(3, 256, 26)
        train_pixels(m, img(frame), mask)
        distinct = {tuple(p) for p in frame.reshape(-1, 3)}
        assert m.N < len(distinct)

    def test_out_of_range_sample_stores_nothing(self):
        frame = np.zeros((1, 4, 3), dtype=np.uint8)
        frame[0, :, 0] = (10, 50, 200, 70)  # the third sample lies outside [0, 100)
        m = Model(3, 100, 2)
        m.insert_class((90, 90, 90))
        with pytest.raises(ValidationError):
            train_pixels(m, img(frame), np.ones((1, 4), dtype=bool))
        assert m.N == 1 and m.prototypes == [(90, 90, 90)]

    def test_integer_mask_selects_like_bool(self):
        rng = np.random.default_rng(89)
        frame = rng.integers(0, 256, size=(9, 7, 3)).astype(np.uint8)
        chosen = rng.random((9, 7)) < 0.5
        by_bool, by_uint8 = Model(3, 256, 20), Model(3, 256, 20)
        train_pixels(by_bool, img(frame), chosen)
        train_pixels(by_uint8, img(frame), chosen.astype(np.uint8))
        assert by_uint8.prototypes == by_bool.prototypes

    @pytest.mark.parametrize("stored", [0, 25])
    @pytest.mark.parametrize("x_range", [100, 256, 300])
    @pytest.mark.parametrize("radius", [0, 1, 10, 40, 254, 255])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_train_step_loop(self, channels, radius, x_range, stored):
        """Same created count, per-pixel ids and prototypes as one train_step
        per masked pixel, on a model that may already hold classes."""
        rng = np.random.default_rng([channels, radius, x_range, stored])
        radius = min(radius, x_range - 1)
        prior = rng.integers(0, x_range, size=(stored, channels))
        for step in (1, 16, 64):  # coarser steps repeat colours, so pixels match classes
            frame = img(rng.integers(0, min(x_range, 256), size=(11, 13, channels)) // step * step)
            mask = rng.random((11, 13)) < rng.random()
            loop, fast = Model(channels, x_range, radius), Model(channels, x_range, radius)
            loop.insert_classes(prior)
            fast.insert_classes(prior)
            steps = [loop.train_step(tuple(int(v) for v in frame.pixels[r, c]))
                     for r, c in np.argwhere(mask)]
            assert train_pixels(fast, frame, mask) == sum(new for _, new in steps)
            assert fast.prototypes == loop.prototypes
            # a pixel's id is its smallest full match then, and no later class is smaller
            at, ids = _sparse_winners(fast, frame.pixels[mask].astype(np.int64))
            assert (at.tolist(), ids.tolist()) == sparse([n for n, _ in steps])

    def test_masked_slot_creates_no_class(self):
        """Pixels that only match masked classes still match: training reads
        the unmasked inverse patterns, whatever table the slot holds, and a
        masked query afterwards still gives the brute-force winners."""
        rng = np.random.default_rng(97)
        m = Model(3, 256, 6)
        m.insert_classes(rng.integers(0, 256, size=(40, 3)))
        masked = frozenset(range(1, 41, 2))
        colors = rng.integers(0, 256, size=(200, 3)).astype(np.uint8)
        colors[:40] = m.prototypes
        oracle_check(m, colors, None, masked)
        assert m._tables[0][2] == masked  # the slot holds the masked table
        frame = np.array(m.prototypes, np.uint8)[::-1][None]  # masked classes too
        assert train_pixels(m, img(frame), np.ones(frame.shape[:2], bool)) == 0
        assert m.N == 40
        oracle_check(m, colors, None, masked)
        oracle_check(m, colors, None, None)

    @pytest.mark.parametrize("x_range, radius", [(20, 15), (20, 19), (255, 254)])
    def test_radius_past_the_top_below_256(self, x_range, radius):
        """X < 256 with v + R past X - 1, on an empty and a pre-populated model."""
        for stored in (0, 25):
            self.test_matches_train_step_loop(3, radius, x_range, stored)


class TestMaskingAndSelection:
    def build(self):
        # model trained on two colors; background shows only the first
        m = Model(3, 256, 0)
        m.insert_class((10, 10, 10))   # background color -> class 1
        m.insert_class((200, 50, 50))  # object color -> class 2
        bg = np.zeros((6, 6, 3), dtype=np.uint8)
        bg[:] = (10, 10, 10)
        return m, img(bg)

    def test_no_matches_empty_mask(self):
        m, _ = self.build()
        blank = np.full((4, 4, 3), 77, dtype=np.uint8)
        assert build_class_mask(m, img(blank), 0) == set()

    def test_background_class_masked(self):
        m, bg = self.build()
        assert build_class_mask(m, bg, 5) == {1}

    def test_zero_threshold_masks_single_match(self):
        m, bg = self.build()
        assert build_class_mask(m, bg, 0) == {1}

    def test_select_pixels(self):
        m, bg = self.build()
        frame = bg.pixels.copy()
        frame[2, 2] = (200, 50, 50)
        frame[2, 3] = (200, 50, 50)
        sel = select_pixels(m, img(frame), {1})
        assert sel == {(2, 2), (2, 3)}
        classes = select_pixel_classes(m, img(frame), {1})
        assert classes == {(2, 2): 2, (2, 3): 2}

    def test_empty_mask_selects_all_matches(self):
        m, bg = self.build()
        sel = select_pixels(m, bg, set())
        assert len(sel) == 36

    def test_all_masked_selects_nothing(self):
        m, bg = self.build()
        assert select_pixels(m, bg, {1, 2}) == set()

    def test_per_pixel_oracle(self):
        rng = np.random.default_rng(89)
        m = Model(3, 16, 2)
        for row in rng.integers(0, 16, size=(20, 3)):
            m.insert_class(row.tolist())
        frame = img(rng.integers(0, 16, size=(7, 9, 3)))
        masked = {3, 7, 11}
        got = select_pixel_classes(m, frame, masked)
        for r in range(7):
            for c in range(9):
                px = tuple(int(v) for v in frame.pixels[r, c])
                full = [n for n in range(1, m.N + 1)
                        if max(abs(px[k] - m.prototypes[n - 1][k]) for k in range(3)) <= m.R
                        and n not in masked]
                if full:
                    assert got[(r, c)] == min(full)
                else:
                    assert (r, c) not in got

    def test_dict_is_row_major_python_ints(self):
        rng = np.random.default_rng(97)
        m = Model(3, 16, 1)
        for row in rng.integers(0, 16, size=(30, 3)):
            m.insert_class(row.tolist())
        frame = img(rng.integers(0, 16, size=(8, 6, 3)))
        got = select_pixel_classes(m, frame, {2, 5})
        at, ids = check_winners(m, frame.pixels.reshape(-1, 3), None, frozenset({2, 5}))
        expected = {divmod(i, 6): n for i, n in zip(at, ids)}
        assert got and list(got.items()) == list(expected.items())
        assert all(type(v) is int for key in got for v in (*key, got[key]))

    def test_background_residual_bound(self):
        # on the background itself, unmasked classes can win on at most
        # freq_threshold pixels each
        rng = np.random.default_rng(97)
        m = Model(3, 16, 1)
        for row in rng.integers(0, 16, size=(30, 3)):
            m.insert_class(row.tolist())
        bg = img(rng.integers(0, 16, size=(12, 12, 3)))
        for freq in (0, 3, 10):
            masked = build_class_mask(m, bg, freq)
            classes = select_pixel_classes(m, bg, masked)
            per_class = {}
            for n in classes.values():
                per_class[n] = per_class.get(n, 0) + 1
            assert all(c <= freq for c in per_class.values())


def union_find_clusters(pixels, d):
    pixels = sorted(pixels)
    parent = {p: p for p in pixels}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for i, p in enumerate(pixels):
        for q in pixels[i + 1:]:
            if max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= d:
                parent[find(p)] = find(q)
    groups = {}
    for p in pixels:
        groups.setdefault(find(p), set()).add(p)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


class TestClustering:
    def test_threshold_boundary(self):
        pair = {(0, 0), (0, 3)}
        assert len(cluster_pixels(pair, 3)) == 1
        assert len(cluster_pixels(pair, 2)) == 2

    def test_empty(self):
        assert cluster_pixels(set(), 1) == []

    @pytest.mark.parametrize("d", [1.5, 2.0, True, np.bool_(True), 0, "1", None])
    def test_non_integer_distance_rejected(self, d):
        """A fractional distance once escaped as TypeError from range and True
        acted as 1."""
        rows, cols = np.array([0, 0]), np.array([0, 2])
        for call in (lambda: _components(rows, cols, d), lambda: cluster_pixels({(0, 0)}, d),
                     lambda: cluster_pixels(set(), d)):
            with pytest.raises(ConfigError, match="cluster distance"):
                call()

    def test_union_find_oracle(self):
        rng = np.random.default_rng(101)
        for d in (1, 2, 3):
            pts = {(int(r), int(c)) for r, c in rng.integers(0, 25, size=(60, 2))}
            got = cluster_pixels(pts, d)
            assert [cl.members for cl in got] == union_find_clusters(pts, d)

    def test_partition_property(self):
        rng = np.random.default_rng(103)
        pts = {(int(r), int(c)) for r, c in rng.integers(0, 30, size=(80, 2))}
        clusters = cluster_pixels(pts, 2)
        seen = set()
        for cl in clusters:
            ms = set(cl.members)
            assert not ms & seen
            seen |= ms
        assert seen == pts

    @pytest.mark.parametrize("classes", [{(0, 0): 1}, {(0, 0): 1, (0, 1): -1},
                                         {(0, 0): 1, (0, 1): 0}, {(0, 0): 1, (0, 1): 2.0},
                                         {(0, 0): 1, (0, 1): True}, {(0, 0): 1, (0, 1): None}])
    def test_bad_class_id_rejected(self, classes):
        """A pixel missing from classes once raised KeyError and a class id of -1
        numpy's ValueError from bincount."""
        with pytest.raises(ValidationError, match=r"pixel \(0, 1\)"):
            cluster_pixels({(0, 0), (0, 1)}, 1, classes)

    @pytest.mark.parametrize("pixels", [{(0.5, 1.7), (2.0, 3.0)}, {(True, 1), (0, 0)},
                                        {("0", 1), (0, 0)}, {(0, 1, 2), (0, 0)},
                                        {(2**63, 1), (0, 0)}, {(0, 1, 2), (3, 4, 5)}, {1, 2}])
    def test_bad_coordinates_rejected(self, pixels):
        """Floats were truncated to (0, 1) and (2, 3) and True read as 1; a str,
        a 3-tuple and a value past int64 raised numpy's errors."""
        with pytest.raises(ValidationError, match="pixel coordinates"):
            cluster_pixels(pixels, 1)

    def test_numpy_integer_coordinates_accepted(self):
        pixels = {(np.int64(0), np.uint8(1)), (0, 2)}
        assert view(cluster_pixels(pixels, 1, dict.fromkeys(pixels, 3))) == [
            ([(0, 1), (0, 2)], (0, 1, 0, 2), {3: 2})]

    def test_numpy_class_ids_accepted(self):
        classes = {(0, 0): np.int64(2), (5, 5): np.uint8(3)}
        assert view(cluster_pixels(set(classes), 1, classes)) == [
            ([(0, 0)], (0, 0, 0, 0), {2: 1}), ([(5, 5)], (5, 5, 5, 5), {3: 1})]

    def test_bbox_and_histogram(self):
        classes = {(0, 0): 1, (0, 1): 1, (1, 1): 2}
        clusters = cluster_pixels(set(classes), 1, classes)
        assert len(clusters) == 1
        cl = clusters[0]
        assert cl.bbox == (0, 0, 1, 1)
        assert cl.class_histogram.counts == {1: 2, 2: 1}
        assert sum(cl.class_histogram.counts.values()) == len(cl.members)


def oracle_view(pixels, d, classes):
    """cluster_pixels' contract spelled out from union_find_clusters."""
    return [(g, (g[0][0], min(c for _, c in g), g[-1][0], max(c for _, c in g)),
             dict(sorted(Counter(classes[p] for p in g).items())))
            for g in union_find_clusters(pixels, d)]


def view(clusters):
    return [(cl.members, cl.bbox, cl.class_histogram.counts) for cl in clusters]


FAR = [(10**9, 10**9), (10**9, 10**9 - 1), (-10**9, 10**9), (-10**9, -10**9),
       (10**9 - 3, -10**9), (-10**9 + 2, -10**9 + 2), (5 * 10**18, -5 * 10**18),
       (5 * 10**18 + 1, -5 * 10**18 + 1), (-5 * 10**18, 5 * 10**18)]  # spans past int64


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cluster_pixels_matches_union_find_oracle(d):
    """Members, bounding boxes, histograms and order against the pairwise
    oracle, on random sets around the origin, points so far apart that
    their differences overflow int64, an empty set and a single pixel."""
    rng = np.random.default_rng(200 + d)
    for trial in range(40):
        n, span = int(rng.integers(1, 90)), int(rng.choice([6, 20, 60]))
        pts = {(int(r), int(c)) for r, c in rng.integers(-span, span, size=(n, 2))}
        if trial % 3 == 0:
            pts.update(FAR[:int(rng.integers(1, len(FAR) + 1))])
        classes = {p: int(rng.integers(1, 12)) for p in pts}
        got = cluster_pixels(pts, d, classes)
        assert view(got) == oracle_view(pts, d, classes)
        assert all(type(v) is int for cl in got for p in cl.members for v in p)
    corners = {(0, -2**63): 1, (1, 2**63 - 1): 1, (1 + d, 2**63 - 1 - d): 2}  # gaps wrap int64
    assert view(cluster_pixels(set(corners), d, corners)) == oracle_view(corners, d, corners)
    assert cluster_pixels(set(), d, {}) == []
    assert view(cluster_pixels({(-7, 10**9)}, d, {(-7, 10**9): 3})) == [
        ([(-7, 10**9)], (-7, 10**9, -7, 10**9), {3: 1})]


def serpentine(n):
    """Every even row, joined alternately at the right and the left end."""
    m = np.zeros((n, n), bool)
    m[::2] = True
    m[1::2, -1] = True
    m[3::4, -1], m[3::4, 0] = False, True
    return m


def comb(n, spine_row):
    """Every even column, joined by one full row."""
    m = np.zeros((n, n), bool)
    m[:, ::2] = True
    m[spine_row] = True
    return m


def points(mask):
    return set(zip(*(a.tolist() for a in np.nonzero(mask))))


@pytest.mark.parametrize("shape", ["serpentine", "comb-bottom", "comb-top"])
def test_cluster_pixels_long_paths(shape):
    """Shapes whose clusters join only over long paths converge to the exact
    clusters: one whole cluster, and two once a link is cut."""
    n = 160
    mask = {"serpentine": serpentine(n), "comb-bottom": comb(n, n - 1),
            "comb-top": comb(n, 0)}[shape]
    pts = points(mask)
    whole = cluster_pixels(pts, 1)
    assert len(whole) == 1 and whole[0].members == sorted(pts)
    cut = mask.copy()
    if shape == "serpentine":
        cut[n // 2 + 1] = False  # the link between rows n/2 and n/2 + 2
    else:
        cut[n - 1 if shape == "comb-bottom" else 0, 1] = False  # first tooth off the spine
    first = {(r, c) for r, c in points(cut) if (r <= n // 2 if shape == "serpentine" else c == 0)}
    parts = cluster_pixels(points(cut), 1)
    assert [cl.members for cl in parts] == [sorted(first), sorted(points(cut) - first)]
    small = cut[:24, :24]
    assert [cl.members for cl in cluster_pixels(points(small), 1)] == union_find_clusters(
        points(small), 1)


def test_cluster_pixels_matches_scipy_label():
    """8-connected clusters of random winner maps against scipy's labelling,
    which numbers components in raster order of their first pixel."""
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(211)
    for density in (0.2, 0.45, 0.6, 0.9):
        for shape in ((1, 1), (1, 70), (70, 1), (48, 64)):
            wins = np.where(rng.random(shape) < density, rng.integers(1, 9, size=shape), 0)
            labels, k = ndimage.label(wins > 0, structure=np.ones((3, 3)))
            want = [sorted(points(labels == j)) for j in range(1, k + 1)]
            classes = {p: int(wins[p]) for p in points(wins > 0)}
            got = cluster_pixels(set(classes), 1, classes)
            assert [cl.members for cl in got] == want
            assert [cl.class_histogram.counts for cl in got] == [
                dict(sorted(Counter(classes[p] for p in g).items())) for g in want]


def flood_fill_labels(points, d):
    """Cluster label of each point (row-major order), the clusters numbered by
    their first points, by a flood fill over each point's (2d + 1)^2
    neighbourhood, or over all points when they are fewer, in exact Python
    ints."""
    at = {p: i for i, p in enumerate(points)}
    labels = [-1] * len(points)
    k = 0
    for i, p in enumerate(points):
        if labels[i] >= 0:
            continue
        labels[i], stack = k, [p]
        while stack:
            r, c = stack.pop()
            near = ((r + dr, c + dc) for dr in range(-d, d + 1) for dc in range(-d, d + 1))
            if (2 * d + 1) ** 2 > len(points):
                near = (q for q in points if max(abs(q[0] - r), abs(q[1] - c)) <= d)
            for q in near:
                j = at.get(q)
                if j is not None and labels[j] < 0:
                    labels[j] = k
                    stack.append(q)
        k += 1
    return labels, k


def placed(steps, where):
    """Coordinates with the given gaps, around 0, from -2**63 up, down to
    2**63 - 1, or both: the first half from the bottom and the rest from the
    top, so their gap wraps int64."""
    up = np.cumsum([0, *steps]).tolist()
    low, high = [-2**63 + v for v in up], [2**63 - 1 - up[-1] + v for v in up]
    half = len(up) // 2
    return {"origin": [v - up[half] for v in up], "low": low, "high": high,
            "both": low[:half] + high[half:]}[where]


@st.composite
def component_cases(draw):
    """(row-major points, d): a random mask on an h x w grid whose row and
    column lines lie 1 to d + 2 apart, placed near 0 or near either end of
    int64."""
    d = draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = placed(rng.integers(1, d + 3, size=h - 1).tolist(),
                  draw(st.sampled_from(["origin", "low", "high", "both"])))
    cols = placed(rng.integers(1, d + 3, size=w - 1).tolist(),
                  draw(st.sampled_from(["origin", "low", "high", "both"])))
    return [(rows[i], cols[j]) for i, j in zip(*np.nonzero(rng.random((h, w)) < density))], d


SPREAD_ROWS = [(r, (r * 37) % 101) for r in range(0, 3001, 100)]
SPREAD_COLS = [(r, c) for r in range(0, 3000, 300) for c in (-2**62, 0, 2**50, 2**51 + 1)]
WIDE_CHAIN = [(-2**63, -2**63), (-2**63, -2**62), (-2**62, 0), (0, 2**62), (2**62, 2**63 - 1),
              (2**63 - 1, -2**63)]
LONG_OVER_SHORT = [(0, c) for c in range(20)] + [(1, 0), (1, 3), (1, 6), (2, 9), (2, 10),
                                                 (3, 14), (3, 22), (4, 30)]


@settings(max_examples=300, deadline=None)
@given(component_cases())
@example(([(0, 0), (0, 3), (0, 6), (1, 1), (1, 4), (2, 8)], 1))  # single-point runs
@example(([(0, 0), (0, 3), (0, 6), (1, 1), (1, 4), (2, 8)], 2))
@example(([(0, 0), (1, 1), (2, 2), (2, 5), (3, 4), (5, 0), (6, 2)], 1))  # diagonal touches only
@example((LONG_OVER_SHORT, 1))  # one long run over several short runs in the next rows
@example((LONG_OVER_SHORT, 3))
@example(([(-2**63, -2**63), (-2**63, 2**63 - 1), (-2**63 + 1, -2**63 + 1),
           (2**63 - 2, 0), (2**63 - 1, -2**63), (2**63 - 1, 2**63 - 1)], 1))  # wrapping gaps
@example(([(0, -2**63), (0, 2**63 - 1), (5, 0)], 5))
@example(([(r, c) for r in (0, 1, 3) for c in (0, 1, 2, 5, 6, 7)]
          + [(4, 2), (4, 3), (4, 4), (4, 5)], 1))  # runs sharing start and end columns
@example(([(r, c) for r in (-2**63, -2**63 + 2, 2**63 - 1)
           for c in (-2**63, -2**63 + 1, 0, 2**63 - 2, 2**63 - 1)], 2))  # the same, near ±2**63
@example((SPREAD_ROWS, 2**50))  # distances past the span: one cluster
@example((SPREAD_ROWS, 2**62))
@example((SPREAD_ROWS, 2**70))
@example((SPREAD_COLS, 2**50))  # past the row span, short of the column span: three
@example((SPREAD_COLS, 2**62 - 1))  # two
@example((SPREAD_COLS, 2**62))  # one
@example((SPREAD_COLS, 2**70))
@example((WIDE_CHAIN, 2**62))  # a chain of 2**62 steps across int64, then a break
@example((WIDE_CHAIN, 2**62 - 1))  # every point alone
@example((WIDE_CHAIN, 2**63))  # only the last break, a column gap of 2**64 - 1, holds
@example((WIDE_CHAIN, 2**70))
def test_components_match_flood_fill(case):
    """_components' labels and count equal a flood fill's, clusters numbered
    by their first points."""
    points, d = case
    rows, cols = np.array(points, np.int64).reshape(-1, 2).T
    labels, k = _components(rows, cols, d)
    assert (labels.tolist(), k) == flood_fill_labels(points, d)


class TestRecognizeClusters:
    def level2(self):
        m = CategoricalModel(10, 2, grow=True)
        m.train_step({1, 2, 3})   # object class 1
        m.train_step({5, 6})      # object class 2
        return m

    def test_exact_match(self):
        classes = {(0, c): 1 + c % 3 for c in range(9)}
        clusters = cluster_pixels(set(classes), 1, classes)
        got = recognize_clusters(self.level2(), clusters, threshold=2)
        assert got == (1, 3)

    def test_all_rejected(self):
        classes = {(0, 0): 9, (0, 1): 9}
        clusters = cluster_pixels(set(classes), 1, classes)
        assert recognize_clusters(self.level2(), clusters, threshold=1) is None

    def test_majority_object_wins(self):
        # two clusters vote class 1, one cluster votes class 2
        classes = {}
        for c in range(6):
            classes[(0, c)] = 1 + c % 3      # cluster A -> {1,2,3}
        for c in range(6):
            classes[(10, c)] = 1 + c % 3     # cluster B -> {1,2,3}
        for c in range(4):
            classes[(20, c)] = 5 + c % 2     # cluster C -> {5,6}
        clusters = cluster_pixels(set(classes), 1, classes)
        winner, activity = recognize_clusters(self.level2(), clusters, threshold=2)
        assert winner == 1 and activity == 6

    def test_cluster_without_histogram_rejected(self):
        clusters = cluster_pixels({(0, 0)}, 1, {(0, 0): 1}) + cluster_pixels({(5, 5)}, 1)
        with pytest.raises(ValidationError, match="no class histogram"):
            recognize_clusters(self.level2(), clusters, threshold=2)

    def test_activity_tie_goes_to_smaller_object_id(self):
        # object 2's cluster comes first; both objects gather activity 2
        clusters = [PixelCluster([(r, 0)], (r, 0, r, 0), ClassHistogram.from_counts(counts))
                    for r, counts in enumerate(({5: 2, 6: 2}, {1: 3, 2: 2}))]
        got = recognize_clusters(self.level2(), clusters, threshold=2)
        assert got == (1, 2) and all(type(v) is int for v in got)


def recognition_oracle(level2, stored, hists, threshold):
    """recognize_clusters as a loop over the clusters: each histogram's
    meta-pattern is checked as ``CategoricalModel.classify`` checks it, and
    scored by the set-overlap oracle against the stored sets."""
    K, grow = level2.K, level2.grow
    activities = Counter()
    for votes in hists:
        meta = frozenset(c for c, v in enumerate(votes) if v >= threshold)
        if not meta:
            continue
        if min(meta) < 1:
            raise ValidationError(f"category index {min(meta)} must be >= 1")
        if max(meta) > K and not grow:
            raise ValidationError(f"category index {max(meta)} outside [1, {K}]")
        overlap = overlap_counts(stored, meta)
        best = max(overlap.values(), default=0)
        if best >= level2.recognition_threshold:
            activities[min(n for n, c in overlap.items() if c == best)] += best
    if not activities:
        return None
    top = max(activities.values())
    return min(n for n, a in activities.items() if a == top), top


@st.composite
def recognition_case(draw):
    """(grow, K, recognition threshold, level-2 sets, cluster histograms, meta
    threshold). The sets lie in [1, K]; a histogram of any length may hold
    votes at index 0 or past K."""
    grow, K = draw(st.booleans()), draw(st.integers(1, 6))
    stored = draw(st.lists(st.frozensets(st.integers(1, K), min_size=1, max_size=4), max_size=4))
    hist = st.lists(st.integers(0, 3), min_size=1, max_size=K + 3)
    hists = draw(st.lists(hist, max_size=5))
    return grow, K, draw(st.integers(1, 3)), stored, hists, draw(st.integers(1, 3))


def outcome(call):
    """What call returns, or the message of the ValidationError it raises."""
    try:
        return call()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestBatchRecognitionOracle:
    @given(recognition_case())
    @example((False, 3, 1, [{1, 2}], [], 1))  # no cluster
    @example((False, 3, 1, [{1, 2}], [[0, 1, 1], [0, 0, 0, 1]], 2))  # empty meta-patterns
    @example((False, 4, 1, [{1, 2}, {3, 4}], [[0, 2], [0, 0, 0, 2, 2, 0]], 1))  # lengths differ
    @example((False, 3, 1, [{1, 2}, {2, 3}, {1, 2}], [[0, 1, 1, 1]], 1))  # level-2 tie
    @example((False, 4, 1, [{3, 4}, {1, 2}], [[0, 0, 0, 1, 1], [0, 1, 1]], 1))  # activity tie
    @example((True, 3, 1, [], [[0, 1, 2, 3]], 1))  # level-2 N = 0
    @example((False, 3, 1, [{1}], [[0, 1], [1, 0, 1]], 1))  # votes at index 0
    @example((False, 3, 1, [{1}], [[0, 0, 1], [0, 1, 0, 0, 0, 1]], 1))  # above K
    @example((False, 3, 1, [{1}], [[0, 0, 0, 0, 1], [1, 1]], 1))  # the first bad row raises
    @example((True, 3, 1, [{1}], [[0, 1, 0, 0, 0, 1]], 1))  # past K in grow mode holds no class
    def test_matches_per_cluster_loop(self, case):
        """recognize_clusters and detect_objects' ``_recognize`` (a vote matrix
        as wide as level 1's class range) against the per-cluster loop,
        results and error messages alike."""
        grow, K, votes_needed, stored, hists, threshold = case
        level2 = CategoricalModel(K, votes_needed, grow=grow)
        for p in stored:
            level2.insert_class(p)
        want = outcome(lambda: recognition_oracle(level2, stored, hists, threshold))
        clusters = [PixelCluster([(r, 0)], (r, 0, r, 0), ClassHistogram(np.array(votes)))
                    for r, votes in enumerate(hists)]
        assert outcome(lambda: recognize_clusters(level2, clusters, threshold)) == want
        votes = np.zeros((len(hists), K + 4), np.int64)
        for row, h in zip(votes, hists):
            row[:len(h)] = h
        got = outcome(lambda: vision._recognize(level2, votes, threshold))
        assert got == want and (got is None or type(got) is str or all(type(v) is int for v in got))
        assert (level2.K, level2.N, level2.stored) == (K, len(stored), stored)


class TestSegmentation:
    def trained(self):
        m = Model(3, 256, 0)
        table = LabelTable()
        n = m.insert_class((0, 0, 200))
        table.attach(n, "water")
        n = m.insert_class((0, 200, 0))
        table.attach(n, "vegetation")
        return m, table

    def test_exact_pixel_label(self):
        m, table = self.trained()
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[0, 0] = (0, 0, 200)
        frame[1, 1] = (0, 200, 0)
        out = segment_image(m, table, img(frame))
        assert out[0, 0] == "water" and out[1, 1] == "vegetation"
        assert out[0, 1] == UNLABELED

    def test_unknown_color_unlabeled_at_r0(self):
        m, table = self.trained()
        frame = np.full((3, 3, 3), 90, dtype=np.uint8)
        assert (segment_image(m, table, img(frame)) == UNLABELED).all()

    def test_radius_superset_property(self):
        rng = np.random.default_rng(107)
        m = Model(3, 64, 0)
        table = LabelTable()
        for i, row in enumerate(rng.integers(0, 64, size=(10, 3)), start=1):
            m.insert_class(row.tolist())
            table.attach(i, f"area{i % 3}")
        frame = img(rng.integers(0, 64, size=(15, 15, 3)))
        prev = None
        for radius in (0, 2, 5, 9):
            labeled = segment_image(m, table, frame, radius=radius) != UNLABELED
            if prev is not None:
                assert (prev <= labeled).all()
            prev = labeled

    @pytest.mark.parametrize("labels", ["all", "some", "past N"])
    @pytest.mark.parametrize("radius", [None, 0, 10])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_classify_per_pixel(self, channels, radius, labels):
        """Every pixel's label is that of classify's full match at the same
        radius, else unlabeled: also when the table names only some classes,
        so a matched class paints unlabeled, and when it names an id past N."""
        rng = np.random.default_rng(109)
        m = Model(channels, 32, 3)
        table = LabelTable()
        for i, row in enumerate(rng.integers(0, 32, size=(15, channels)), start=1):
            m.insert_class(row.tolist())
            if labels == "all" or i % 3:
                table.attach(i, f"L{i}")
        if labels == "past N":
            table.attach(m.N + 1, "past N")
        frame = img(rng.integers(0, 32, size=(8, 6, channels)))
        out = segment_image(m, table, frame, radius=radius)
        for r in range(8):
            for c in range(6):
                h = m.classify(tuple(int(v) for v in frame.pixels[r, c]), radius)
                expected = table.lookup(h.argmax) if h.max_count == m.K else UNLABELED
                assert out[r, c] == expected


class TestDetectPipeline:
    def test_end_to_end(self):
        rng = np.random.default_rng(113)
        palette = np.array([[10, 10, 10], [30, 30, 30], [50, 50, 50]], dtype=np.uint8)
        bg = palette[rng.integers(0, 3, size=(40, 40))]
        frame = bg.copy()
        frame[10:20, 10:20] = (220, 40, 40)
        frame[12:18, 12:18] = (40, 220, 40)
        background, object_frame = img(bg), img(frame)

        level1 = Model(3, 256, 10)
        mask = diff_mask(background, object_frame, 3, 12)
        train_pixels(level1, object_frame, mask)
        masked = build_class_mask(level1, background, 3)

        classes = select_pixel_classes(level1, object_frame, masked)
        clusters = cluster_pixels(set(classes), 1, classes)
        level2 = CategoricalModel(level1.N, 1, grow=True)
        biggest = max(clusters, key=lambda cl: len(cl.members))
        from invpat import histogram_to_metapattern
        level2.train_step(histogram_to_metapattern(biggest.class_histogram, 2))

        assert detect_objects(level1, level2, masked, background, 2, 1) is None
        hit = detect_objects(level1, level2, masked, object_frame, 2, 1)
        assert hit is not None and hit[0] == 1


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("radius", [0, 6])
def test_winners_match_row_unique(channels, radius):
    """An image's winners are those of its distinct colours (np.unique over
    rows) read back through the inverse, and both are the brute-force ones."""
    rng = np.random.default_rng(channels)
    px = rng.integers(0, 256, size=(24, 24, channels)).astype(np.uint8)
    px[:4] = 255
    m = Model(channels, 256, radius)
    for row in px.reshape(-1, channels)[::5]:
        m.insert_class(row.tolist())
    masked = frozenset({2, 5})
    uniq, inverse = np.unique(px.reshape(-1, channels), axis=0, return_inverse=True)
    check_winners(m, uniq, None, masked)
    want = np.array(brute_winners(m, uniq, radius, masked))[inverse.ravel()].tolist()
    at, ids = _sparse_winners(m, vision._colors(m, RasterImage(px)), None, masked)
    assert (at.tolist(), ids.tolist()) == sparse(want)


def detection_scene(seed, tones, size, outer, inner):
    """A three-tone background and the same frame with a two-colour square."""
    rng = np.random.default_rng(seed)
    palette = np.array([[t] * 3 for t in tones], dtype=np.uint8)
    bg = palette[rng.integers(0, 3, size=(size, size))]
    frame = bg.copy()
    frame[outer[0]:outer[1], outer[0]:outer[1]] = (220, 40, 40)
    frame[inner[0]:inner[1], inner[0]:inner[1]] = (40, 220, 40)
    return img(bg), img(frame)


CRITERION_10_SCENE = (10, (12, 32, 52), 96, (30, 60), (38, 52))
PIPELINE_SCENE = (113, (10, 30, 50), 40, (10, 20), (12, 18))  # TestDetectPipeline's


def spelled_out_detector(background, object_frame):
    """The training steps as acceptance criterion 10 and TestDetectPipeline
    write them (R=10, window 3, threshold 12, mask above 3 wins, d=1,
    meta-threshold 2, one vote)."""
    level1 = Model(3, 256, 10)
    train_pixels(level1, object_frame, diff_mask(background, object_frame, 3, 12))
    masked = build_class_mask(level1, background, 3)
    classes = select_pixel_classes(level1, object_frame, masked)
    clusters = cluster_pixels(set(classes), 1, classes)
    level2 = CategoricalModel(level1.N, 1, grow=True)
    biggest = max(clusters, key=lambda cl: len(cl.members))
    level2.train_step(histogram_to_metapattern(biggest.class_histogram, 2))
    return level1, level2, masked


def trained_detector(background, object_frame, meta_threshold):
    return train_detector(background, object_frame, radius=10, window=3, threshold=12,
                          freq_threshold=3, cluster_dist=1, meta_threshold=meta_threshold,
                          meta_votes=1)


class TestTrainDetector:
    @pytest.mark.parametrize("scene", [CRITERION_10_SCENE, PIPELINE_SCENE])
    def test_matches_spelled_out_recipe(self, scene):
        background, object_frame = detection_scene(*scene)
        want1, want2, want_masked = spelled_out_detector(background, object_frame)
        level1, level2, masked = trained_detector(background, object_frame, 2)
        assert level1.prototypes == want1.prototypes and level1.R == 10
        assert masked == want_masked
        assert level2.stored == want2.stored and level2.N == 1
        assert (level2.K, level2.recognition_threshold) == (want2.K, 1)
        for frame in (background, object_frame):
            assert (detect_objects(level1, level2, masked, frame, 2, 1)
                    == detect_objects(want1, want2, want_masked, frame, 2, 1))

    def test_scene_without_object(self):
        background, _ = detection_scene(*PIPELINE_SCENE)
        level1, level2, masked = trained_detector(background, background, 2)
        assert (level1.N, level2.N, masked) == (0, 0, set())
        assert detect_objects(level1, level2, masked, background, 2, 1) is None

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, 0])
    def test_non_integer_meta_threshold_and_distance_rejected(self, bad):
        """Both are checked before any training, and at detection also on a
        frame with no cluster."""
        background, object_frame = detection_scene(*PIPELINE_SCENE)
        for kwargs in ({"meta_threshold": bad}, {"cluster_dist": bad}):
            with pytest.raises(ConfigError, match="integer"):
                train_detector(background, object_frame, **{
                    "radius": 10, "window": 3, "threshold": 12, "freq_threshold": 3,
                    "cluster_dist": 1, "meta_threshold": 2, "meta_votes": 1, **kwargs})
        level1, level2, masked = trained_detector(background, object_frame, 2)
        for frame in (background, object_frame):
            with pytest.raises(ConfigError, match="threshold must be an integer"):
                detect_objects(level1, level2, masked, frame, bad, 1)
            with pytest.raises(ConfigError, match="cluster distance"):
                detect_objects(level1, level2, masked, frame, 2, bad)

    def test_frame_without_matched_pixel(self):
        """A frame where no pixel matches gives no cluster and no object, and
        both parameters are still checked on it."""
        background, object_frame = detection_scene(*PIPELINE_SCENE)
        level1, level2, masked = trained_detector(background, object_frame, 2)
        at, ids = _sparse_winners(level1, background.pixels.reshape(-1, 3), masked=masked)
        assert at.size == ids.size == 0 and level1.N > 0
        assert _cluster_votes(level1, background, masked, 1).shape == (0, level1.N + 1)
        with pytest.raises(ConfigError, match="cluster distance"):
            detect_objects(level1, level2, masked, background, 2, 0)
        with pytest.raises(ConfigError, match="threshold must be an integer"):
            detect_objects(level1, level2, masked, background, 0, 1)
        assert detect_objects(level1, level2, masked, background, 2, 1) is None

    @pytest.mark.parametrize("key, bad", [("window", 3.0), ("window", True), ("threshold", "x"),
                                          ("threshold", 1.5), ("freq_threshold", None),
                                          ("freq_threshold", 1.5), ("meta_votes", 0),
                                          ("meta_votes", 2.0), ("radius", 256)])
    def test_every_setting_checked_before_the_difference_image(self, key, bad, monkeypatch):
        """A bad setting raises ConfigError before diff_mask or any training
        runs: a float window once reached np.pad, and a bad meta_votes was
        found only after level 1 had trained."""
        calls = []
        monkeypatch.setattr(vision, "diff_mask", lambda *args: calls.append(args))
        monkeypatch.setattr(vision, "train_pixels", lambda *args: calls.append(args))
        background, object_frame = detection_scene(*PIPELINE_SCENE)
        with pytest.raises(ConfigError):
            train_detector(background, object_frame, **{
                "radius": 10, "window": 3, "threshold": 12, "freq_threshold": 3,
                "cluster_dist": 1, "meta_threshold": 2, "meta_votes": 1, key: bad})
        assert calls == []

    def test_empty_meta_pattern_leaves_level2_untrained(self):
        background, object_frame = detection_scene(*PIPELINE_SCENE)
        level1, level2, _ = trained_detector(background, object_frame, 10**6)
        assert level1.N > 0 and level2.N == 0


def spelled_out_detect(level1, level2, masked, frame, meta_threshold, d):
    """detect_objects as select, cluster and recognize written one by one."""
    classes = select_pixel_classes(level1, frame, masked)
    return recognize_clusters(level2, cluster_pixels(set(classes), d, classes), meta_threshold)


def query_frames(background, object_frame, seed):
    """The scene's two frames, the object moved, the object rolled round the
    frame edges into pieces, two copies of it, and sample noise over the
    object frame."""
    rng = np.random.default_rng(seed)
    bg, obj = background.pixels, object_frame.pixels
    moved = np.roll(obj, (7, -5), axis=(0, 1))
    two = np.where((obj != bg).any(axis=2, keepdims=True), obj, moved)
    noisy = np.clip(obj.astype(int) + rng.integers(-12, 13, size=obj.shape), 0, 255)
    return [background, object_frame, img(moved), img(np.roll(obj, (-20, 25), axis=(0, 1))),
            img(two), img(noisy)]


@pytest.mark.parametrize("scene", [CRITERION_10_SCENE, PIPELINE_SCENE])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_detect_objects_matches_spelled_out_composition(scene, d):
    background, object_frame = detection_scene(*scene)
    level1, level2, masked = train_detector(
        background, object_frame, radius=10, window=3, threshold=12, freq_threshold=3,
        cluster_dist=d, meta_threshold=2, meta_votes=1)
    hits = 0
    for frame in query_frames(background, object_frame, scene[0]):
        for meta_threshold in (1, 2, 5):
            got = detect_objects(level1, level2, masked, frame, meta_threshold, d)
            assert got == spelled_out_detect(level1, level2, masked, frame, meta_threshold, d)
            hits += got is not None
    assert hits  # the comparison covers recognised frames, not only empty ones


def two_object_scene():
    """A background with two objects of equal area and different colours; the
    top-left one is the first cluster in cluster order."""
    background, _ = detection_scene(*PIPELINE_SCENE)
    frame = background.pixels.copy()
    frame[24:30, 26:34] = (220, 40, 40)
    frame[4:10, 4:12] = (40, 40, 220)
    return background, img(frame)


@pytest.mark.parametrize("scene", [CRITERION_10_SCENE, PIPELINE_SCENE, "two objects"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_train_detector_matches_spelled_out_composition(scene, d):
    """Level 2 learns the meta-pattern of the largest cluster, the first one on
    ties, as select_pixel_classes + cluster_pixels would pick it."""
    background, object_frame = (two_object_scene() if scene == "two objects"
                                else detection_scene(*scene))
    level1, level2, masked = train_detector(
        background, object_frame, radius=10, window=3, threshold=12, freq_threshold=3,
        cluster_dist=d, meta_threshold=2, meta_votes=1)
    classes = select_pixel_classes(level1, object_frame, masked)
    clusters = cluster_pixels(set(classes), d, classes)
    biggest = max(clusters, key=lambda cl: len(cl.members))
    assert level2.stored == [histogram_to_metapattern(biggest.class_histogram, 2)]
    if scene == "two objects":
        sizes = sorted(len(cl.members) for cl in clusters)
        assert sizes[-1] == sizes[-2] and biggest is clusters[0]


def brute_winners(model, colors, radius, masked):
    """Smallest unmasked class within Chebyshev distance radius, by a scan."""
    return [min((n for n, p in enumerate(model.prototypes, start=1) if n not in masked
                 and max(abs(int(a) - b) for a, b in zip(color, p)) <= radius), default=0)
            for color in colors]


def sparse(winners):
    """Per-row winners (0 = none) as ``_sparse_winners`` lists them: the rows
    with a winner, ascending, and their winners."""
    return [i for i, n in enumerate(winners) if n], [n for n in winners if n]


def check_winners(model, colors, radius, masked):
    """``_sparse_winners`` against the brute-force winners; returns its
    (at, ids) as lists."""
    want = brute_winners(model, colors, model.R if radius is None else radius, masked or ())
    at, ids = _sparse_winners(model, colors, radius, masked)
    assert (at.tolist(), ids.tolist()) == sparse(want)
    return at.tolist(), ids.tolist()


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("radius", [0, 3, 255])
@pytest.mark.parametrize("masking", ["none", "some", "all"])
@pytest.mark.parametrize("classes, x_range", [(0, 256), (25, 256), (25, 70000)])
def test_winners_oracle(channels, radius, masking, classes, x_range):
    """The inverse-pattern tables give the brute-force winners, also for no
    classes, no colours and prototype values past the 8-bit sample range."""
    rng = np.random.default_rng(channels * 1000 + radius)
    m = Model(channels, x_range, 0)
    for row in rng.integers(0, 256, size=(classes, channels)):
        m.insert_class(row.tolist())
    if classes and x_range > 256:
        m.insert_class([32768] * channels)
        m.insert_class([x_range - 1] + [0] * (channels - 1))
    masked = {"none": set(), "some": set(range(1, m.N + 1, 3)),
              "all": set(range(1, m.N + 1))}[masking]
    colors = rng.integers(0, 256, size=(60, channels)).astype(np.uint8)
    colors[:10] = np.clip(m.prototypes[:10], 0, 255) if m.N else 0
    check_winners(m, colors, radius, masked)
    at, ids = _sparse_winners(m, colors[:0], radius, masked)
    assert at.shape == ids.shape == (0,)


def word_edge_model(classes, channels):
    """Class n sits at sample value 4·(n mod 64) + c in channel c, so the
    classes n, n + 64 and n + 128 share a colour and each colour's matches
    lie one word apart: 63 and 127 end words 0 and 1, 64 and 128 start
    words 1 and 2."""
    m = Model(channels, 256, 1)
    for n in range(1, classes + 1):
        m.insert_class([4 * (n % 64) + c for c in range(channels)])
    colors = np.array(m.prototypes, np.int64)
    near = colors.copy()
    near[:, -1] += 1  # still within R=1
    far = colors.copy()
    far[:, 0] += 2  # out of reach in one channel only
    return m, np.concatenate([colors, near, far, [[255] * channels]]).astype(np.uint8)


EDGES = {63, 64, 127, 128}


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("classes", [63, 64, 65, 127, 128, 129])
def test_winners_word_edges(channels, classes):
    """Winners on the first and last bit of a word, masked ids at word edges
    and everything masked all give the brute-force winners."""
    m, colors = word_edge_model(classes, channels)
    ids = set(range(1, classes + 1))
    seen = set()
    for masked in (set(), {63, 64}, ids - EDGES, ids):
        seen.update(check_winners(m, colors, None, masked)[1])
        none_at, none_ids = _sparse_winners(m, colors[:0], None, masked)
        assert none_at.shape == none_ids.shape == (0,)
    assert ids & EDGES <= seen  # each edge bit present wins somewhere


def check_runs(nonempty, runs):
    """Each channel's run is (first, last - first) as uint8 when its non-empty
    rows rise once, else None, and ``_live`` over all 256 sample values gives
    back its non-empty rows: no value below the run and none in a hole
    passes."""
    values = np.arange(256, dtype=np.uint8)
    for row, run in zip(nonempty, runs):
        live = np.flatnonzero(row)
        if np.count_nonzero(np.diff(row.astype(np.int8), prepend=0) == 1) == 1:
            assert [type(v) for v in run] == [np.uint8] * 2
            assert (int(run[0]), int(run[1])) == (live[0], live[-1] - live[0])
        else:
            assert run is None
        assert np.array_equal(vision._live(row, run, values), row)


def sparse_case(channels, radius, x_range, dead, narrow, classes, masking, seed):
    """A model at R=0 with prototypes spread over [0, 256), channel ``narrow``
    crowded into a band of 8 values, channel ``dead`` (if any) past the reach
    of every 8-bit sample at ``radius``, and some values past 255 when X
    allows; the masked set; and colours near the prototypes, then random."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, 256, size=(classes, channels))
    protos[:, narrow] = rng.integers(0, 248) + rng.integers(0, 8, size=classes)
    if x_range > 256:
        past = rng.random(protos.shape) < 0.2
        protos[past] = rng.integers(256, x_range, size=past.sum())
    if dead is not None:
        protos[:, dead] = rng.integers(256 + radius, x_range, size=classes)
    m = Model(channels, x_range, 0)
    m.insert_classes(protos)
    masked = {"none": set(), "some": set(rng.permutation(classes)[:classes // 2] + 1),
              "all": set(range(1, classes + 1))}[masking]
    colors = rng.integers(0, 256, size=(2 * classes + 10, channels))
    colors[:classes] = np.clip(protos + rng.integers(-radius - 1, radius + 2, size=protos.shape),
                               0, 255)
    return m, masked, colors.astype(np.uint8)


@st.composite
def sparse_cases(draw):
    channels = draw(st.integers(1, 3))
    radius = draw(st.integers(0, 255))
    dead = draw(st.none() | st.integers(0, channels - 1))
    x_range = 70000 if dead is not None else draw(st.sampled_from([256, 70000]))
    return (channels, radius, x_range, dead, draw(st.integers(0, channels - 1)),
            draw(st.integers(0, 70)), draw(st.sampled_from(["none", "some", "all"])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(sparse_cases())
@example((3, 2, 256, None, 2, 40, "none", 1))  # the narrow channel 2 goes first
@example((3, 4, 70000, 1, 0, 40, "some", 2))  # channel 1 has no non-empty row
@example((2, 0, 256, None, 1, 70, "some", 3))  # two words of classes
@example((1, 255, 256, None, 0, 0, "none", 4))  # no classes
@example((3, 255, 256, None, 1, 5, "some", 5))  # every channel full: no channel is tested
@example((2, 3, 256, None, 0, 30, "all", 6))  # every class masked: none survives channel 0
@example((3, 0, 256, None, 2, 2, "none", 0))  # survivors per channel 1, 0, 0: stops after two
@example((3, 0, 256, None, 2, 5, "none", 0))  # channels 2, 0, 1 keep 4, 2, 0: the last empties
@example((3, 130, 256, None, 0, 3, "none", 10))  # every channel full, yet one row's AND is empty
@example((2, 20, 256, None, 0, 3, "none", 0))  # channel 0 first, one run from value 0
@example((3, 20, 256, None, 0, 1, "none", 1))  # channel 0 first, one run up to 255
@example((1, 0, 256, None, 0, 1, "none", 1))  # a run of one value (span 0)
@example((3, 0, 256, None, 0, 40, "none", 0))  # samples below the first channel's run wrap
@example((3, 0, 256, None, 1, 10, "none", 0))  # channel 1 first, two runs, samples in the hole
@example((3, 20, 256, None, 1, 40, "none", 0))  # a one-run second channel drops some survivors
def test_sparse_winners_oracle(case):
    """(at, ids) lists, ascending, the rows with a brute-force winner and
    those winners, whichever channel the intersection starts with, also for
    no colours. The channel order leaves out the channels with all 256 rows
    non-empty, and each channel's test keeps exactly its non-empty sample
    values."""
    m, masked, colors = sparse_case(*case)
    radius = case[1]
    want = np.array(brute_winners(m, colors, radius, masked), np.int64)
    for rows in (colors, colors[:0]):
        at, ids = _sparse_winners(m, rows, radius, masked)
        assert at.tolist() == np.flatnonzero(want[:len(rows)]).tolist()
        assert ids.tolist() == want[at].tolist()
    _, nonempty, order, runs = _inverse_patterns(m, radius, masked)
    check_runs(nonempty, runs)
    counts = nonempty.sum(axis=1)
    assert counts[order].tolist() == sorted(n for n in counts.tolist() if n < 256)
    if case[3] is not None:
        assert counts[case[3]] == 0 == counts[order[0]]
    if case[1:3] == (255, 256) and case[5] and case[6] != "all":  # some live class at R=255
        assert order == []


def histogram_rows(clusters, width):
    """The clusters' class histograms as the rows of one (k, width) array."""
    rows = np.zeros((len(clusters), width), np.int64)
    for row, cl in zip(rows, clusters):
        row[:len(cl.class_histogram.votes)] = cl.class_histogram.votes
    return rows


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cluster_votes_match_cluster_pixels(d):
    """Each row of _cluster_votes is the class histogram of the cluster at
    that place in cluster_pixels(select_pixel_classes(...)) order."""
    background, object_frame = detection_scene(*CRITERION_10_SCENE)
    level1, _, masked = train_detector(
        background, object_frame, radius=10, window=3, threshold=12, freq_threshold=3,
        cluster_dist=d, meta_threshold=2, meta_votes=1)
    for frame in query_frames(background, object_frame, CRITERION_10_SCENE[0]):
        classes = select_pixel_classes(level1, frame, masked)
        want = histogram_rows(cluster_pixels(set(classes), d, classes), level1.N + 1)
        assert np.array_equal(_cluster_votes(level1, frame, masked, d), want)


def nonempty_oracle(model, radius, masked):
    """Per channel and sample value, whether some unmasked class lies within
    radius, by a scan over the prototypes."""
    protos = [p for n, p in enumerate(model.prototypes, start=1) if n not in masked]
    return np.array([[any(abs(v - p[c]) <= radius for p in protos) for v in range(256)]
                     for c in range(model.K)], bool).reshape(model.K, 256)


def oracle_check(model, colors, radius, masked):
    """The winners, the slot's non-empty rows and its channel order against
    scans of the prototypes."""
    r = model.R if radius is None else radius
    check_winners(model, colors, radius, masked)
    _, nonempty, order, runs = model._tables[1]
    assert np.array_equal(nonempty, nonempty_oracle(model, r, masked or ()))
    check_runs(nonempty, runs)
    counts = nonempty.sum(axis=1).tolist()
    assert order == sorted((c for c in range(model.K) if counts[c] < 256),
                           key=counts.__getitem__)


class TestInversePatternCache:
    def setup_method(self):
        rng = np.random.default_rng(41)
        self.model = Model(3, 256, 8)
        for row in rng.integers(0, 256, size=(150, 3)).tolist():
            self.model.insert_class(row)
        self.colors = rng.integers(0, 256, size=(300, 3)).astype(np.uint8)
        self.colors[:40] = self.model.prototypes[:40]
        self.masks = (frozenset(range(1, 151, 2)), frozenset({1, 64, 65, 128}))

    def test_insert_after_a_call(self):
        oracle_check(self.model, self.colors, None, self.masks[0])
        self.model.insert_class(self.colors[100].tolist())  # colour 100 now matches a class
        oracle_check(self.model, self.colors, None, self.masks[0])
        assert check_winners(self.model, self.colors[100:101], None, set())[0] == [0]

    def test_other_mask_and_radius_override(self):
        oracle_check(self.model, self.colors, None, self.masks[0])
        oracle_check(self.model, self.colors, None, self.masks[1])
        oracle_check(self.model, self.colors, 0, self.masks[1])
        oracle_check(self.model, self.colors, 30, self.masks[1])
        oracle_check(self.model, self.colors, None, None)

    def test_alternating_masks(self):
        for i in range(6):
            oracle_check(self.model, self.colors, None, self.masks[i % 2])

    def test_concurrent_readers_alternating_masks(self):
        frame = img(self.colors.reshape(15, 20, 3))
        want = []
        for masked in self.masks:
            winners = brute_winners(self.model, self.colors, 8, masked)
            classes = {divmod(i, 20): n for i, n in enumerate(winners) if n}
            clusters = cluster_pixels(set(classes), 2, classes)
            want.append((sparse(winners), histogram_rows(clusters, self.model.N + 1).tolist()))

        def kernel_winners(model, masked):
            at, ids = _sparse_winners(model, self.colors, None, masked)
            return at.tolist(), ids.tolist()

        def reader(model, start, results, i):
            start.wait()
            results[i] = [(kernel_winners(model, masked),
                           _cluster_votes(model, frame, masked, 2).tolist())
                          for masked in (self.masks[(i + j) % 2] for j in range(6))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):  # every round races four readers on an empty slot
                fresh = Model(3, 256, 8)
                for row in self.model.prototypes:
                    fresh.insert_class(row)
                start, results = threading.Barrier(4), [None] * 4
                threads = [threading.Thread(target=reader, args=(fresh, start, results, i))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for i, got in enumerate(results):
                    assert got == [want[(i + j) % 2] for j in range(6)]
        finally:
            sys.setswitchinterval(interval)

    def test_tables_stay_out_of_model_files(self, tmp_path):
        save_model(self.model, tmp_path / "before.ipat")
        check_winners(self.model, self.colors, None, self.masks[0])
        assert self.model._tables is not None
        save_model(self.model, tmp_path / "a.ipat")
        save_model(load_model(tmp_path / "a.ipat"), tmp_path / "b.ipat")
        files = [(tmp_path / name).read_bytes() for name in ("before.ipat", "a.ipat", "b.ipat")]
        assert files[0] == files[1] == files[2]


@pytest.mark.parametrize("freq_threshold", [0, 3, 40])
def test_build_class_mask_matches_counter_scan(freq_threshold):
    background, object_frame = detection_scene(*CRITERION_10_SCENE)
    level1 = Model(3, 256, 10)
    train_pixels(level1, object_frame, diff_mask(background, object_frame, 3, 12))
    pixels = background.pixels.reshape(-1, 3)
    uniq, inverse = np.unique(pixels, axis=0, return_inverse=True)
    winners = np.array(brute_winners(level1, uniq, 10, set()))[inverse.ravel()]
    wins = Counter(n for n in winners.tolist() if n)
    want = {n for n, count in wins.items() if count > freq_threshold}
    got = build_class_mask(level1, background, freq_threshold)
    assert got == want and all(type(n) is int for n in got)
    assert type(got) is set

class TestImageChecks:
    @pytest.mark.parametrize("samples", [np.full((2, 2, 3), 0.5), np.full((2, 2), 2.7),
                                         np.full((1, 1), np.nan), np.ones((2, 2), bool),
                                         [[1, 2.5]], np.full((2, 2), 256), np.full((2, 2), -1),
                                         [[True, 2]], [[[True, 2, 3]]],
                                         [[[1, 2, 3], [4, 5, np.True_]]],
                                         [[1, 2], [3]], [[[1, 2, 3]], [[4, 5]]]])  # ragged
    def test_non_integer_or_out_of_range_samples_rejected(self, samples):
        """Floats were truncated (0.5 -> 0, 2.7 -> 2) and NaN cast with a warning;
        a bool in a nested list was read as 1."""
        with pytest.raises(ValidationError, match="image samples"):
            RasterImage(samples)

    @pytest.mark.parametrize("samples", [np.zeros((0, 4, 3), np.int64), np.zeros((3, 0)),
                                         np.zeros((0, 0, 1), np.uint16)])
    def test_empty_samples(self, samples):
        """An empty array once raised numpy's zero-size reduction error."""
        px = RasterImage(samples).pixels
        shape = samples.shape if samples.ndim == 3 else samples.shape + (1,)
        assert px.dtype == np.uint8 and px.shape == shape

    def test_two_channels_rejected(self):
        with pytest.raises(ValidationError, match=r"expected \(h, w, 1\|3\) samples"):
            RasterImage(np.zeros((2, 2, 2), np.uint8))

    def test_integer_samples_kept(self):
        samples = np.array([[[0, 128, 255]]], np.int64)
        px = RasterImage(samples).pixels
        assert px.dtype == np.uint8 and px.tolist() == samples.tolist()
        assert RasterImage([[3, 4]]).pixels.tolist() == [[[3], [4]]]
        assert RasterImage([[[0, 1, 2]]]).pixels.tolist() == [[[0, 1, 2]]]
        assert RasterImage(np.array([[1, 0]], np.uint8)).pixels.tolist() == [[[1], [0]]]

    @pytest.mark.parametrize("model_k, image_channels", [(1, 3), (3, 1)])
    def test_channel_mismatch_rejected(self, model_k, image_channels):
        m = Model(model_k, 256, 0)
        m.insert_class([5] * model_k)
        table = LabelTable()
        table.attach(1, "a")
        frame = img(np.full((3, 3, image_channels), 5))
        for call in (lambda: segment_image(m, table, frame),
                     lambda: build_class_mask(m, frame, 0),
                     lambda: select_pixel_classes(m, frame, set())):
            with pytest.raises(ValidationError, match="channels"):
                call()

    @pytest.mark.parametrize("radius", [-1, True, 2.5])
    def test_bad_radius_rejected(self, radius):
        m = Model(3, 256, 0)
        m.insert_class((5, 5, 5))
        frame = img(np.full((3, 3, 3), 5))
        with pytest.raises(ValidationError, match="radius"):
            segment_image(m, LabelTable(), frame, radius=radius)
        with pytest.raises(ValidationError, match="radius"):
            m.classify((5, 5, 5), radius=radius)
