"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 6 needs the NASA turbofan dataset and is skipped unless
INVPAT_DATA_DIR points at a directory containing train_FD001.txt.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from invpat import (
    CategoricalModel,
    FormatError,
    LabelTable,
    Model,
    RasterImage,
    UNLABELED,
    build_class_mask,
    build_param_index,
    cluster_pixels,
    detect_objects,
    diff_mask,
    histogram_to_metapattern,
    load_model,
    predict_histogram,
    predict_value,
    save_model,
    segment_image,
    select_pixel_classes,
    train_pixels,
)
from invpat.bench import run_bench


def ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def test_criterion_1_toy_case():
    """Two-feature toy pattern lands in the class linked to both features."""
    m = CategoricalModel(2, 2)
    b, g = 1, 2
    m.stored = [frozenset({g}), frozenset({g}), frozenset({b, g}), frozenset({b})]
    assert m.postings == {b: [3, 4], g: [1, 2, 3]}
    m.classify({b, g})  # warm-up
    t0 = time.perf_counter()
    h = m.classify({b, g})
    elapsed = time.perf_counter() - t0
    assert h.argmax == 3 and h.counts[3] == 2 and h.counts[4] == 1
    assert elapsed < 1e-3
    ok(1, f"toy query -> class 3 (count 2), class 4 count 1, {elapsed * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence():
    """1000 seeded instances: classify == brute force, fast path agrees."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        x_range = int(rng.integers(2, 65))
        r = int(rng.integers(0, min(9, x_range)))
        n = int(rng.integers(1, 201))
        m = Model(k, x_range, r)
        protos = rng.integers(0, x_range, size=(n, k))
        for row in protos:
            m.insert_class(row.tolist())
        q = rng.integers(0, x_range, size=k).tolist()
        h = m.classify(q)
        expected = {}
        for cid, proto in enumerate(protos, start=1):
            c = int((np.abs(np.asarray(q) - proto) <= r).sum())
            if c:
                expected[cid] = c
        assert h.counts == expected
        fast = m.classify_exact_fast(q)
        assert fast == (h.argmax if h.max_count == k else None)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(2, f"1000 instances, exact histograms and fast-path agreement, {elapsed:.1f}s")


def test_criterion_3_partition_invariants():
    """Index partition properties hold after every one of 10^4 insertions."""
    rng = np.random.default_rng(3)
    k_dim, x_range = 4, 32
    m = Model(k_dim, x_range, 3)

    def full_scan():
        views = m.postings  # every dimension's view, read once per scan
        for k in range(k_dim):
            seen = set()
            total = 0
            for ids in views[k].values():
                total += len(ids)
                for n in ids:
                    assert n not in seen
                    seen.add(n)
            assert total == m.N and seen == set(range(1, m.N + 1))

    for i, row in enumerate(rng.integers(0, x_range, size=(10_000, k_dim)), start=1):
        new_id = m.insert_class(row.tolist())
        views = m.postings  # every dimension's view, read once per insert
        for k in range(k_dim):
            lists = views[k].values()
            # mass: per dimension the posting lists hold exactly N entries
            assert sum(len(ids) for ids in lists) == m.N
            # the fresh id landed in exactly one list of this dimension;
            # with the empty-start induction this implies disjointness
            holders = sum(1 for ids in lists if ids[-1] == new_id)
            assert holders == 1
        if i % 1000 == 0:
            full_scan()
    full_scan()
    ok(3, "partition mass and disjointness held across 10^4 insertions")


def test_criterion_4_training_idempotence():
    rng = np.random.default_rng(4)
    m = Model(3, 64, 4)
    for row in rng.integers(0, 64, size=(1000, 3)):
        v = row.tolist()
        m.train_step(v)
        assert m.classify(v).max_count == m.K
        _, created = m.train_step(v)
        assert created is False
    ok(4, "1000 vectors: retrain creates nothing, classify reaches K votes")


def test_criterion_5_prediction_exactness():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        x_range = int(rng.integers(2, 33))
        n = int(rng.integers(1, 501))
        rows = [(tuple(int(v) for v in rng.integers(0, x_range, size=k)),
                 int(rng.integers(0, 60))) for _ in range(n)]
        idx = build_param_index(rows, X=x_range)
        q = tuple(int(v) for v in rng.integers(0, x_range, size=k))
        expected = {}
        for vec, t in rows:
            for kk in range(k):
                if vec[kk] == q[kk]:
                    expected[t] = expected.get(t, 0) + 1
        assert predict_histogram(idx, q).counts == expected
    ok(5, "200 instances: histogram equals brute-force row scan exactly")


def _cmapss_dir():
    root = os.environ.get("INVPAT_DATA_DIR")
    if root and (Path(root) / "train_FD001.txt").exists():
        return Path(root)
    return None


@pytest.mark.skipif(_cmapss_dir() is None,
                    reason="NASA turbofan dataset not present (set INVPAT_DATA_DIR)")
def test_criterion_6_cmapss_timing():
    """Full-file training/prediction inside the wall-time budget."""
    root = _cmapss_dir()
    raw = np.loadtxt(root / "train_FD001.txt")
    units, cycles, feats = raw[:, 0].astype(int), raw[:, 1], raw[:, 2:]
    # per-flight target: cycles remaining until that unit's last flight
    last = {u: cycles[units == u].max() for u in np.unique(units)}
    rul = np.array([last[u] for u in units]) - cycles
    lo, hi = feats.min(axis=0), feats.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    x_range = 256
    train_vecs = np.clip(((feats - lo) / span * x_range).astype(int), 0, x_range - 1)

    t0 = time.perf_counter()
    idx = build_param_index(
        [(tuple(v), int(t)) for v, t in zip(train_vecs.tolist(), rul)], X=x_range)
    train_s = time.perf_counter() - t0

    test_raw = np.loadtxt(root / "test_FD001.txt")
    t_units = test_raw[:, 0].astype(int)
    t_vecs = np.clip(((test_raw[:, 2:] - lo) / span * x_range).astype(int),
                     0, x_range - 1)
    t0 = time.perf_counter()
    preds = []
    for v in t_vecs.tolist():
        preds.append(predict_value(idx, tuple(v)))
    predict_s = time.perf_counter() - t0

    # every test engine gets a defined PRUL from its final flight
    prul = {}
    for u in np.unique(t_units):
        prul[int(u)] = preds[int(np.where(t_units == u)[0][-1])]
    assert len(prul) == len(np.unique(t_units))

    actual = np.loadtxt(root / "RUL_FD001.txt")
    errors = np.array([prul[u] - actual[u - 1] for u in sorted(prul)])
    print(f"PRUL-RUL error distribution: mean={errors.mean():.1f} "
          f"median={np.median(errors):.1f} p10={np.percentile(errors, 10):.1f} "
          f"p90={np.percentile(errors, 90):.1f}")
    assert train_s <= 5.0 and predict_s <= 8.0
    ok(6, f"train {train_s:.2f}s <= 5s, predict {predict_s:.2f}s <= 8s, "
          f"{len(prul)} engines predicted")


def _three_region_image(rng, size=512, sigma=8.0):
    bases = np.array([[40, 60, 200], [200, 50, 50], [60, 180, 60]])
    third = size // 3 + 1
    region = np.repeat(np.arange(3), third)[:size]
    truth = np.tile(region, (size, 1))  # region id per pixel, by column band
    base_img = bases[truth]
    noisy = np.clip(np.rint(base_img + rng.normal(0, sigma, size=base_img.shape)),
                    0, 255).astype(np.uint8)
    return RasterImage(noisy), truth


def test_criterion_7_synthetic_segmentation():
    rng = np.random.default_rng(7)
    img, truth = _three_region_image(rng)
    size = 512
    names = ["water", "buildings", "vegetation"]
    subareas = [(236, 60), (236, 230), (236, 400)]  # (row, col) corners, 40x40

    def train(model):
        table = LabelTable()
        for region, (r0, c0) in enumerate(subareas):
            before = model.N
            for r in range(r0, r0 + 40):
                for c in range(c0, c0 + 40):
                    model.train_step(tuple(int(v) for v in img.pixels[r, c]))
            for n in range(before + 1, model.N + 1):
                table.attach(n, names[region])
        return table

    t0 = time.perf_counter()
    wide = Model(3, 256, round(0.10 * 256))
    table = train(wide)
    assert wide.N <= 50
    labels = segment_image(wide, table, img)
    expected = np.array(names, dtype=object)[truth]
    frac_correct = (labels == expected).mean()
    assert frac_correct >= 0.95

    narrow = Model(3, 256, 0)
    table0 = train(narrow)
    labels0 = segment_image(narrow, table0, img)
    outside = np.ones((size, size), dtype=bool)
    for r0, c0 in subareas:
        outside[r0:r0 + 40, c0:c0 + 40] = False
    frac_labeled0 = (labels0[outside] != UNLABELED).mean()
    assert frac_labeled0 <= 0.50
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(7, f"R=26: {frac_correct:.1%} correct with N={wide.N}; "
          f"R=0: only {frac_labeled0:.1%} labeled outside; {elapsed:.1f}s")


def test_criterion_8_complexity_fit():
    report = run_bench([1_000, 10_000, 100_000], k=26, x=256, r=0, seed=8,
                       queries=30, repeats=5)
    assert report.r2 >= 0.9
    ok(8, f"latency vs K*h linear fit R^2 = {report.r2:.4f} "
          f"(touched counter verified exact on every warm-up query)")


def test_criterion_9_persistence(tmp_path):
    rng = np.random.default_rng(9)
    m = Model(5, 64, 3)
    for row in rng.integers(0, 64, size=(300, 5)):
        m.train_step(row.tolist())
    p1, p2 = tmp_path / "a.ipat", tmp_path / "b.ipat"
    save_model(m, p1)
    save_model(m, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_model(p1)
    for row in rng.integers(0, 64, size=(1000, 5)):
        q = row.tolist()
        assert back.classify(q).counts == m.classify(q).counts
    blob = bytearray(p1.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    p1.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(p1)
    ok(9, "behavioral round trip, byte-deterministic save, corruption detected")


def test_criterion_10_detection_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    palette = np.array([[12, 12, 12], [32, 32, 32], [52, 52, 52]], dtype=np.uint8)
    bg = palette[rng.integers(0, 3, size=(96, 96))]
    frame = bg.copy()
    frame[30:60, 30:60] = (220, 40, 40)
    frame[38:52, 38:52] = (40, 220, 40)
    background, object_frame = RasterImage(bg), RasterImage(frame)

    level1 = Model(3, 256, 10)
    mask = diff_mask(background, object_frame, 3, 12)
    train_pixels(level1, object_frame, mask)
    masked = build_class_mask(level1, background, 3)

    classes = select_pixel_classes(level1, object_frame, masked)
    clusters = cluster_pixels(set(classes), 1, classes)
    level2 = CategoricalModel(level1.N, 1, grow=True)
    biggest = max(clusters, key=lambda cl: len(cl.members))
    obj_class, created = level2.train_step(
        histogram_to_metapattern(biggest.class_histogram, 2))
    assert created

    assert detect_objects(level1, level2, masked, background, 2, 1) is None
    hit = detect_objects(level1, level2, masked, object_frame, 2, 1)
    assert hit is not None and hit[0] == obj_class
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(10, f"background frame -> no object; object frame -> class "
           f"{obj_class} (activity {hit[1]}); {elapsed:.1f}s")
