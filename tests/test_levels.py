"""Level stacking, label tables and signature histogram comparison."""

from collections import Counter

import numpy as np
import pytest

from invpat import (
    CategoricalModel,
    ClassHistogram,
    ConfigError,
    InvpatError,
    LabelTable,
    Level,
    LevelError,
    LevelStack,
    Model,
    UNLABELED,
    ValidationError,
    histogram_to_metapattern,
    load_model,
    save_model,
    signature_common,
)


def hist(counts):
    return ClassHistogram.from_counts(counts)


class TestClassHistogram:
    def test_zero_count_is_empty(self):
        h = hist({3: 0})
        assert not h and h.max_count == 0 and h.argmax is None and h.counts == {}

    def test_zero_counts_are_dropped(self):
        h = hist({3: 0, 5: 2, 7: 2})
        assert h.counts == {5: 2, 7: 2} and h.argmax == 5 and h.max_count == 2

    def test_class_id_below_one_rejected(self):
        with pytest.raises(ValidationError):
            hist({0: 1})
        with pytest.raises(ValidationError):
            hist({-2: 1, 3: 1})

    @pytest.mark.parametrize("counts", [{1: 2.5}, {1: -3}, {True: 2}, {1.5: 2}, {np.True_: 2},
                                        {2: True}, {"1": 2}, {1: None}, {1: 2**63}])
    def test_non_integer_id_or_negative_count_rejected(self, counts):
        """2.5 votes once became 2, -3 was stored, True raised numpy's IndexError
        and 1.5 a TypeError; a count past int64 raised OverflowError."""
        with pytest.raises(ValidationError):
            hist(counts)

    def test_numpy_integer_ids_and_counts_accepted(self):
        assert hist({np.int64(2): np.uint8(3), 4: 0}).counts == {2: 3}


class TestMetapattern:
    def test_toy_votes(self):
        assert histogram_to_metapattern(hist({3: 2, 4: 1}), 2) == {3}

    def test_empty(self):
        assert histogram_to_metapattern(hist({}), 3) == frozenset()

    def test_filter_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            counts = {int(n): int(c) for n, c in
                      zip(rng.integers(1, 40, size=12), rng.integers(1, 9, size=12))}
            th = int(rng.integers(1, 9))
            expected = frozenset(n for n, c in counts.items() if c >= th)
            assert histogram_to_metapattern(hist(counts), th) == expected

    def test_threshold_monotone(self):
        rng = np.random.default_rng(59)
        counts = {int(n): int(c) for n, c in
                  zip(rng.integers(1, 40, size=15), rng.integers(1, 12, size=15))}
        prev = None
        for th in range(1, 14):
            cur = histogram_to_metapattern(hist(counts), th)
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            histogram_to_metapattern(hist({1: 1}), 0)

    @pytest.mark.parametrize("threshold", [1.5, 2.0, True, np.bool_(True), "2", None])
    def test_non_integer_threshold_rejected(self, threshold):
        """1.5 would act as 2 and True as 1."""
        with pytest.raises(ConfigError, match="integer"):
            histogram_to_metapattern(hist({1: 1, 2: 2}), threshold)


class TestLabelTable:
    def test_attach_lookup(self):
        t = LabelTable()
        t.attach(5, "water")
        assert t.lookup(5) == "water"

    def test_unlabeled(self):
        assert LabelTable().lookup(6) == UNLABELED

    def test_last_attachment_wins(self):
        t = LabelTable()
        t.attach(5, "water")
        t.attach(5, "buildings")
        assert t.lookup(5) == "buildings"

    @pytest.mark.parametrize("inner", [1.5, 2.0, True, np.bool_(True), 0, -1, "2", None])
    def test_ids_must_be_integers_of_at_least_one(self, inner):
        with pytest.raises(ConfigError):
            LabelTable().attach(inner, "car")
        with pytest.raises(ConfigError):
            LabelTable({inner: "car"})

    def test_numpy_integer_ids_are_kept_as_ints(self, tmp_path):
        t = LabelTable({np.int64(2): "car"})
        t.attach(np.uint8(3), "bus")
        assert t.labels() == {2: "car", 3: "bus"}
        assert all(type(inner) is int for inner in t.labels())
        m = Model(2, 8, 0)
        m.insert_classes([[1, 1], [2, 2], [3, 3]])
        m.labels = t
        save_model(m, tmp_path / "m.ipat")
        assert load_model(tmp_path / "m.ipat").labels == t


class TestSignatureCommon:
    def test_identical(self):
        h = hist({1: 5, 2: 3, 3: 1})
        assert signature_common(h, h, 3, 3) == 2

    def test_disjoint_supports(self):
        assert signature_common(hist({1: 5}), hist({2: 5}), 1, 1) == 0

    def test_set_oracle_and_symmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            c1 = {int(n): int(c) for n, c in
                  zip(rng.integers(1, 30, size=10), rng.integers(1, 10, size=10))}
            c2 = {int(n): int(c) for n, c in
                  zip(rng.integers(1, 30, size=10), rng.integers(1, 10, size=10))}
            th1, th2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            s1 = {n for n, c in c1.items() if c >= th1}
            s2 = {n for n, c in c2.items() if c >= th2}
            got = signature_common(hist(c1), hist(c2), th1, th2)
            assert got == len(s1 & s2)
            assert got == signature_common(hist(c2), hist(c1), th2, th1)


def run_oracle(stack, inputs, train):
    """LevelStack.run spelled out: level-1 winners in a Counter, upper levels
    voting by set overlap with their stored meta-patterns."""
    first = stack.levels[0].model
    winners = Counter()
    for item in inputs:
        if train:
            winners[first.train_step(item)[0]] += 1
            continue
        h = first.classify(item)
        need = first.K if isinstance(first, Model) else first.recognition_threshold
        if h.max_count >= need:
            winners[h.argmax] += 1
    counts = dict(winners)
    for below, lvl in zip(stack.levels, stack.levels[1:]):
        meta = frozenset(n for n, c in counts.items() if c >= below.threshold)
        if train:
            lvl.model.train_step(meta)
        counts = {n: len(s & meta) for n, s in enumerate(lvl.model.stored, start=1) if s & meta}
    return counts


def random_stack(rng, numeric):
    first = Model(2, 6, 1) if numeric else CategoricalModel(6, 2, grow=True)
    levels = [Level(first, threshold=int(rng.integers(1, 3)))]
    for _ in range(int(rng.integers(0, 3))):
        levels.append(Level(CategoricalModel(1, int(rng.integers(1, 3)), grow=True),
                            threshold=int(rng.integers(1, 3))))
    return LevelStack(levels)


def random_inputs(rng, numeric):
    count = int(rng.integers(1, 12))
    if numeric:
        return [tuple(int(v) for v in row) for row in rng.integers(0, 6, size=(count, 2))]
    return [frozenset(int(v) + 1 for v in rng.choice(6, size=int(rng.integers(1, 4)), replace=False))
            for _ in range(count)]


def outcome(fn):
    try:
        return fn()
    except InvpatError:
        return "error"


@pytest.mark.parametrize("numeric", [True, False])
def test_run_matches_counter_oracle(numeric):
    for seed in range(40):
        got, want = random_stack(np.random.default_rng(seed), numeric), random_stack(
            np.random.default_rng(seed), numeric)
        rng = np.random.default_rng(1000 + seed)
        for train in (True, True, False, False):
            inputs = random_inputs(rng, numeric)
            out = outcome(lambda: got.run(inputs, train=train))
            expected = outcome(lambda: run_oracle(want, inputs, train))
            if expected == "error":
                assert out == "error"
                break
            best = max(expected.values(), default=0)
            assert out.counts == expected and out.max_count == best
            assert out.argmax == min((n for n, c in expected.items() if c == best), default=None)
            for a, b in zip(got.levels, want.levels):
                assert a.model.postings == b.model.postings


class TestStack:
    def test_needs_one_level(self):
        with pytest.raises(ConfigError):
            LevelStack([])

    def test_upper_levels_must_be_categorical(self):
        with pytest.raises(ConfigError):
            LevelStack([Level(Model(2, 8, 0)), Level(Model(2, 8, 0))])

    @pytest.mark.parametrize("threshold", [1.5, 2.0, True, 0, -1, "2", None])
    def test_threshold_must_be_an_integer_of_at_least_one(self, threshold):
        with pytest.raises(ConfigError, match="level 1 threshold"):
            LevelStack([Level(Model(2, 8, 0), threshold=threshold)])
        with pytest.raises(ConfigError, match="level 2 threshold"):
            LevelStack([Level(Model(2, 8, 0)), Level(CategoricalModel(1, 1), threshold=threshold)])

    def test_bad_level_one_input_is_a_level_error(self):
        stack = LevelStack([Level(Model(2, 8, 0)), Level(CategoricalModel(1, 1, grow=True))])
        for train in (False, True):
            with pytest.raises(LevelError) as err:
                stack.run([(1, 1), (1.5, 2)], train=train)
            assert err.value.level == 1 and isinstance(err.value.cause, ValidationError)

    def test_numpy_integer_threshold_accepted(self):
        stack = LevelStack([Level(Model(2, 8, 0), threshold=np.int64(1)),
                            Level(CategoricalModel(1, 1, grow=True))])
        assert stack.run([(1, 1)], train=True).counts == {1: 1}

    def test_one_level_equals_bare_model(self):
        rng = np.random.default_rng(67)
        inputs = [tuple(int(v) for v in row) for row in rng.integers(0, 8, size=(30, 2))]
        bare = Model(2, 8, 1)
        stacked = LevelStack([Level(Model(2, 8, 1))])
        out = stacked.run(inputs, train=True)
        expected = {}
        for v in inputs:
            n, _ = bare.train_step(v)
            expected[n] = expected.get(n, 0) + 1
        assert out.counts == expected
        assert stacked.levels[0].model.postings == bare.postings

    def test_classify_mode_counts_only_recognized(self):
        m = Model(2, 8, 0)
        m.insert_class((1, 1))
        stack = LevelStack([Level(m)])
        out = stack.run([(1, 1), (2, 2), (1, 1)], train=False)
        assert out.counts == {1: 2}

    def test_classify_mode_never_mutates(self):
        m = Model(2, 8, 0)
        m.insert_class((1, 1))
        stack = LevelStack([Level(m)])
        stack.run([(3, 3), (4, 4)], train=False)
        assert m.N == 1

    def test_two_level_class_creation(self):
        def fresh():
            return LevelStack([
                Level(Model(2, 16, 0), threshold=2),
                Level(CategoricalModel(1, 1, grow=True)),
            ])

        stack = fresh()
        seq_a = [(1, 1)] * 3 + [(2, 2)] * 3
        seq_b = [(9, 9)] * 3 + [(10, 10)] * 3
        stack.run(seq_a, train=True)
        stack.run(seq_b, train=True)
        # disjoint level-1 winner sets -> two distinct level-2 classes
        assert stack.levels[1].model.N == 2

    def test_two_level_recognition_roundtrip(self):
        stack = LevelStack([
            Level(Model(2, 16, 1), threshold=2),
            Level(CategoricalModel(1, 1, grow=True)),
        ])
        seq = [(4, 4)] * 4 + [(8, 8)] * 4
        stack.run(seq, train=True)
        out = stack.run(seq, train=False)
        assert out.argmax == 1
