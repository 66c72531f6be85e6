"""Core index tests: construction, voting, instant training, fast path."""

import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from invpat import (
    CategoricalModel,
    ClassHistogram,
    ConfigError,
    LabelTable,
    Level,
    LevelStack,
    Model,
    ParamIndex,
    RasterImage,
    ValidationError,
    build_class_mask,
    build_param_index,
    cluster_pixels,
    detect_objects,
    diff_mask,
    histogram_to_metapattern,
    load_model,
    predict_value,
    recognize_clusters,
    save_model,
    train_detector,
)
from invpat.index import _MAX_CATEGORY, _int_table
from invpat.vision import _cluster_votes, _components


def brute_force_counts(model, x, radius=None):
    """Per-class vote count via a direct scan of all prototypes."""
    r = model.R if radius is None else radius
    counts = {}
    for n, proto in enumerate(model.prototypes, start=1):
        c = sum(1 for k in range(model.K) if abs(x[k] - proto[k]) <= r)
        if c:
            counts[n] = c
    return counts


def check_partition(model):
    """Both per-dimension index properties, by direct scan."""
    for k in range(model.K):
        total = 0
        seen = set()
        for v, ids in model.postings[k].items():
            assert ids == sorted(ids)
            total += len(ids)
            for n in ids:
                assert n not in seen, f"class {n} in two lists of dimension {k}"
                seen.add(n)
        assert total == model.N
        assert seen == set(range(1, model.N + 1))


class TestConstruction:
    def test_empty_model(self):
        m = Model(3, 256, 0)
        assert m.N == 0 and m.K == 3
        assert m.postings == [{}, {}, {}]
        with pytest.raises(ValidationError):
            m.avg_height()

    def test_engine_sized_model(self):
        m = Model(26, 256, 25)
        assert (m.K, m.X, m.R) == (26, 256, 25)

    @pytest.mark.parametrize("k,x,r", [(3, 256, 256), (0, 256, 0), (3, 1, 0), (3, 256, -1),
                                       (2.0, 16, 0), (True, 16, 0), (2, 16.9, 0), (2, 16.0, 0),
                                       (2, 16, 1.5), (2, 16, True), (2, 16, "1")])
    def test_bad_config(self, k, x, r):
        with pytest.raises(ConfigError):
            Model(k, x, r)

    def test_unaddressable_x_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"X=4611686018427387904 is too large.* bytes"):
            Model(2, 2**62, 0)

    def test_unallocatable_offsets_are_a_config_error(self, monkeypatch):
        """numpy's MemoryError for the K * (X + 1) offsets becomes a ConfigError naming
        X and the bytes needed (the real allocation is not attempted here)."""
        def bincount(*args, **kwargs):
            raise MemoryError("Unable to allocate")
        monkeypatch.setattr(np, "bincount", bincount)
        need = 8 * (3 * (10**6 + 1) + 1)
        with pytest.raises(ConfigError, match=rf"X={10**6} is too large.* {need} bytes"):
            Model(3, 10**6, 0)


class TestInsert:
    def test_first_insertion(self):
        m = Model(2, 10, 0)
        assert m.insert_class((5, 7)) == 1
        assert m.postings[0][5] == [1]
        assert m.postings[1][7] == [1]

    def test_shared_value(self):
        m = Model(2, 10, 0)
        m.insert_class((5, 7))
        assert m.insert_class((5, 2)) == 2
        assert m.postings[0][5] == [1, 2]

    def test_partition_after_random_inserts(self):
        rng = np.random.default_rng(7)
        m = Model(4, 16, 2)
        for row in rng.integers(0, 16, size=(100, 4)):
            m.insert_class(row.tolist())
        check_partition(m)

    def test_rejects_bad_vectors(self):
        m = Model(2, 10, 0)
        with pytest.raises(ValidationError):
            m.insert_class((5,))
        with pytest.raises(ValidationError):
            m.insert_class((5, 10))
        with pytest.raises(ValidationError):
            m.insert_class((-1, 5))


class TestClassify:
    def test_self_match(self):
        m = Model(2, 10, 0)
        m.insert_class((5, 5))
        h = m.classify((5, 5))
        assert h.counts == {1: 2} and h.max_count == 2 and h.argmax == 1

    def test_within_radius(self):
        m = Model(2, 10, 1)
        m.insert_class((5, 5))
        h = m.classify((6, 4))
        assert h.counts == {1: 2} and h.max_count == 2

    def test_empty_model(self):
        m = Model(2, 10, 0)
        h = m.classify((5, 5))
        assert h.counts == {} and h.max_count == 0 and h.argmax is None

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = int(rng.integers(1, 9))
            x_range = int(rng.integers(2, 65))
            r = int(rng.integers(0, min(9, x_range)))
            n = int(rng.integers(1, 201))
            m = Model(k, x_range, r)
            for row in rng.integers(0, x_range, size=(n, k)):
                m.insert_class(row.tolist())
            q = rng.integers(0, x_range, size=k).tolist()
            assert m.classify(q).counts == brute_force_counts(m, q)

    def test_max_bound_and_full_match(self):
        rng = np.random.default_rng(3)
        m = Model(3, 32, 2)
        for row in rng.integers(0, 32, size=(50, 3)):
            m.insert_class(row.tolist())
        for row in rng.integers(0, 32, size=(100, 3)):
            q = row.tolist()
            h = m.classify(q)
            assert h.max_count <= m.K
            within = min(max(abs(q[k] - p[k]) for k in range(3)) for p in m.prototypes)
            assert (h.max_count == m.K) == (within <= m.R)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(5)
        m = Model(3, 32, 0)
        for row in rng.integers(0, 32, size=(40, 3)):
            m.insert_class(row.tolist())
        queries = [row.tolist() for row in rng.integers(0, 32, size=(100, 3))]
        prev = set()
        for r in range(0, 6):
            full = {i for i, q in enumerate(queries) if m.classify(q, radius=r).max_count == m.K}
            assert prev <= full
            prev = full

    def test_determinism(self):
        rows = np.random.default_rng(9).integers(0, 16, size=(50, 3)).tolist()
        a, b = Model(3, 16, 1), Model(3, 16, 1)
        for row in rows:
            a.insert_class(row)
            b.insert_class(row)
        assert a.postings == b.postings
        q = rows[10]
        assert a.classify(q).argmax == b.classify(q).argmax


class TestTrain:
    def test_first_pattern(self):
        m = Model(2, 10, 0)
        assert m.train_step((3, 3)) == (1, True)

    def test_idempotence(self):
        m = Model(2, 10, 0)
        m.train_step((3, 3))
        assert m.train_step((3, 3)) == (1, False)

    def test_distinct_count_oracle(self):
        rng = np.random.default_rng(13)
        m = Model(2, 16, 0)
        stream = [tuple(row) for row in rng.integers(0, 16, size=(1000, 2)).tolist()]
        for v in stream:
            m.train_step(v)
        assert m.N == len(set(stream))

    def test_retrain_always_full_match(self):
        rng = np.random.default_rng(17)
        m = Model(3, 32, 3)
        for row in rng.integers(0, 32, size=(200, 3)):
            v = row.tolist()
            m.train_step(v)
            assert m.classify(v).max_count == m.K
            assert m.train_step(v)[1] is False


class TestExactFast:
    def test_trivial_agreement(self):
        m = Model(2, 10, 0)
        m.insert_class((5, 5))
        assert m.classify_exact_fast((5, 5)) == 1
        assert m.classify_exact_fast((5, 6)) is None

    def test_equivalence_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            x_range = int(rng.integers(4, 33))
            r = int(rng.integers(0, 4))
            m = Model(k, x_range, r)
            for row in rng.integers(0, x_range, size=(int(rng.integers(1, 120)), k)):
                m.insert_class(row.tolist())
            for row in rng.integers(0, x_range, size=(50, k)):
                q = row.tolist()
                h = m.classify(q)
                expected = h.argmax if h.max_count == m.K else None
                assert m.classify_exact_fast(q) == expected


class TestInstrumentation:
    def test_single_class_height(self):
        m = Model(2, 10, 0)
        m.insert_class((5, 7))
        assert m.avg_height() == 1.0

    def test_hand_counted_height(self):
        m = Model(2, 10, 0)
        m.insert_class((5, 7))
        m.insert_class((5, 2))
        assert m.avg_height() == pytest.approx(4 / 3)

    def test_perfect_spread(self):
        m = Model(2, 16, 0)
        for i in range(10):
            m.insert_class((i, 15 - i))
        assert m.avg_height() == 1.0

    def test_empty_model_height(self):
        with pytest.raises(ValidationError):
            Model(2, 10, 0).avg_height()

    def test_touched_mass_examples(self):
        m = Model(2, 10, 0)
        m.insert_class((5, 5))
        assert m.touched_mass((5, 5)) == 2
        assert m.touched_mass((0, 0)) == 0

    def test_touched_mass_matches_counter(self):
        rng = np.random.default_rng(29)
        m = Model(4, 32, 3)
        for row in rng.integers(0, 32, size=(150, 4)):
            m.insert_class(row.tolist())
        for row in rng.integers(0, 32, size=(50, 4)):
            q = row.tolist()
            _, touched = m.classify_counted(q)
            assert touched == m.touched_mass(q)


class TestCategorical:
    def toy_model(self):
        # four classes linked as: b -> {3, 4}, g -> {1, 2, 3}
        m = CategoricalModel(2, 2)
        b, g = 1, 2
        m.stored = [frozenset({g}), frozenset({g}), frozenset({b, g}), frozenset({b})]
        assert m.postings == {b: [3, 4], g: [1, 2, 3]}
        return m, b, g

    def test_toy_voting(self):
        m, b, g = self.toy_model()
        h = m.classify({b, g})
        assert h.counts == {3: 2, 4: 1, 1: 1, 2: 1}
        assert h.argmax == 3

    def test_empty_pattern(self):
        m, _, _ = self.toy_model()
        h = m.classify(frozenset())
        assert h.counts == {} and h.max_count == 0

    def test_intersection_oracle(self):
        rng = np.random.default_rng(31)
        m = CategoricalModel(30, 3)
        stored = []
        for _ in range(40):
            size = int(rng.integers(1, 8))
            p = frozenset(int(v) for v in rng.choice(30, size=size, replace=False) + 1)
            m.train_step(p)
            stored = m.stored
        for _ in range(50):
            size = int(rng.integers(0, 10))
            q = frozenset(int(v) for v in rng.choice(30, size=size, replace=False) + 1)
            h = m.classify(q)
            expected = {n: len(s & q) for n, s in enumerate(stored, start=1) if s & q}
            assert h.counts == expected

    def test_train_threshold(self):
        m = CategoricalModel(10, 2)
        assert m.train_step({1, 4, 9}) == (1, True)
        assert m.train_step({1, 4}) == (1, False)     # two shared categories
        assert m.train_step({9}) == (2, True)         # one shared vote < 2

    def test_empty_creation_rejected(self):
        m = CategoricalModel(10, 2)
        with pytest.raises(ValidationError):
            m.train_step(frozenset())

    def test_category_out_of_range(self):
        m = CategoricalModel(5, 1)
        with pytest.raises(ValidationError):
            m.classify({6})
        with pytest.raises(ValidationError):
            m.classify({0})

    def test_rejected_input_leaves_model_unchanged(self):
        m = CategoricalModel(3, 1, grow=True)
        with pytest.raises(ValidationError):
            m.train_step([7, -1])
        with pytest.raises(ValidationError):
            m.insert_class([7, 0])
        assert (m.K, m.N, m.postings, m.stored) == (3, 0, {}, [])

    def test_insert_class_matches_train_step(self):
        # a threshold above every overlap makes each training step create a class
        trained, inserted = CategoricalModel(4, 5, grow=True), CategoricalModel(4, 5, grow=True)
        for p in ({1, 2}, {2, 9}, {3}):
            assert trained.train_step(p) == (inserted.insert_class(p), True)
        assert (trained.K, trained.postings, trained.stored) == (
            inserted.K, inserted.postings, inserted.stored)
        assert inserted.K == 9


INT_TYPES = (int, np.int64, np.uint8, np.int16)


@st.composite
def categorical_case(draw):
    """(grow, K, threshold, training patterns, queries); in grow mode the
    categories run past K, and queries may name categories no class holds.
    Each category is a Python int or a numpy integer."""
    grow = draw(st.booleans())
    K = draw(st.integers(1, 8))
    category = st.builds(lambda k, kind: kind(k), st.integers(1, 12 if grow else K),
                         st.sampled_from(INT_TYPES))
    patterns = draw(st.lists(st.frozensets(category, min_size=1, max_size=5), max_size=12))
    queries = draw(st.lists(st.frozensets(category, max_size=6), min_size=1, max_size=5))
    return grow, K, draw(st.integers(1, 3)), patterns, queries


def overlap_counts(stored, q):
    """class id -> |stored set ∩ q| of every class sharing a category with q."""
    return {n: len(s & q) for n, s in enumerate(stored, start=1) if s & q}


class TestCategoricalOracle:
    @given(categorical_case())
    def test_classify_matches_set_overlap_scan(self, case):
        """classify and train_step against a count over the stored sets: a
        training step recognizes the smallest class of the best overlap when it
        reaches the threshold, else appends its pattern."""
        grow, K, threshold, patterns, queries = case
        m = CategoricalModel(K, threshold, grow=grow)
        stored = []
        for p in patterns:
            overlap = overlap_counts(stored, p)
            best = max(overlap.values(), default=0)
            if best >= threshold:
                want = min(n for n, c in overlap.items() if c == best), False
            else:
                want = len(stored) + 1, True
                stored.append(frozenset(map(int, p)))
            assert m.train_step(p) == want
        assert m.stored == stored and m.N == len(stored)
        assert m.K == max([K, *(int(k) for p in patterns for k in p)] if grow else [K])
        for q in queries:
            h = m.classify(q)
            overlap = overlap_counts(stored, q)
            best = max(overlap.values(), default=0)
            assert h.counts == overlap and h.max_count == best
            assert h.argmax == min((n for n, c in overlap.items() if c == best), default=None)
            assert all(type(v) is int for item in h.counts.items() for v in item)


@st.composite
def assigned_store(draw):
    """(K, category sets, queries): sets in [1, K], empty ones among them, as
    an assignment of ``stored`` may hold them."""
    K = draw(st.integers(1, 8))
    category = st.integers(1, K)
    stored = draw(st.lists(st.frozensets(category, max_size=4), max_size=8))
    return K, stored, draw(st.lists(st.frozensets(category, max_size=5), min_size=1, max_size=4))


def postings_of(stored):
    """category -> the ascending ids of the classes holding it."""
    out = {}
    for n, s in enumerate(stored, start=1):
        for k in s:
            out.setdefault(k, []).append(n)
    return out


class TestCategoricalStore:
    @given(assigned_store())
    @example((2, [frozenset(), frozenset({1}), frozenset()], [frozenset({1, 2})]))
    @example((3, [frozenset({1, 2}), frozenset(), frozenset({2, 3})], [frozenset({2})]))
    @example((3, [], [frozenset({2}), frozenset()]))
    def test_assigned_store_matches_set_overlap(self, case):
        """An assigned store classifies as the set-overlap oracle, a class with
        no category included (it scores 0), and keeps growing by
        ``insert_class``."""
        K, stored, queries = case
        m = CategoricalModel(K, 1)
        m.stored = stored
        assert (m.N, m.stored, m.postings) == (len(stored), stored, postings_of(stored))
        for q in queries:
            h = m.classify(q)
            assert h.counts == overlap_counts(stored, q) and len(h.votes) == len(stored) + 1
        assert m.insert_class({K}) == len(stored) + 1
        assert m.stored == [*stored, frozenset({K})]
        assert m.classify({K}).counts == overlap_counts(m.stored, {K})

    def test_assigned_repeats_count_once(self):
        """A category repeated in an assigned set is stored once, as
        ``insert_class`` stores it."""
        m = CategoricalModel(3, 1)
        m.stored = [[1, 1], [2], (3, 2, 3)]
        assert m.stored == [frozenset({1}), frozenset({2}), frozenset({2, 3})]
        assert m.classify({1}).counts == {1: 1}
        assert m.classify({2, 3}).counts == {2: 1, 3: 2}
        assert m.insert_class({1, 1}) == 4 and m.classify({1}).counts == {1: 1, 4: 1}

    def test_assigned_iterators_are_read_once(self):
        """A set given as an iterator is checked and stored, not used up by the check."""
        m = CategoricalModel(3, 1)
        m.stored = (iter(s) for s in ([1, 2], [3]))
        assert m.stored == [frozenset({1, 2}), frozenset({3})]

    @pytest.mark.parametrize("make", [list, iter, lambda v: (k for k in v)],
                             ids=["list", "iterator", "generator"])
    def test_one_shot_category_sets_are_read_once(self, make):
        """classify, insert_class and train_step read a category set once, so an
        iterator is not used up by the check before the model reads it."""
        m = CategoricalModel(10, 2)
        m.stored = [make([1, 2])]
        assert m.classify(make([1, 2])).counts == {1: 2}
        assert m.insert_class(make([3, 4])) == 2
        assert m.train_step(make([3, 5])) == (3, True)
        assert m.train_step(make([4, 3, 9])) == (2, False)
        assert m.stored == [frozenset({1, 2}), frozenset({3, 4}), frozenset({3, 5})]

    @pytest.mark.parametrize("name, value", [("N", 4), ("postings", {2: [1], 3: [1, 2]})],
                             ids=["N", "postings"])
    def test_n_and_postings_are_read_only(self, name, value):
        """Only ``stored`` is assignable: assigning N or ``postings`` raises and
        leaves the model as it was."""
        m = CategoricalModel(5, 1)
        m.insert_class({2, 3})
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        assert (m.K, m.N, m.postings, m.stored) == (5, 1, {2: [1], 3: [1]}, [frozenset({2, 3})])

    @pytest.mark.parametrize("assign", [
        pytest.param(lambda m: setattr(m, "stored", [{1}, {6}]), id="stored above K"),
        pytest.param(lambda m: setattr(m, "stored", [{0}]), id="stored zero"),
        pytest.param(lambda m: setattr(m, "stored", [{1}, {True}]), id="stored bool"),
        pytest.param(lambda m: setattr(m, "stored", [[2], [np.True_]]), id="stored numpy bool"),
        pytest.param(lambda m: setattr(m, "stored", [{2}, {1.5}]), id="stored float"),
        pytest.param(lambda m: setattr(m, "stored", [{"1"}]), id="stored str"),
        pytest.param(lambda m: setattr(m, "stored", [{2, -1}]), id="stored negative")])
    def test_rejected_assignment_leaves_model_unchanged(self, assign):
        m = CategoricalModel(5, 1)
        m.insert_class({2, 3})
        with pytest.raises(ValidationError):
            assign(m)
        assert (m.K, m.N, m.postings, m.stored) == (5, 1, {2: [1], 3: [1]}, [frozenset({2, 3})])

    @pytest.mark.parametrize("bad", [[{9}, {0}], [{9}, {2.5}]], ids=["zero", "float"])
    def test_rejected_assignment_keeps_k_in_grow_mode(self, bad):
        """Every set is checked before grow mode widens K to a wide category
        that stands before the bad one."""
        m = CategoricalModel(5, 1, grow=True)
        m.insert_class({2, 3})
        with pytest.raises(ValidationError, match="category index"):
            m.stored = bad
        assert (m.K, m.N, m.postings, m.stored) == (5, 1, {2: [1], 3: [1]}, [frozenset({2, 3})])


@st.composite
def sparse_store(draw):
    """(grow, K, category sets, queries) over categories spread up to the
    largest storable one, so a query's row may be far wider than the store."""
    grow = draw(st.booleans())
    K = draw(st.sampled_from([10**12, _MAX_CATEGORY]))
    category = st.one_of(st.integers(1, 6), st.integers(1, K))
    stored = draw(st.lists(st.frozensets(category, min_size=1, max_size=4), max_size=5))
    pool = sorted({k for s in stored for k in s}) or [1]
    query = st.frozensets(st.one_of(st.sampled_from(pool), category), max_size=5)
    return grow, K, stored, draw(st.lists(query, min_size=1, max_size=4))


class TestLargeCategories:
    """A call costs time and memory in the store and the query, not in K."""

    @given(sparse_store())
    @example((False, 10**12, [], [frozenset({5})]))
    @example((True, 10**12, [frozenset({1, 10**12})], [frozenset({10**12}), frozenset({1, 2})]))
    @example((False, _MAX_CATEGORY, [frozenset({_MAX_CATEGORY})], [frozenset({_MAX_CATEGORY, 3})]))
    def test_classify_matches_set_overlap(self, case):
        grow, K, stored, queries = case
        m = CategoricalModel(K, 1, grow=grow)
        for p in stored:
            m.insert_class(p)
        for q in queries:
            assert m.classify(q).counts == overlap_counts(stored, q)

    def test_classify_memory_is_not_in_k(self):
        import tracemalloc
        m = CategoricalModel(10**9, 1, grow=True)
        m.train_step({3, 10**9})
        tracemalloc.start()
        try:
            assert m.classify({5}).counts == {}
            assert m.classify({3, 10**9, 2**64}).counts == {1: 2}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("grow", [False, True])
    def test_numpy_category_at_its_type_max(self, grow):
        m = CategoricalModel(300, 1, grow=grow)
        m.insert_class({127, 255})
        assert m.classify({np.uint8(255), np.int8(127)}).counts == {1: 2}
        if grow:  # past K and past intp: no class holds it
            assert m.classify({np.uint64(2**64 - 1), np.uint8(255)}).counts == {1: 1}

    @pytest.mark.parametrize("assign", [
        pytest.param(lambda m: m.insert_class({2, 2**63}), id="insert_class"),
        pytest.param(lambda m: m.train_step({2**64}), id="train_step"),
        pytest.param(lambda m: setattr(m, "stored", [{1}, {2**63}]), id="stored")])
    def test_unstorable_category_leaves_model_unchanged(self, assign):
        """A category past intp is rejected before grow mode widens K."""
        m = CategoricalModel(5, 1, grow=True)
        m.insert_class({2, 3})
        with pytest.raises(ValidationError, match="categories a model can store"):
            assign(m)
        assert (m.K, m.N, m.postings, m.stored) == (5, 1, {2: [1], 3: [1]}, [frozenset({2, 3})])
        assert m.classify({2**63, 2}).counts == {1: 1}


# small categories, 0 (always rejected) and wide ones: a query holding a wide
# one is wider than 8 bytes per stored id, so classify marks it by np.isin
CATEGORY = st.one_of(st.integers(0, 6), st.sampled_from([40, 300, 10**6]))
CATEGORY_SET = st.frozensets(CATEGORY, max_size=4)


class CategoricalMachine(RuleBasedStateMachine):
    """Every step of a ``CategoricalModel`` against brute-force set overlap.
    The oracle is the list of stored sets and K; a step it calls invalid must
    raise ValidationError and leave the model as it was."""

    @initialize(K=st.sampled_from([3, 6, 10**6]), threshold=st.integers(1, 3), grow=st.booleans())
    def start(self, K, threshold, grow):
        self.model = CategoricalModel(K, threshold, grow=grow)
        self.K, self.threshold, self.grow, self.sets = K, threshold, grow, []

    def valid(self, cats) -> bool:
        """Whether a category set passes the model's check."""
        return min(cats, default=1) >= 1 and (self.grow or max(cats, default=0) <= self.K)

    def widen(self, cats):
        """The K training on a valid set leaves: grow mode widens it."""
        if self.grow:
            self.K = max([self.K, *cats])

    def overlaps(self, cats) -> list[int]:
        return [0] + [len(s & cats) for s in self.sets]

    @rule(cats=CATEGORY_SET)
    def insert_class(self, cats):
        if not (cats and self.valid(cats)):
            with pytest.raises(ValidationError):
                self.model.insert_class(cats)
            return
        assert self.model.insert_class(cats) == len(self.sets) + 1
        self.widen(cats)
        self.sets.append(cats)

    @rule(cats=CATEGORY_SET)
    def train_step(self, cats):
        votes = self.overlaps(cats)
        best = max(votes)
        if not self.valid(cats) or best < self.threshold and not cats:
            with pytest.raises(ValidationError):
                self.model.train_step(cats)
            return
        self.widen(cats)
        if best >= self.threshold:
            assert self.model.train_step(cats) == (votes.index(best), False)
        else:
            assert self.model.train_step(cats) == (len(self.sets) + 1, True)
            self.sets.append(cats)

    @rule(sets=st.lists(CATEGORY_SET, max_size=5))
    def assign_stored(self, sets):
        cats = frozenset().union(*sets)
        if not self.valid(cats):
            with pytest.raises(ValidationError):
                self.model.stored = sets
            return
        self.model.stored = sets
        self.widen(cats)
        self.sets = list(sets)

    @rule(cats=st.frozensets(CATEGORY, max_size=5))
    def classify(self, cats):
        if not self.valid(cats):
            with pytest.raises(ValidationError):
                self.model.classify(cats)
            return
        h = self.model.classify(cats)
        votes = self.overlaps(cats)
        assert h.votes.tolist() == votes
        best = max(votes)
        assert self.model.recognized(h) == (votes.index(best) if best >= self.threshold
                                            else None)

    @rule(data=st.data(), width=st.integers(1, 9), k=st.integers(0, 4))
    def overlaps_of_a_batch(self, data, width, k):
        """``_overlaps`` on a (k, width) boolean matrix, as ``_recognize`` scores
        a frame's meta-patterns: stored ids past the matrix mark nothing."""
        meta = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=width,
                                                    max_size=width), min_size=k, max_size=k)),
                        bool).reshape(k, width)
        rows = [frozenset(np.flatnonzero(row).tolist()) for row in meta]
        bad = [cats for cats in rows if not self.valid(cats)]
        if bad:  # the first bad row raises its own error
            first = 0 if 0 in bad[0] else max(bad[0])
            with pytest.raises(ValidationError, match=f"category index {first} "):
                self.model._overlaps(meta)
            return
        got = self.model._overlaps(meta)
        assert got.shape == (k, len(self.sets) + 1)
        assert got.tolist() == [self.overlaps(cats) for cats in rows]

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.ipat")
            save_model(self.model, path)
            self.model = load_model(path)
        assert (self.model.recognition_threshold, self.model.grow) == (self.threshold, self.grow)

    @invariant()
    def store_matches_the_oracle(self):
        m = self.model
        assert (m.N, m.K, m.stored) == (len(self.sets), self.K, self.sets)
        assert m.postings == postings_of(self.sets)


CategoricalMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=25,
                                                deadline=None)
TestCategoricalMachine = CategoricalMachine.TestCase


class TestIntegerValidation:
    @pytest.mark.parametrize("bad", [(3.5, 2), (3.0, 2), (True, False), (np.True_, 2),
                                     (np.float64(3), 2), ("3", 2), (None, 2)])
    def test_non_integers_rejected(self, bad):
        m = Model(2, 10, 1)
        m.insert_class((3, 2))
        for call in (m.insert_class, m.train_step, m.classify, m.classify_counted,
                     m.classify_exact_fast, m.touched_mass):
            with pytest.raises(ValidationError):
                call(bad)
        assert m.N == 1 and m.prototypes == [(3, 2)] and m.postings[0] == {3: [1]}

    def test_numpy_integers_accepted(self):
        m = Model(2, 10, 0)
        assert m.insert_class(np.array([3, 2])) == 1
        assert m.prototypes == [(3, 2)] and type(m.prototypes[0][0]) is int
        assert m.classify(np.array([3, 2], dtype=np.uint8)).argmax == 1

    def test_list_of_numpy_integer_scalars_accepted(self):
        """A list of numpy scalars is stored as Python ints, as an array is."""
        m = Model(2, 10, 0)
        assert m.insert_class([np.int64(3), np.uint8(2)]) == 1
        assert m.prototypes == [(3, 2)] and all(type(v) is int for v in m.prototypes[0])
        assert m.classify([np.int16(3), 2]).argmax == 1

    @pytest.mark.parametrize("radius", [-1, 1.5, True])
    def test_bad_radius_rejected(self, radius):
        m = Model(2, 10, 1)
        m.insert_class((3, 2))
        with pytest.raises(ValidationError):
            m.classify((3, 2), radius=radius)

    def test_numpy_integer_config_accepted(self):
        m = Model(np.int64(2), np.uint16(16), np.int8(1))
        assert (m.K, m.X, m.R) == (2, 16, 1) and all(type(v) is int for v in (m.K, m.X, m.R))
        c = CategoricalModel(np.int32(3), np.uint8(1))
        assert (c.K, c.recognition_threshold) == (3, 1)

    @pytest.mark.parametrize("args", [(3.0, 1, False), (True, 1, False), (3, 1.5, False),
                                      (3, True, False), (3, "1", False), (3, 1, 1),
                                      (3, 1, "yes"), (3, 1, None)])
    def test_non_integer_categorical_config_rejected(self, args):
        with pytest.raises(ConfigError):
            CategoricalModel(*args)

    @pytest.mark.parametrize("bad", [{1.5, 3}, {3.0}, {True}, {np.True_, 2}, {"a"}, {None}])
    @pytest.mark.parametrize("grow", [False, True])
    def test_non_integer_categories_rejected(self, bad, grow):
        m = CategoricalModel(5, 1, grow=grow)
        m.insert_class({2, 3})
        for call in (m.insert_class, m.train_step, m.classify):
            with pytest.raises(ValidationError):
                call(bad)
        assert (m.K, m.N, m.postings, m.stored) == (5, 1, {2: [1], 3: [1]}, [frozenset({2, 3})])

    @pytest.mark.parametrize("bad, grow", [
        pytest.param(bad, grow, id=f"{name}-grow={grow}")
        for name, bad in [("bool", [2, True]), ("numpy bool", [np.True_]), ("float", [2.5]),
                          ("integral float", [2, 3.0]), ("zero", [0]),
                          ("numpy zero", [np.uint8(0)]), ("negative", [-1]),
                          ("bool last", [1, 2, 3, 4, 5, True]),
                          ("float last", [1, np.int64(2), 3, 4.5]), ("zero last", [5, 4, 3, 2, 0])]
        for grow in (False, True)] + [
        pytest.param([6], False, id="above K"),
        pytest.param([1, 2, 3, np.int64(6)], False, id="above K last")])
    def test_rejected_category_leaves_model_unchanged(self, bad, grow):
        m = CategoricalModel(5, 1, grow=grow)
        m.insert_class({2, 3})
        for call in (m.insert_class, m.train_step, m.classify):
            with pytest.raises(ValidationError, match="category index"):
                call(bad)
        assert (m.K, m.N, m.postings, m.stored) == (5, 1, {2: [1], 3: [1]}, [frozenset({2, 3})])

    def test_numpy_integer_categories_accepted(self):
        m = CategoricalModel(5, 1)
        assert m.insert_class({np.int64(2), np.uint8(3)}) == 1
        assert m.stored == [frozenset({2, 3})] and all(type(k) is int for k in m.stored[0])
        assert m.classify({np.int16(3)}).argmax == 1


FRAME = RasterImage(np.zeros((4, 4, 3), np.uint8))
DETECTOR = {"radius": 10, "window": 3, "threshold": 12, "freq_threshold": 3,
            "cluster_dist": 1, "meta_threshold": 2, "meta_votes": 1}
DETECTOR_LOW = {"radius": 0, "threshold": None, "freq_threshold": None}  # the rest: 1


def train_detector_with(key):
    """train_detector on a blank scene with one setting replaced."""
    return lambda v: train_detector(FRAME, FRAME, **{**DETECTOR, key: v})


# each setting: a call taking the value, and the lowest value it accepts (None: any integer)
SETTINGS = {
    "Model K": (lambda v: Model(v, 16, 0), 1),
    "Model X": (lambda v: Model(2, v, 0), 2),
    "Model R": (lambda v: Model(2, 16, v), 0),
    "CategoricalModel category count": (lambda v: CategoricalModel(v, 1), 1),
    "CategoricalModel recognition threshold": (lambda v: CategoricalModel(3, v), 1),
    "ParamIndex X": (lambda v: ParamIndex([[(0, 5, 1)]], X=v), 1),
    "LabelTable class id": (lambda v: LabelTable().attach(v, "car"), 1),
    "LevelStack threshold": (lambda v: LevelStack([Level(Model(2, 8, 0), threshold=v)]), 1),
    "histogram_to_metapattern": (
        lambda v: histogram_to_metapattern(ClassHistogram.from_counts({1: 2}), v), 1),
    "_components distance": (
        lambda v: _components(np.zeros(1, np.int64), np.zeros(1, np.int64), v), 1),
    "_cluster_votes distance": (lambda v: _cluster_votes(Model(3, 256, 0), FRAME, set(), v), 1),
    "cluster_pixels distance": (lambda v: cluster_pixels({(0, 0)}, v), 1),
    "recognize_clusters threshold": (
        lambda v: recognize_clusters(CategoricalModel(1, 1), [], v), 1),
    "detect_objects meta threshold": (
        lambda v: detect_objects(Model(3, 256, 0), CategoricalModel(1, 1), set(), FRAME, v, 1), 1),
    "detect_objects cluster distance": (
        lambda v: detect_objects(Model(3, 256, 0), CategoricalModel(1, 1), set(), FRAME, 2, v), 1),
    "diff_mask window": (lambda v: diff_mask(FRAME, FRAME, v, 12), 1),
    "diff_mask threshold": (lambda v: diff_mask(FRAME, FRAME, 3, v), None),
    "build_class_mask freq_threshold": (
        lambda v: build_class_mask(Model(3, 256, 0), FRAME, v), None),
    **{f"train_detector {key}": (train_detector_with(key), DETECTOR_LOW.get(key, 1))
       for key in DETECTOR},
}


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, (call, low) in SETTINGS.items()
    for bad in [1.5, 2.0, True, "3", None] + ([] if low is None else [low - 1])])
def test_every_setting_rejects_non_integers_and_values_below_its_bound(call, bad):
    """A float, a bool, a string and None are ConfigErrors at every entry
    point, never numpy's TypeError or a silent truncation, and so is a value
    below the setting's bound."""
    with pytest.raises(ConfigError):
        call(bad)


@pytest.mark.parametrize("name", list(SETTINGS))
def test_every_setting_takes_a_numpy_integer(name):
    call, low = SETTINGS[name]
    call(np.int64(3 if low is None else max(low, 1) + 2))


class TestArrayRows:
    """Integer array rows, as ``normalize_columns`` gives them, act as the tuples
    of their values in every call that takes a feature vector."""

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_same_results_as_tuples(self, dtype):
        rng = np.random.default_rng(211)
        table = rng.integers(0, 100, size=(120, 3)).astype(dtype)
        table[60:] = table[:60]  # repeats, so full matches as well as new classes
        by_array, by_tuple = Model(3, 100, 4), Model(3, 100, 4)
        for row in table:
            assert by_array.train_step(row) == by_tuple.train_step(tuple(row.tolist()))
        assert by_array.prototypes == by_tuple.prototypes
        for row in rng.integers(0, 100, size=(30, 3)).astype(dtype):
            assert by_array.classify(row).counts == by_tuple.classify(tuple(row.tolist())).counts
        ts = rng.integers(0, 20, size=len(table)).tolist()
        idx = build_param_index([(tuple(x), t) for x, t in zip(table.tolist(), ts)], X=100)
        for row in table[:40]:
            assert predict_value(idx, row) == predict_value(idx, tuple(row.tolist()))

    @pytest.mark.parametrize("row", [
        np.array([1, 0, 1], dtype=bool),
        np.array([1.0, 2.0, 3.0]),
        np.array([[1, 2, 3]]),                 # 2-D, one row of K
        np.array([[1, 2], [3, 4], [5, 6]]),    # 2-D, K rows
        np.array([1, 2]),                      # too short
        np.array([1, 2, 3, 4]),                # too long
        np.array([1, -1, 3], dtype=np.int8),
        np.array([1, 100, 3]),                 # X
        np.array([1, 2**63, 3], dtype=np.uint64),
    ])
    def test_bad_rows_rejected(self, row):
        m = Model(3, 100, 1)
        m.insert_class((1, 2, 3))
        idx = build_param_index([((1, 2, 3), 7)], X=100)
        for call in (m.train_step, m.classify, lambda x: predict_value(idx, x)):
            with pytest.raises(ValidationError):
                call(row)
        assert m.N == 1 and m.prototypes == [(1, 2, 3)]


def check_query(m, q, radius):
    """Every kernel entry point against the brute-force scan."""
    expected = brute_force_counts(m, q, radius)
    hist, touched = m.classify_counted(q, radius)
    assert hist.counts == expected
    best = max(expected.values(), default=0)
    assert hist.max_count == best and bool(hist) == bool(expected)
    assert hist.argmax == min((n for n, c in expected.items() if c == best), default=None)
    assert m.classify(q, radius).counts == expected
    assert touched == sum(expected.values()) == m.touched_mass(q, radius)
    assert m.classify_exact_fast(q, radius) == (hist.argmax if best == m.K else None)


@st.composite
def interleaved(draw):
    """A model shape, a radius override and a stream of inserts and queries."""
    k = draw(st.integers(1, 5))
    x_range = draw(st.sampled_from([2, 3, 7, 16, 40, 256, 300]))
    r = draw(st.integers(0, x_range - 1))
    radius = draw(st.sampled_from([None, 0, x_range - 1]))
    vec = st.lists(st.integers(0, x_range - 1), min_size=k, max_size=k)
    ops = draw(st.lists(st.tuples(st.booleans(), vec), max_size=80))
    return Model(k, x_range, r), radius, ops


class TestVotingKernel:
    @given(interleaved())
    def test_oracle_with_interleaved_inserts(self, case):
        m, radius, ops = case
        for insert, v in ops:
            if insert:
                m.insert_class(v)
            else:
                check_query(m, v, radius)

    def test_tail_then_merge(self):
        rng = np.random.default_rng(31)
        m = Model(3, 20, 2)
        rows = rng.integers(0, 20, size=(80, 3)).tolist()
        queries = rng.integers(0, 20, size=(10, 3)).tolist()
        for row in rows[:64]:
            m.insert_class(row)
        check_query(m, queries[0], None)
        assert m._state[0] == 64  # snapshot covers every class
        for row in rows[64:72]:
            m.insert_class(row)
        for q in queries:
            check_query(m, q, None)
        assert m._state[0] == 64  # eight classes vote from the tail
        m.insert_class(rows[72])
        for q in queries:
            check_query(m, q, 0)
        assert m._state[0] == 73  # the ninth outgrew an eighth: merged

    def test_concurrent_readers_on_fresh_model(self, tmp_path):
        rng = np.random.default_rng(37)
        m = Model(4, 32, 3)
        for row in rng.integers(0, 32, size=(1500, 4)).tolist():
            m.insert_class(row)
        save_model(m, tmp_path / "m.ipat")
        queries = rng.integers(0, 32, size=(12, 4)).tolist()
        expected = [brute_force_counts(m, q) for q in queries]

        def reader(model, start, results, i):
            start.wait()
            results[i] = [model.classify(q).counts for q in queries]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):  # every round races four readers on a fresh snapshot
                fresh = load_model(tmp_path / "m.ipat")
                start, results = threading.Barrier(4), [None] * 4
                threads = [threading.Thread(target=reader, args=(fresh, start, results, i))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(interval)


# Shapes (K, X, head) whose windows at radius X - 1 cover the K * head
# snapshot entries, wide enough for the dense scan, while radius 0 windows
# gather postings. They take uint8, uint16 and uint32 stores, and uint8 and
# uint16 vote tallies (K >= 256).
SCAN_SHAPES = [(1, 256, 14_000), (3, 256, 5_000), (2, 70_000, 7_000), (256, 300, 64),
               (260, 256, 60)]


@st.composite
def scan_case(draw):
    """A model of a SCAN_SHAPES shape, the rows of its snapshot, tail and
    merge, radii 0, X - 1 and one between, and queries that clip windows at 0
    and at X - 1 or repeat a stored row."""
    k, x_range, head = draw(st.sampled_from(SCAN_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, x_range, size=(head + head // 4, k))
    value = st.one_of(st.sampled_from([0, 1, x_range - 2, x_range - 1]),
                      st.integers(0, x_range - 1))
    queries = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=1, max_size=2))
    queries.append(rows[draw(st.integers(0, len(rows) - 1))].tolist())
    radii = [0, x_range - 1, draw(st.integers(1, x_range - 2))]
    return Model(k, x_range, draw(st.integers(0, x_range - 1))), rows, head, queries, radii


class TestDenseScan:
    @settings(max_examples=40, deadline=None)
    @given(scan_case())
    def test_votes_and_touched_match_the_scan(self, case):
        """Votes per class equal the brute-force per-dimension count, and
        touched the window entries, on both voting paths, over a snapshot
        alone, a snapshot with a tail and a merged snapshot. The dense scan
        is the path whose votes come in the unsigned tally dtype. Then,
        past the merged snapshot, the views read a merged one."""
        m, rows, head, queries, radii = case
        tally = np.min_scalar_type(m.K)
        for stop in (head, head + head // 8, len(rows)):
            m.insert_classes(rows[m.N:stop])
            for q in queries:
                for radius in radii:
                    near = np.abs(rows[:stop] - q) <= radius
                    hist = m.classify(q, radius)
                    assert hist.votes.tolist() == [0, *near.sum(axis=1).tolist()]
                    assert m.touched_mass(q, radius) == near.sum()
                    if radius == 0:
                        assert hist.votes.dtype == np.int64  # gathered postings
                    elif radius == m.X - 1:
                        assert hist.votes.dtype == tally  # every entry: the scan
            assert m._state[0] == (head if stop < len(rows) else stop)  # tail, then merged
        stored = np.concatenate([rows, rows[:head // 8]])
        m.insert_classes(stored[len(rows):])
        assert m._state[0] == len(rows)  # a tail past the snapshot
        postings = plain_loop_index(stored.tolist(), m.K)[0]
        assert m.postings == postings
        assert m._state[0] == len(stored)  # the read published a merged snapshot
        assert m.avg_height() == m.K * len(stored) / sum(map(len, postings))
        for q in queries:
            for radius in radii:
                near = np.abs(stored - q) <= radius
                assert m.classify(q, radius).votes.tolist() == [0, *near.sum(axis=1).tolist()]


def test_refresh_of_a_current_snapshot_keeps_it():
    """A reader that finds the snapshot already published by another reader
    (it looked before that reader finished) uses it as it is."""
    m = Model(2, 8, 1)
    m.insert_class((1, 2))
    state = m._refresh()
    assert m._refresh() is state
    assert m.classify((2, 3)).counts == {1: 2}


def plain_loop_index(rows, K):
    """The posting dicts and prototype tuples as a plain loop of inserts builds them."""
    postings, prototypes = [{} for _ in range(K)], []
    for n, row in enumerate(rows, start=1):
        for k, v in enumerate(row):
            postings[k].setdefault(v, []).append(n)
        prototypes.append(tuple(row))
    return postings, prototypes


BAD_KINDS = ["bool", "float", "negative", "too large", "short row", "long row"]


def spoil(rows, kind, i, j, X):
    """rows with cell (i, j) or row i made invalid in the given way."""
    rows = [list(r) for r in rows]
    if kind == "short row":
        rows[i].pop()
    elif kind == "long row":
        rows[i].append(0)
    else:
        rows[i][j] = {"bool": rows[i][j] > 0, "float": float(rows[i][j]),
                      "negative": -1, "too large": X}[kind]
    return rows


@st.composite
def batches(draw):
    """A model shape and a stream of batch inserts, bad batches and queries."""
    k = draw(st.integers(1, 4))
    x_range = draw(st.sampled_from([2, 5, 16, 256, 300]))
    r = draw(st.integers(0, x_range - 1))
    vec = st.lists(st.integers(0, x_range - 1), min_size=k, max_size=k)
    table = st.lists(vec, max_size=12)
    op = st.one_of(
        st.tuples(st.just("insert"), table, st.booleans()),
        st.tuples(st.just("bad"), st.lists(vec, min_size=1, max_size=6),
                  st.tuples(st.sampled_from(BAD_KINDS), st.integers(0, 5), st.integers(0, k - 1))),
        st.tuples(st.just("query"), vec, st.sampled_from([None, 0, x_range - 1])))
    return k, x_range, r, draw(st.lists(op, max_size=25))


class TestBatchInsert:
    @given(batches())
    def test_matches_a_loop_of_insert_class(self, case):
        k, x_range, r, ops = case
        batch, loop, stored = Model(k, x_range, r), Model(k, x_range, r), []
        probe = [0] * k
        for kind, arg, extra in ops:
            if kind == "insert":
                table = np.array(arg, np.int64).reshape(-1, k) if extra else arg
                ids = batch.insert_classes(table)
                assert ids == [loop.insert_class(row) for row in arg]
                assert all(type(n) is int for n in ids)
                stored += arg
            elif kind == "query":
                probe = arg
                assert batch.classify(arg, extra).counts == loop.classify(arg, extra).counts
            else:
                how, i, j = extra
                with pytest.raises(ValidationError):
                    batch.insert_classes(spoil(arg, how, i % len(arg), j, x_range))
                assert (batch.classify(probe).votes == loop.classify(probe).votes).all()
            postings, prototypes = plain_loop_index(stored, k)
            assert batch.N == loop.N == len(stored)
            assert batch.prototypes == loop.prototypes == prototypes
            assert all(type(v) is int for p in batch.prototypes for v in p)
            assert list(batch.postings) == list(loop.postings) == postings
            assert all(type(n) is int for d in batch.postings for ids in d.values() for n in ids)
            if stored:
                assert batch.avg_height() == k * len(stored) / sum(map(len, postings))

    def test_views_are_read_only_and_not_stored(self):
        m = Model(2, 8, 1)
        m.insert_classes([[1, 2], [1, 3]])
        assert not {"postings", "prototypes"} & vars(m).keys()
        for name in ("postings", "prototypes"):
            with pytest.raises(AttributeError):
                setattr(m, name, [])
        assert m.postings[0] == {1: [1, 2]} and m.prototypes == [(1, 2), (1, 3)]

    @pytest.mark.parametrize("table", [[], np.empty((0, 2), np.int64)])
    def test_empty_table_stores_nothing(self, table):
        m = Model(2, 8, 1)
        assert m.insert_classes(table) == [] and m.N == 0 and m.prototypes == []
        assert m.insert_classes([[1, 2]]) == [1]

    @pytest.mark.parametrize("table", [[[]], [[1, 2], []], [1, 2], [[[1, 2]]], 5, "12",
                                       [[1, None]], [[1, 2**70]], [["1", 2]],
                                       np.array([[True, False]]), [[1, np.True_]]])
    def test_malformed_tables_rejected(self, table):
        m = Model(2, 8, 1)
        m.insert_class((1, 2))
        with pytest.raises(ValidationError):
            m.insert_classes(table)
        assert m.N == 1 and m.prototypes == [(1, 2)] and m.postings[0] == {1: [1]}


@pytest.mark.parametrize("values", [[[[True, 2, 3]]], [[[1, 2], [3, np.True_]]], [[0, False]],
                                    [False, 1], np.array([[True, False]])])
def test_int_table_rejects_bools_at_any_depth(values):
    with pytest.raises(ValidationError, match="x holds"):
        _int_table(values, "x", 256)


@pytest.mark.parametrize("values", [[[[0, 1, 2]]], [[0, 1], [1, 0]], [np.uint8(1), 0],
                                    np.array([[[0, 1, 255]]], np.uint8),
                                    np.array([[1, 0]], np.int32)])
def test_int_table_accepts_integers(values):
    table = _int_table(values, "x", 256)
    assert table.dtype == np.int64 and table.tolist() == np.asarray(values).tolist()


def test_readers_during_inserts_see_only_written_rows():
    """Readers racing a writer over many fresh models (so over many doublings
    of the store) see only written rows: the prototypes they read are a prefix
    of the inserted rows, and every histogram matches the scan of the first n
    rows, n being the N the reader saw (the length of its votes)."""
    rng = np.random.default_rng(41)
    rows = rng.integers(0, 64, size=(300, 3))
    queries = rng.integers(0, 64, size=(8, 3)).tolist()
    R = 4
    near = [np.abs(rows - q) <= R for q in queries]
    want = [np.concatenate([[0], hit.sum(axis=1)]) for hit in near]  # votes at n = 300
    box, done, wrong, errors = [Model(3, 64, R)], threading.Event(), [], []

    def reader(start):
        start.wait()
        try:
            while not done.is_set():
                m = box[0]
                view = m.prototypes
                if view != list(map(tuple, rows[:len(view)].tolist())):
                    wrong.append(("prototypes", len(view)))
                for q, full in zip(queries, want):
                    votes = m.classify(q).votes
                    if (votes != full[:len(votes)]).any():
                        wrong.append((q, len(votes) - 1))
        except Exception as exc:  # a failed reader would otherwise end silently
            errors.append(exc)

    start = threading.Barrier(5)
    threads = [threading.Thread(target=reader, args=(start,)) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        start.wait()
        for _ in range(30):
            m = box[0] = Model(3, 64, R)
            for i in range(0, len(rows), 3):  # batches and single rows
                if i % 2:
                    m.insert_classes(rows[i:i + 3])
                else:
                    for row in rows[i:i + 3].tolist():
                        m.insert_class(row)
        done.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not wrong
