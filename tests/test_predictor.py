"""Parameter-index prediction tests against a row-scan oracle."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from invpat import (
    ConfigError,
    NoEvidenceError,
    ParamHistogram,
    ParamIndex,
    ValidationError,
    build_param_index,
    histogram_spread,
    load_model,
    predict_histogram,
    predict_value,
    save_model,
)


def row_scan(rows, x):
    """Brute-force double sum over training rows."""
    counts = {}
    for vec, t in rows:
        for k, v in enumerate(vec):
            if v == x[k]:
                counts[t] = counts.get(t, 0) + 1
    return counts


def table_scan(rows):
    """Brute-force count tables: tables[k][v][t] = rows with x[k] == v and t."""
    tables = [{} for _ in rows[0][0]]
    for vec, t in rows:
        for k, v in enumerate(vec):
            cell = tables[k].setdefault(v, {})
            cell[t] = cell.get(t, 0) + 1
    return tables


@st.composite
def rows_and_queries(draw):
    """Training rows with repeats and a wide t span, plus query vectors."""
    K, X = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(0, X - 1)] * K)
    t = st.one_of(st.integers(-20, 20), st.sampled_from([0, 10**9, 2**62, -2**62]))
    rows = draw(st.lists(st.tuples(vec, t), min_size=1, max_size=40))
    rows += rows[:draw(st.integers(0, len(rows)))]
    return rows, X, draw(st.lists(vec, min_size=1, max_size=5))


@st.composite
def pair_tables(draw):
    """An (n, K) int64 table of feature vectors, one t per row, and query rows."""
    K, X, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 40))
    row = st.lists(st.integers(0, X - 1), min_size=K, max_size=K)
    table = np.array(draw(st.lists(row, min_size=n, max_size=n)), np.int64)
    ts = draw(st.lists(st.integers(-5, 25), min_size=n, max_size=n))
    queries = np.array(draw(st.lists(row, min_size=1, max_size=5)), np.int64)
    return table, ts, X, np.vstack([queries, table[:3]])


@given(pair_tables())
def test_every_kind_of_pair_builds_the_dense_oracle_index(case):
    table, ts, X, queries = case
    builds = [build_param_index(list(zip(table, ts)), X),  # array rows, as normalize_columns gives
              build_param_index([(tuple(x), t) for x, t in zip(table.tolist(), ts)], X),
              build_param_index([(x, t) for x, t in zip(table.tolist(), ts)], X)]
    want = builds[1].table_arrays()
    for idx in builds:
        got = idx.table_arrays()
        assert len(got) == len(want)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
    # dense oracle: counts[k, v, t - lo] rows with x[k] == v and t; ties to the smallest t
    K, lo = table.shape[1], min(ts)
    counts = np.zeros((K, X, max(ts) - lo + 1), np.int64)
    np.add.at(counts, (np.arange(K), table, np.subtract(ts, lo)[:, None]), 1)
    for k, rows in enumerate(want):
        v, t = np.nonzero(counts[k])
        assert rows.tolist() == np.column_stack((v, t + lo, counts[k, v, t])).tolist()
    for q in queries:
        acc = counts[np.arange(K), q].sum(axis=0)
        for idx in builds:
            if acc.any():
                assert predict_value(idx, q) == int(acc.argmax()) + lo
            else:
                with pytest.raises(NoEvidenceError):
                    predict_value(idx, q)


@pytest.mark.parametrize("array_rows, tuple_rows", [
    ([(np.array([1, 2]), 7), (np.array([True, False]), 7)],   # a bool row among int rows
     [((1, 2), 7), ((True, False), 7)]),
    ([(np.array([1, 2]), 7), (np.array([1.0, 2.0]), 7)],       # a float row
     [((1, 2), 7), ((1.0, 2.0), 7)]),
    ([(np.array([[1, 2], [3, 0]]), 7)],                        # 2-D cells
     [(((1, 2), (3, 0)), 7)]),
    ([(np.array([1, 2]), 7), (np.array([[1, 2], [3, 0]]), 7)],
     [((1, 2), 7), (((1, 2), (3, 0)), 7)]),
    ([(np.array([1, 2]), 7), (np.array([1, 2, 3]), 7)],        # vectors of different lengths
     [((1, 2), 7), ((1, 2, 3), 7)]),
])
def test_array_rows_are_rejected_as_tuple_rows_are(array_rows, tuple_rows):
    errors = []
    for rows in (array_rows, tuple_rows):
        with pytest.raises(ValidationError) as caught:
            build_param_index(rows, X=4)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


class TestBuild:
    def test_single_row(self):
        idx = build_param_index([((0, 0), 7)], X=4)
        tables = idx.tables()
        assert tables[0][0] == {7: 1}
        assert tables[1][0] == {7: 1}

    def test_duplicate_rows_accumulate(self):
        idx = build_param_index([((0, 0), 7), ((0, 0), 7)], X=4)
        assert idx.tables()[0][0] == {7: 2}

    def test_mass_conservation(self):
        rng = np.random.default_rng(41)
        rows = [(tuple(int(v) for v in rng.integers(0, 8, size=3)), int(rng.integers(0, 50)))
                for _ in range(500)]
        idx = build_param_index(rows, X=8)
        for table in idx.tables():
            assert sum(c for counter in table.values() for c in counter.values()) == 500

    def test_errors(self):
        with pytest.raises(ValidationError):
            build_param_index([((0, 0), 1), ((0, 0, 0), 2)], X=4)
        with pytest.raises(ValidationError):
            build_param_index([((0, 9), 1)], X=4)
        with pytest.raises(ValidationError):
            build_param_index([], X=4)

    def test_out_of_range_values_rejected(self):
        for bad in (-1, 4, 10**17):
            with pytest.raises(ValidationError):
                build_param_index([((0, 0), 1), ((0, bad), 2)], X=4)

    @pytest.mark.parametrize("tables", [
        [[(1, 5, 1), (0, 5, 1)]],  # v out of order
        [[(0, 6, 1), (0, 5, 1)]],  # t out of order
        [[(0, 5, 1), (0, 5, 2)]],  # repeated (v, t)
        [[(4, 5, 1)]],             # v outside [0, X)
        [[(0, 5, 0)]],             # count below 1
        [[(0, 1.5, 1)]],           # a t with a fraction
        [[(0.9, 5, 1)]],           # a v with a fraction
        [[(True, 5, 1)]],          # bools are not integers
        [[(0, 5, 1), (1, 5, True)]],
        [[(0, 5)]],                # not (v, t, count) triples
        [np.array([[0, 5, 1]], dtype=np.uint64)],
        # out of order where the difference of neighbours overflows int64
        [[(0, 1, 1), (2**62 + 1, 1, 1), (-2**62 - 1, 1, 1), (2, 1, 1)]],
        [[(0, 2**62 + 1, 1), (0, -2**62 - 1, 1)]],
    ])
    def test_constructor_rejects_malformed_tables(self, tables):
        with pytest.raises(ValidationError):
            ParamIndex(tables, X=4)

    def test_constructor_takes_t_values_a_difference_apart_past_int64(self):
        idx = ParamIndex([[(1, -2**62, 1), (1, 2**62, 1)]], X=4)
        assert idx.tables() == [{1: {-2**62: 1, 2**62: 1}}]
        assert (idx.t_min, idx.t_max) == (-2**62, 2**62)

    @pytest.mark.parametrize("X", [4.5, "4", None, True])
    def test_build_rejects_a_non_integer_x(self, X):
        with pytest.raises(ConfigError):
            build_param_index([((0, 1), 5)], X=X)

    @pytest.mark.parametrize("rows, X", [
        ([((0,), 1)], 2**62),             # offsets past what numpy can address
        ([((0,), 1), ((0,), 2)], 2**62),  # sort keys v * T + rank past int64 as well
        ([((), 1)], 4),                   # no feature at all
    ])
    def test_build_config_errors(self, rows, X):
        with pytest.raises(ConfigError):
            build_param_index(rows, X)

    @pytest.mark.parametrize("X", [4.5, 4.0, True, "4", None])
    def test_constructor_rejects_a_non_integer_x(self, X):
        with pytest.raises(ConfigError):
            ParamIndex([[(0, 5, 1)]], X=X)

    def test_constructor_needs_a_table(self):
        with pytest.raises(ConfigError, match="needs K >= 1 tables"):
            ParamIndex([], X=4)

    def test_constructor_takes_a_numpy_integer_x(self):
        idx = ParamIndex([[(0, 5, 1)]], X=np.uint8(4))
        assert idx.X == 4 and type(idx.X) is int


def assert_matches_scan(idx, rows, queries):
    """tables(), histograms and predictions of idx against the brute-force scans of rows."""
    ts = [t for _, t in rows]
    assert idx.tables() == table_scan(rows)
    assert (idx.rows, idx.t_min, idx.t_max) == (len(rows), min(ts), max(ts))
    for q in queries:
        expected = row_scan(rows, q)
        assert predict_histogram(idx, q).counts == expected
        if expected:
            best = max(expected.values())
            assert predict_value(idx, q) == min(t for t, c in expected.items() if c == best)
        else:
            with pytest.raises(NoEvidenceError):
                predict_value(idx, q)


class TestLayoutProperties:
    @given(rows_and_queries())
    @example(([((1, 0), 2**62), ((1, 0), -2**62), ((0, 1), 2**62)], 2, [(1, 0)]))
    def test_tables_and_predictions_match_row_scan(self, case):
        rows, x_range, queries = case
        idx = build_param_index(rows, X=x_range)
        assert_matches_scan(idx, rows, queries + [vec for vec, _ in rows[:3]])

    @pytest.mark.parametrize("rows", [
        [((t % 3, t % 5), 7 * t - 900) for t in range(300)],  # 300 distinct t: two-byte ranks
        [((1, 2), 7)] * 300 + [((1, 3), 8), ((0, 2), 7)],     # a (v, t) pair 300 times
        [((t % 4, 2), t % 2) for t in range(70_000)],          # counts past two bytes
    ])
    def test_past_one_byte(self, rows, tmp_path):
        idx = build_param_index(rows, X=5)
        assert max(np.asarray(idx._rank).itemsize, np.asarray(idx._count).itemsize) > 1
        queries = list(np.ndindex(5, 5))
        assert_matches_scan(idx, rows, queries)
        save_model(idx, tmp_path / "p.ipat")
        assert_matches_scan(load_model(tmp_path / "p.ipat"), rows, queries)

    def test_wide_t_round_trip(self, tmp_path):
        """Train, save, load and predict with t values 2**63 apart."""
        rows = [((1, 0), 2**62), ((1, 2), -2**62), ((3, 2), 2**62), ((3, 2), 2**62)]
        idx = build_param_index(rows, X=4)
        save_model(idx, tmp_path / "p.ipat")
        loaded = load_model(tmp_path / "p.ipat")
        for index in (idx, loaded):
            assert_matches_scan(index, rows, list(np.ndindex(4, 4)))
        assert predict_value(loaded, (1, 1)) == -2**62  # a tie breaks toward the smaller t
        assert predict_value(loaded, (3, 2)) == 2**62

    def test_empty_tables(self, tmp_path):
        idx = ParamIndex([[(0, 5, 2), (3, -1, 1)], []], X=4)
        save_model(idx, tmp_path / "p.ipat")
        for index in (idx, load_model(tmp_path / "p.ipat")):
            assert index.tables() == [{0: {5: 2}, 3: {-1: 1}}, {}]
            assert predict_histogram(index, (0, 1)).counts == {5: 2}
            assert predict_value(index, (3, 0)) == -1
            assert not predict_histogram(index, (1, 1))
            with pytest.raises(NoEvidenceError):
                predict_value(index, (1, 1))
        idx = ParamIndex([[], []], X=4)
        save_model(idx, tmp_path / "q.ipat")
        for index in (idx, load_model(tmp_path / "q.ipat")):
            assert index.tables() == [{}, {}] and (index.rows, index.t_min) == (0, None)
            assert predict_histogram(index, (0, 0)).total == 0
            with pytest.raises(NoEvidenceError):
                predict_value(index, (0, 0))


@given(rows_and_queries())
@example(([((1, 0), 2**62), ((1, 0), -2**62), ((0, 1), 2**62)], 2, [(1, 0)]))
def test_builder_and_constructor_give_one_layout(case):
    """build_param_index hands its layout straight in; the validating constructor,
    given the same tables, must come to the same bytes, formats and fields."""
    rows, X, _ = case
    built = build_param_index(rows, X)
    loaded = ParamIndex(built.table_arrays(), X)
    for name in ("_offsets", "_rank", "_count"):
        a, b = getattr(built, name), getattr(loaded, name)
        assert (a.format, a.tobytes()) == (b.format, b.tobytes())
    assert np.array_equal(built._t_values, loaded._t_values)
    for name in ("K", "X", "rows", "t_min", "t_max"):
        assert getattr(built, name) == getattr(loaded, name)


@pytest.mark.parametrize("tables", [
    [[], [(0, 5, 2), (3, -1, 1)], [(1, 5, 1)]],  # an empty dimension first
    [[(0, 5, 2), (3, -1, 1)], [], [(1, 5, 1)]],  # in the middle
    [[(0, 5, 2), (3, -1, 1)], [(1, 5, 1)], []],  # last
    [[], [(2, 7, 1)], [], []],                   # several, around one
    [[], [], []],                                # every dimension empty
    [[(3, 9, 1)]],                               # one dimension, at the last value
])
def test_table_arrays_gives_back_the_tables(tables):
    idx = ParamIndex(tables, X=4)
    arrays = idx.table_arrays()
    assert len(arrays) == len(tables)
    assert all(a.dtype == np.int64 and a.shape == (len(t), 3) for a, t in zip(arrays, tables))
    assert [a.tolist() for a in arrays] == [[list(row) for row in t] for t in tables]
    assert ParamIndex(arrays, X=4).tables() == idx.tables()


class TestPredictHistogram:
    def test_single_row(self):
        idx = build_param_index([((0, 0), 7)], X=4)
        h = predict_histogram(idx, (0, 0))
        assert h.counts == {7: 2} and h.argmax_t == 7

    def test_no_evidence(self):
        idx = build_param_index([((0, 0), 7)], X=4)
        h = predict_histogram(idx, (1, 1))
        assert h.counts == {}
        with pytest.raises(NoEvidenceError):
            predict_value(idx, (1, 1))

    def test_row_scan_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            k = int(rng.integers(1, 11))
            x_range = int(rng.integers(2, 33))
            n = int(rng.integers(1, 501))
            rows = [(tuple(int(v) for v in rng.integers(0, x_range, size=k)),
                     int(rng.integers(0, 80))) for _ in range(n)]
            idx = build_param_index(rows, X=x_range)
            q = tuple(int(v) for v in rng.integers(0, x_range, size=k))
            assert predict_histogram(idx, q).counts == row_scan(rows, q)

    def test_query_mass(self):
        rng = np.random.default_rng(47)
        rows = [(tuple(int(v) for v in rng.integers(0, 8, size=4)), int(rng.integers(0, 30)))
                for _ in range(200)]
        idx = build_param_index(rows, X=8)
        q = tuple(int(v) for v in rng.integers(0, 8, size=4))
        expected = sum(sum(1 for vec, _ in rows if vec[k] == q[k]) for k in range(4))
        assert predict_histogram(idx, q).total == expected


class TestPredictValue:
    def test_simple(self):
        idx = build_param_index([((0, 0), 7)], X=4)
        assert predict_value(idx, (0, 0)) == 7

    def test_conservative_tie_break(self):
        rows = [((0,), 21)] * 5 + [((0,), 40)] * 5
        idx = build_param_index(rows, X=4)
        assert predict_value(idx, (0,)) == 21
        assert predict_histogram(idx, (0,)).argmax_t == 21


class TestSpread:
    def test_symmetric(self):
        mode, mean, skew = histogram_spread(ParamHistogram.from_counts({5: 1, 6: 2, 7: 1}))
        assert (mode, mean, skew) == (6, 6.0, 0)

    def test_positive_skew(self):
        mode, mean, skew = histogram_spread(ParamHistogram.from_counts({5: 3, 6: 2, 7: 1}))
        assert mode == 5 and mean == pytest.approx(17 / 3) and skew == 1

    def test_negative_skew(self):
        mode, mean, skew = histogram_spread(ParamHistogram.from_counts({3: 1, 6: 2}))
        assert (mode, mean, skew) == (6, 5.0, -1)

    def test_empty(self):
        with pytest.raises(NoEvidenceError):
            histogram_spread(ParamHistogram.from_counts({}))


class TestParamHistogramFromCounts:
    @pytest.mark.parametrize("counts", [{1.5: 2}, {True: 2}, {np.False_: 2}, {"7": 1},
                                        {7: 2.5}, {7: -1}, {7: True}, {2**63: 1}, {7: 2**63}])
    def test_non_integer_t_or_negative_count_rejected(self, counts):
        """A t of 1.5 or True once became t = 1, and one past int64 raised
        OverflowError."""
        with pytest.raises(ValidationError):
            ParamHistogram.from_counts(counts)

    def test_any_integer_t_accepted(self):
        h = ParamHistogram.from_counts({-5: 2, np.int64(9): np.uint8(1), 3: 0})
        assert h.counts == {-5: 2, 9: 1} and h.argmax_t == -5 and h.t.tolist() == [-5, 3, 9]


class TestIntegerInputs:
    @pytest.mark.parametrize("rows", [
        [((1, 2), 7.9)],    # float t
        [((1.7, 2), 7)],    # float feature value
        [((True, 2), 7)],   # bool feature value
        [((1, 2), True)],   # bool t
    ])
    def test_build_rejects_non_integers(self, rows):
        with pytest.raises(ValidationError):
            build_param_index(rows, X=4)

    @pytest.mark.parametrize("query", [(1.6, 2), (True, 2), (np.float64(1), 2), ("1", 2)])
    def test_predict_rejects_non_integers(self, query):
        idx = build_param_index([((1, 2), 7)], X=4)
        with pytest.raises(ValidationError):
            predict_value(idx, query)
        with pytest.raises(ValidationError):
            predict_histogram(idx, query)

    @pytest.mark.parametrize("rows", [
        [((1, 2), 7), ((True, 2), 7)],          # bool among int feature values
        [((1, 2), 7), ((1, 2), np.bool_(1))],   # bool among int t
    ])
    def test_build_rejects_bools_among_ints(self, rows):
        with pytest.raises(ValidationError):
            build_param_index(rows, X=4)

    @pytest.mark.parametrize("rows", [
        [(([1, 2],), 5)],                     # a feature cell holding two values
        [((1,), [5, 6])],                     # a t holding two values
        [(([1, 2],), 5), (([3],), 5)],        # ragged feature cells
        [((1, 2), 5), ((1, [2, 3]), 5)],      # one row with a nested cell
        [((1,), 5), ((2,), [5, 6])],          # one row with a nested t
    ])
    def test_build_rejects_nested_cells(self, rows):
        with pytest.raises(ValidationError):
            build_param_index(rows, X=4)

    @pytest.mark.parametrize("rows", [
        [(5, 3)],                   # a bare value where the feature vector goes
        [((1, 2), 7, 9)],           # a row of three parts
        [((1, 2), 7), ((1, 2),)],   # a row of one part
        [7],                        # a row that is not a pair
        [((1, 2), 7), (np.int64(5), 7)],
    ])
    def test_build_rejects_malformed_rows(self, rows):
        with pytest.raises(ValidationError):
            build_param_index(rows, X=8)

    def test_numpy_integers_accepted(self):
        idx = build_param_index([((np.int64(1), np.uint8(2)), np.int32(7))], X=4)
        assert idx.tables() == [{1: {7: 1}}, {2: {7: 1}}]
        assert predict_value(idx, np.array([1, 2], dtype=np.uint8)) == 7
