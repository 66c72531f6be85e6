"""Ingestion and persistence tests: CSV, normalization, Netpbm, model files."""

import copy
import json
import os
import struct
import tempfile
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invpat import (
    CategoricalModel,
    ColumnSchema,
    ColumnSpec,
    DataError,
    FormatError,
    LabelTable,
    Level,
    LevelStack,
    Model,
    RasterImage,
    build_param_index,
    load_csv,
    load_model,
    load_pnm,
    normalize_columns,
    predict_histogram,
    predict_value,
    save_histogram,
    save_model,
    save_pnm,
)
from invpat import io_persist
from invpat.cli import main
from invpat.io_persist import extract_parameter, save_schema, load_schema, uniform_schema

# A fixed parameter index and the exact file bytes the format has always
# written for it: pins file compatibility across index layouts.
GOLDEN_ROWS = [((0, 1, 2), 5), ((0, 1, 3), 7), ((0, 1, 2), 5), ((3, 0, 0), 100), ((2, 3, 1), -4)]
GOLDEN_BYTES = (
    b'IPAT\x01\x00\xc9\x00\x00\x00\x00\x00\x00\x00'
    b'{"K":3,"X":4,"kind":"param_index","rows":5,"tables":'
    b'[[[0,[[5,2],[7,1]]],[2,[[-4,1]]],[3,[[100,1]]]],'
    b'[[0,[[100,1]]],[1,[[5,2],[7,1]]],[3,[[-4,1]]]],'
    b'[[0,[[100,1]]],[1,[[-4,1]]],[2,[[5,2]]],[3,[[7,1]]]]]}'
    b'\x0b\x15tz')

# The same index as save_model writes it, in format v2: magic, version 2,
# payload length; head length, JSON head; each table's (v, t, count) rows as int8.
GOLDEN_BYTES_V2 = (
    b'IPAT\x02\x00\xbc\x00\x00\x00\x00\x00\x00\x00'
    b'\x90\x00\x00\x00\x00\x00\x00\x00'
    b'{"K":3,"X":4,"kind":"param_index","rows":5,"tables":'
    b'[{"dtype":"|i1","shape":[4,3]},{"dtype":"|i1","shape":[4,3]},'
    b'{"dtype":"|i1","shape":[4,3]}]}'
    b'\x00\x05\x02' b'\x00\x07\x01' b'\x02\xfc\x01' b'\x03\x64\x01'
    b'\x00\x64\x01' b'\x01\x05\x02' b'\x01\x07\x01' b'\x03\xfc\x01'
    b'\x00\x64\x01' b'\x01\xfc\x01' b'\x02\x05\x02' b'\x03\x07\x01'
    b"\xaf'\x92\x87")

# A numeric model with labels, a schema and a class past its snapshot, and
# its file bytes: pins the v1 numeric layout whatever the in-memory store.
GOLDEN_MODEL_BYTES = (
    b'IPAT\x01\x00s\x01\x00\x00\x00\x00\x00\x00'
    b'{"K":3,"R":2,"X":300,"kind":"numeric","labels":{"1":"edge","3":"mid","5":"tail"},'
    b'"prototypes":[[0,1,299],[5,5,5],[40,41,42],[299,0,150],[6,4,7]],'
    b'"schema":{"columns":[{"max":29.9,"min":0.0,"name":"a","role":"feature"},'
    b'{"max":29.9,"min":0.0,"name":"b","role":"feature"},'
    b'{"max":1.0,"min":-1.0,"name":"c","role":"feature"},'
    b'{"max":null,"min":null,"name":"unit","role":"id"}]}}'
    b'!\xeb\xb1u')

# The same model in format v2: the (5, 3) prototype table as little-endian uint16.
GOLDEN_MODEL_BYTES_V2 = (
    b'IPAT\x02\x00\x84\x01\x00\x00\x00\x00\x00\x00'
    b'\x5e\x01\x00\x00\x00\x00\x00\x00'
    b'{"K":3,"R":2,"X":300,"kind":"numeric","labels":{"1":"edge","3":"mid","5":"tail"},'
    b'"prototypes":{"dtype":"<u2","shape":[5,3]},'
    b'"schema":{"columns":[{"max":29.9,"min":0.0,"name":"a","role":"feature"},'
    b'{"max":29.9,"min":0.0,"name":"b","role":"feature"},'
    b'{"max":1.0,"min":-1.0,"name":"c","role":"feature"},'
    b'{"max":null,"min":null,"name":"unit","role":"id"}]}}'
    b'\x00\x00\x01\x00\x2b\x01' b'\x05\x00\x05\x00\x05\x00' b'\x28\x00\x29\x00\x2a\x00'
    b'\x2b\x01\x00\x00\x96\x00' b'\x06\x00\x04\x00\x07\x00'
    b'\xa4\x1e\x15Q')

# A categorical model and its v2 file bytes: pins the file whatever the in-memory store.
GOLDEN_CATEGORICAL_BYTES_V2 = (
    b'IPAT\x02\x00b\x00\x00\x00\x00\x00\x00\x00'
    b'Z\x00\x00\x00\x00\x00\x00\x00'
    b'{"K":12,"grow":false,"kind":"categorical","stored":[[1,4,9],[2,3],[5,9,12]],"threshold":2}'
    b'(\x80a\xf0')


def roundtrip(obj):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ipat")
        save_model(obj, path)
        return load_model(path)


def model_bytes(obj) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ipat")
        save_model(obj, path)
        with open(path, "rb") as fh:
            return fh.read()


def envelope(body) -> bytes:
    """A model file with a valid header and checksum around any JSON body."""
    payload = json.dumps(body).encode()
    return (struct.pack("<4sHQ", b"IPAT", 1, len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


MALFORMED_BODIES = [
    {"kind": "numeric"},
    {"kind": "numeric", "K": 2, "X": 16, "R": 0, "prototypes": [[1]]},
    {"kind": "categorical", "K": "three", "threshold": 1, "grow": False, "stored": []},
    {"kind": "param_index", "K": 1, "X": 4, "rows": 1, "tables": [[[0, [[5]]]]]},
    {"kind": "param_index", "K": 1, "X": 4, "rows": 1, "tables": [[[0, [[5, 1], [5, 1]]]]]},
    {"kind": "stack", "levels": [{"model": 3}]},
    [1, 2],
    # prototype tables the batch insert must reject; [[1]] above is a wrong K
    *({"kind": "numeric", "K": 2, "X": 16, "R": 0, "prototypes": table}
      for table in ([[1, 2], [3, True]], [[1, 2.0]], [[1, -1]], [[1, 16]],
                    [[1, 2], [3]], [[]])),
    # param_index cells numpy would read as integers (5.5 as 5, true as 1), and a bad pair
    *({"kind": "param_index", "K": 1, "X": 4, "rows": 1, "tables": [table]}
      for table in ([[0, [[5.5, 1]]]], [[0.0, [[5, 1]]]], [[0, [[5, 1.0]]]], [[True, [[5, 1]]]],
                    [[0, [[5, True]]]], [[0, [[5, 1, 1]]]], [[0, [["5", 1]]]])),
    # an X whose offsets cannot be allocated (8 TiB), numeric and param_index
    {"kind": "numeric", "K": 1, "X": 2**40, "R": 0, "prototypes": [[0]]},
    {"kind": "param_index", "K": 1, "X": 2**40, "rows": 1, "tables": [[[0, [[5, 1]]]]]},
]


# bodies that load only when their integers are checked: config and category
# values numpy or int() would truncate, and v1 param_index cells past int64,
# null or nested, in each column
MALFORMED_INTEGERS = {
    "numeric X 16.9": {"kind": "numeric", "K": 2, "X": 16.9, "R": 0, "prototypes": [[1, 2]]},
    "numeric R 1.5": {"kind": "numeric", "K": 2, "X": 16, "R": 1.5, "prototypes": [[1, 2]]},
    "numeric R true": {"kind": "numeric", "K": 2, "X": 16, "R": True, "prototypes": [[1, 2]]},
    "numeric K 2.0": {"kind": "numeric", "K": 2.0, "X": 16, "R": 0, "prototypes": [[1, 2]]},
    "categorical threshold 1.5": {"kind": "categorical", "K": 3, "threshold": 1.5,
                                  "grow": False, "stored": [[1]]},
    "categorical stored 1.5": {"kind": "categorical", "K": 3, "threshold": 1, "grow": False,
                               "stored": [[1.5]]},
    "param_index X 4.5": {"kind": "param_index", "K": 1, "X": 4.5, "rows": 1,
                          "tables": [[[0, [[5, 1]]]]]},
    **{f"param_index {name}": {"kind": "param_index", "K": 1, "X": 4, "rows": 1, "tables": [table]}
       for name, table in {
           "v 2**63": [[2**63, [[5, 1]]]],
           "t 2**63": [[0, [[2**63, 1]]]],
           "count 2**63": [[0, [[5, 2**63]]]],
           "t -2**63 - 1": [[0, [[-2**63 - 1, 1]]]],
           "v null": [[None, [[5, 1]]]],
           "t null": [[0, [[None, 1]]]],
           "count null": [[0, [[5, None]]]],
           "pairs null": [[0, None]],
           "v nested": [[[0], [[5, 1]]]],
           "t nested": [[0, [[[5], 1]]]],
           "every cell nested": [[[0], [[[5], [1]]]]],
           "every cell an empty list": [[[], [[[], []]]]],
           "pair nested": [[0, [[[5, 1]]]]],
       }.items()},
    **{f"stack threshold {name}": {"kind": "stack", "levels": [
        {"labels": None, "threshold": threshold,
         "model": {"kind": "categorical", "K": 3, "threshold": 1, "grow": False, "stored": [[1]]}}]}
       for name, threshold in {"1.5": 1.5, "true": True, "0": 0}.items()},
    "numeric label 0": {"kind": "numeric", "K": 2, "X": 16, "R": 0, "prototypes": [[1, 2]],
                        "labels": {"0": "car"}},
}


def envelope_v2(head, data=b"", head_length=None) -> bytes:
    """A v2 model file with a valid header and checksum around any JSON head
    and array bytes; head_length overrides the head's true length."""
    head = json.dumps(head).encode()
    return wrap(2, struct.pack("<Q", len(head) if head_length is None else head_length)
                + head + data)


def wrap(version, payload) -> bytes:
    """payload inside a header of the given version and its own checksum."""
    return (struct.pack("<4sHQ", b"IPAT", version, len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


def numeric_head(dtype, shape, X=16):
    return {"kind": "numeric", "K": 2, "X": X, "R": 0,
            "prototypes": {"dtype": dtype, "shape": shape}}


def param_head(dtype, shape):
    return {"kind": "param_index", "K": 1, "X": 4, "rows": 1,
            "tables": [{"dtype": dtype, "shape": shape}]}


MALFORMED_V2 = {  # name: (head, array bytes, head length or None)
    "float dtype": (numeric_head("<f8", [1, 2]), struct.pack("<2d", 1, 2), None),
    "big-endian dtype": (numeric_head(">u2", [1, 2]), struct.pack(">2H", 1, 2), None),
    "object dtype": (numeric_head("|O", [1, 2]), bytes(16), None),
    "dtype not a string": (numeric_head(["|u1"], [1, 2]), bytes(2), None),
    "negative shape": (numeric_head("|u1", [-1, 2]), b"", None),
    "shape not a list": (numeric_head("|u1", 2), bytes(2), None),
    "bool in shape": (numeric_head("|u1", [True, 2]), bytes(2), None),
    "0-d shape": (numeric_head("|u1", []), bytes(1), None),
    "descriptor without a shape": ({**numeric_head("|u1", []), "prototypes": {"dtype": "|u1"}},
                                   b"", None),
    "JSON prototypes": ({**numeric_head("|u1", []), "prototypes": [[1, 2]]}, b"", None),
    "too few array bytes": (numeric_head("|u1", [2, 2]), bytes(3), None),
    "too many array bytes": (numeric_head("|u1", [2, 2]), bytes(5), None),
    "head length past the payload": (numeric_head("|u1", [1, 2]), bytes(2), 10**6),
    "head length past 2**63": (numeric_head("|u1", [1, 2]), bytes(2), 2**64 - 1),
    "head not an object": ([numeric_head("|u1", [1, 2])], bytes(2), None),
    "uint64 prototype above int64": (numeric_head("<u8", [1, 2]),
                                     struct.pack("<2Q", 2**63 + 1, 1), None),
    "uint64 param table above int64": (param_head("<u8", [1, 3]),
                                       struct.pack("<3Q", 2**63 + 1, 5, 1), None),
    "unsorted param table": (param_head("|u1", [2, 3]), bytes([1, 5, 1, 0, 5, 1]), None),
    "duplicate param rows": (param_head("|u1", [2, 3]), bytes([0, 5, 1, 0, 5, 1]), None),
    "param count 0": (param_head("|u1", [1, 3]), bytes([0, 5, 0]), None),
    "param v out of range": (param_head("|u1", [1, 3]), bytes([4, 5, 1]), None),
    "param table of pairs": (param_head("|u1", [1, 2]), bytes([0, 5]), None),
    "prototype out of range": (numeric_head("|u1", [1, 2]), bytes([1, 16]), None),
    "prototype of the wrong K": (numeric_head("|u1", [1, 3]), bytes([1, 2, 3]), None),
}


class TestNormalize:
    def schema(self):
        return ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("b", "feature")])

    def test_boundary_mapping(self):
        rows = [(0.0, 10.0), (5.0, 20.0), (10.0, 30.0)]
        out = vectors(normalize_columns(rows, self.schema(), 256))
        assert out[0] == (0, 0)
        assert out[2] == (255, 255)  # raw = max clamps to X-1
        assert out[1] == (128, 128)  # midpoint

    @pytest.mark.parametrize("rows", [[], [(0.0, 7.0, 10.0), (5.0, 8.0, 20.0), (10.0, 9.0, 30.0)]])
    def test_returns_an_int64_table(self, rows):
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("u", "id"),
                               ColumnSpec("b", "feature")])
        out = normalize_columns(rows, schema, 256)
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
        assert out.shape == (len(rows), 2)

    def test_recorded_bounds_reused(self):
        schema = self.schema()
        rows = [(0.0, 1.0), (4.0, 9.0)]
        first = vectors(normalize_columns(rows, schema, 64))
        assert schema.columns[0].min == 0.0 and schema.columns[0].max == 4.0
        again = vectors(normalize_columns(rows, schema, 64))
        assert first == again

    def test_test_split_clamps(self):
        schema = self.schema()
        normalize_columns([(0.0, 0.0), (10.0, 10.0)], schema, 16)
        out = vectors(normalize_columns([(-5.0, 25.0)], schema, 16))
        assert out == [(0, 15)]

    def test_constant_column_warns(self):
        schema = self.schema()
        with pytest.warns(UserWarning):
            out = normalize_columns([(3.0, 1.0), (3.0, 2.0)], schema, 16)
        assert out[0][0] == 0 and out[1][0] == 0

    def test_monotone_per_column(self):
        rng = np.random.default_rng(127)
        raw = sorted(float(v) for v in rng.normal(0, 50, size=40))
        schema = ColumnSchema([ColumnSpec("a", "feature")])
        out = normalize_columns([(v,) for v in raw], schema, 256)
        vals = [o[0] for o in out]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("bounds, want, recorded", [
        ({"min": 0}, [(5,), (9,), (7,)], (0, 10.0)),
        ({"max": 20.0}, [(0,), (3,), (1,)], (5.0, 20.0)),
    ])
    def test_one_given_bound_is_kept(self, bounds, want, recorded):
        """Only the missing bound is taken from the rows and recorded."""
        schema = ColumnSchema([ColumnSpec("a", "feature", **bounds)])
        assert vectors(normalize_columns([(5.0,), (10.0,), (7.0,)], schema, 10)) == want
        assert (schema.columns[0].min, schema.columns[0].max) == recorded

    @pytest.mark.parametrize("bounds", [{"min": 8.0, "max": 2.0}, {"min": 10.0}, {"max": 1.0}])
    def test_min_above_max_is_data_error_naming_the_column(self, bounds):
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("b", "feature", **bounds)])
        with pytest.raises(DataError, match=r"^column 'b': min \S+ is above max \S+$"):
            normalize_columns([(0.0, 2.0), (1.0, 8.0)], schema, 10)
        assert (schema.columns[1].min, schema.columns[1].max) == (
            bounds.get("min"), bounds.get("max"))  # nothing recorded for the column

    @pytest.mark.parametrize("b_bounds, rows, message", [
        ({"min": 10}, [(1.0, 2.0), (3.0, 8.0)], "column 'b': min 10 is above max 8.0"),
        ({}, [(-1e308, 0.0), (1e308, 1.0)], "row 1: scales to NaN"),
    ])
    def test_rejected_table_records_no_bound(self, b_bounds, rows, message):
        """Column a's bounds stay unset when the table fails at column b or at a
        NaN row: they were recorded before either check."""
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("b", "feature", **b_bounds)])
        before = schema.to_dict()
        with pytest.raises(DataError, match=message):
            normalize_columns(rows, schema, 10)
        assert schema.to_dict() == before

    def test_parameter_extraction(self):
        schema = ColumnSchema([ColumnSpec("a", "feature"),
                               ColumnSpec("t", "parameter-t")])
        assert extract_parameter([(1.0, 7.0), (2.0, 9.0)], schema) == [7, 9]

    def test_fractional_parameter_is_data_error_naming_the_row(self):
        schema = ColumnSchema([ColumnSpec("a", "feature"),
                               ColumnSpec("t", "parameter-t")])
        with pytest.raises(DataError, match=r"row 0: .*7\.5"):
            extract_parameter([(1.0, 7.5), (2.0, -0.9)], schema)
        with pytest.raises(DataError, match=r"row 2: .*-0\.9"):
            extract_parameter([(1.0, 7.0), (2.0, -3.0), (3.0, -0.9)], schema)

    def test_schema_without_parameter_column(self):
        with pytest.raises(DataError, match="schema has no parameter-t column"):
            extract_parameter([(1.0,)], ColumnSchema([ColumnSpec("a", "feature")]))

    def test_second_parameter_column_rejected(self):
        with pytest.raises(DataError, match="at most one parameter-t column"):
            ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("t", "parameter-t"),
                          ColumnSpec("u", "parameter-t")])

    def test_schema_roundtrip(self, tmp_path):
        schema = ColumnSchema([ColumnSpec("a", "feature", 0.0, 4.0),
                               ColumnSpec("t", "parameter-t")])
        save_schema(schema, tmp_path / "s.json")
        back = load_schema(tmp_path / "s.json")
        assert back.to_dict() == schema.to_dict()

    def test_schema_validation(self):
        with pytest.raises(DataError):
            ColumnSchema([ColumnSpec("t", "parameter-t")])
        with pytest.raises(DataError):
            ColumnSpec("a", "bogus")


def vectors(table):
    """normalize_columns' (n, K) int64 array as the tuples of Python ints it is compared with."""
    assert isinstance(table, np.ndarray) and table.dtype == np.int64 and table.ndim == 2
    return [tuple(row) for row in table.tolist()]


def per_cell_normalize(rows, schema, X):
    """The per-cell loop ``normalize_columns`` replaced, kept as its oracle."""
    rows = list(rows)
    if not rows:
        return []
    feat = schema.feature_indices()
    for i in feat:
        col = schema.columns[i]
        values = [r[i] for r in rows]
        col.min = min(values) if col.min is None else col.min
        col.max = max(values) if col.max is None else col.max
        if col.min > col.max:
            raise DataError(f"column {col.name!r}: min {col.min!r} is above max {col.max!r}")
        if col.min == col.max:
            warnings.warn(f"column {col.name!r} is constant; emitting 0")
    out = []
    for r in rows:
        vec = []
        for i in feat:
            col = schema.columns[i]
            if col.min == col.max:
                vec.append(0)
                continue
            v = int((r[i] - col.min) / (col.max - col.min) * X)
            vec.append(min(max(v, 0), X - 1))
        out.append(tuple(vec))
    return out


# tables of tenths in [-2, 2] often put (raw - min) / (max - min) * X on a rounding edge
TENTHS = st.integers(-20, 20).map(lambda k: k / 10)
CELLS = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300]))
ROLES = st.sampled_from(["feature", "feature", "parameter-t", "id", "ignore"])


@st.composite
def normalize_cases(draw):
    """(columns, row batches): random roles and schema bounds (one bound alone,
    min > max and min == max included), constant columns, and batches for
    repeated calls."""
    roles = draw(st.lists(ROLES, min_size=1, max_size=5).filter(
        lambda r: "feature" in r and r.count("parameter-t") <= 1))
    cells = draw(st.sampled_from([TENTHS, CELLS]))
    columns = []
    for i, role in enumerate(roles):
        bounds = draw(st.one_of(st.just((None, None)), st.tuples(cells, cells),
                                cells.map(lambda v: (v, v)), st.tuples(cells, st.none()),
                                st.tuples(st.none(), cells)))
        columns.append(ColumnSpec(f"c{i}", role, *bounds))
    constant = draw(st.lists(st.none() | cells, min_size=len(roles), max_size=len(roles)))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(st.lists(st.tuples(*[cells] * len(roles)), max_size=12))
        batches.append([tuple(v if c is None else c for v, c in zip(r, constant))
                        for r in raw])
    return columns, batches


def warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(issubclass(w.category, UserWarning) for w in caught)


@settings(max_examples=300, deadline=None)
@given(normalize_cases(), st.sampled_from([2, 16, 256, 10**6]))
def test_normalize_matches_per_cell_loop(case, X):
    columns, batches = case
    want_schema, schema = ColumnSchema(copy.deepcopy(columns)), ColumnSchema(columns)
    filled = False
    for rows in batches:  # a later batch reuses the bounds an earlier one recorded
        try:
            want, want_warnings = warned(per_cell_normalize, rows, want_schema, X)
        except DataError as exc:  # a column's min above its max
            with pytest.raises(DataError) as got:
                warned(normalize_columns, rows, schema, X)
            assert str(got.value) == str(exc)
            return
        except (OverflowError, ValueError):  # the loop's int() met +-inf or NaN
            try:
                got = warned(normalize_columns, rows, schema, X)[0]
            except DataError:
                return
            assert all(0 <= v < X for vec in got for v in vec)
            return
        got, got_warnings = warned(normalize_columns, rows, schema, X)
        got = vectors(got)
        assert got == want and all(type(v) is int for vec in got for v in vec)
        assert got_warnings == want_warnings
        assert ([(repr(c.min), repr(c.max)) for c in schema.columns]
                == [(repr(c.min), repr(c.max)) for c in want_schema.columns])
        filled = filled or bool(rows)
        if filled:
            assert all(type(b) is float for i in schema.feature_indices()
                       for b in (schema.columns[i].min, schema.columns[i].max))


@pytest.mark.parametrize("X", [2, 16, 256, 10**6])
def test_normalize_matches_per_cell_loop_on_every_tenth(X):
    """Every (min, max, raw) of tenths in [-2, 2] with min <= max, one column per
    bounds pair: about 0.5% of them sit where precomputing X / (max - min) rounds
    differently."""
    tenths = [k / 10 for k in range(-20, 21)]
    columns = [ColumnSpec(f"c{lo}:{hi}", "feature", lo, hi)
               for lo in tenths for hi in tenths if lo <= hi]
    rows = [(raw,) * len(columns) for raw in tenths]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the min == max columns
        want = per_cell_normalize(rows, ColumnSchema(copy.deepcopy(columns)), X)
        assert vectors(normalize_columns(rows, ColumnSchema(columns), X)) == want


@pytest.mark.parametrize("column", [(-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (-1.0, 0.0, -0.0),
                                    (-1.0, -0.0, 0.0)])
def test_signed_zero_bounds_follow_min_and_max(column):
    rows = [(v,) for v in column]
    want_schema, schema = uniform_schema(1), uniform_schema(1)
    assert vectors(normalize_columns(rows, schema, 16)) == per_cell_normalize(rows, want_schema, 16)
    assert (repr(schema.columns[0].min), repr(schema.columns[0].max)) == (
        repr(want_schema.columns[0].min), repr(want_schema.columns[0].max))


class TestNormalizeFaults:
    """Scaled values that overflow clamp; NaN rows and missing columns are data errors."""

    def test_far_out_values_clamp(self):
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("b", "feature")])
        normalize_columns([(0.0, 0.0), (1e-300, 1e-300)], schema, 16)
        assert vectors(normalize_columns([(1e10, -1e10), (5e-301, 1e-300)], schema, 16)) == [
            (15, 0), (8, 15)]

    @pytest.mark.parametrize("rows", [[1.0, 2.0, 3.0], np.array([1.0, 2.0]), [[[1.0, 2.0]]],
                                      [1.0, [2.0, 3.0]], [[1.0, 2.0], 3.0]])
    def test_rows_not_a_table_are_a_data_error(self, rows):
        """One row of numbers ended in IndexError, a number among rows in TypeError."""
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("b", "feature")])
        with pytest.raises(DataError, match="rows are not a table of numbers"):
            normalize_columns(rows, schema, 16)

    def test_nan_is_data_error_naming_the_row(self):
        schema = ColumnSchema([ColumnSpec("a", "feature")])
        with pytest.raises(DataError, match="row 1"):
            normalize_columns([(-1e308,), (1e308,)], schema, 256)

    @pytest.mark.parametrize("rows, row", [
        ([(1.0, 2.0), (3.0,)], 1),             # short
        ([(1.0, 2.0), (3.0, 4.0, 5.0)], 1),    # long
        ([(1.0, 2.0), (3.0, 4.0), ()], 2),
    ])
    def test_ragged_rows_are_a_data_error_naming_the_row(self, rows, row):
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("b", "feature")])
        with pytest.raises(DataError, match=f"^row {row}: "):
            normalize_columns(rows, schema, 16)

    @pytest.mark.parametrize("cell", [float("inf"), -float("inf"), float("nan"), np.inf, None])
    def test_non_finite_parameter_is_a_data_error_naming_the_row(self, cell):
        schema = ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("t", "parameter-t")])
        with pytest.raises(DataError, match="^row 2: .*not a finite number"):
            extract_parameter([(1.0, 7.0), (2.0, -3.0), (3.0, cell), (4.0, 1.5)], schema)

    def test_missing_column_is_data_error(self):
        schema = ColumnSchema([ColumnSpec(c, "feature") for c in "abc"]
                              + [ColumnSpec("t", "parameter-t")])
        with pytest.raises(DataError, match="'c'"):
            normalize_columns([(1.0, 2.0), (3.0, 4.0)], schema, 16)
        with pytest.raises(DataError, match="'t'"):
            extract_parameter([(1.0, 2.0, 3.0)], schema)

    @pytest.mark.parametrize("bound", ["0", True, [0.0]])
    def test_non_numeric_bound_is_data_error(self, bound):
        with pytest.raises(DataError, match="not a number"):
            ColumnSpec("a", "feature", bound, 1.0)
        with pytest.raises(DataError, match="not a number"):
            ColumnSpec("a", "feature", 0.0, bound)

    def schema_file(self, tmp_path, roles, **bounds):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"columns": [{"name": name, "role": role, **bounds}
                                                for name, role in roles]}))
        return str(path)

    def test_cli_string_bound_is_data_error(self, tmp_path, capsys):
        schema = self.schema_file(tmp_path, [("a", "feature")], min="0", max=9.0)
        train = tmp_path / "train.csv"
        train.write_text("1\n2\n")
        assert main(["train", str(train), "--schema", schema]) == 2
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"{", b"[]", b'{"columns": 5}', b'{"columns": [{"role": "feature"}]}',
        b'{"columns": [5]}', b'{"columns": "ab"}', b"\xff{}", b""])
    def test_cli_malformed_schema_file_is_data_error(self, tmp_path, capsys, text):
        schema, train = tmp_path / "s.json", tmp_path / "train.csv"
        schema.write_bytes(text)
        train.write_text("1\n2\n")
        assert main(["train", str(train), "--schema", str(schema)]) == 2
        assert f"invpat: {schema}: " in capsys.readouterr().err

    def test_cli_one_given_bound_is_saved(self, tmp_path, capsys):
        schema = self.schema_file(tmp_path, [("a", "feature"), ("t", "parameter-t")], min=0)
        train, model = tmp_path / "train.csv", tmp_path / "p.ipat"
        train.write_text("5,1\n10,2\n7,3\n")
        assert main(["train", str(train), "--schema", schema, "--x", "10",
                     "--model", str(model)]) == 0
        col = load_model(model).schema.columns[0]
        assert (col.min, col.max) == (0, 10.0)

    def test_cli_min_above_max_is_data_error(self, tmp_path, capsys):
        schema = self.schema_file(tmp_path, [("a", "feature")], min=8.0, max=2.0)
        train = tmp_path / "train.csv"
        train.write_text("2\n8\n")
        assert main(["train", str(train), "--schema", schema]) == 2
        assert (f"invpat: {train}: column 'a': min 8.0 is above max 2.0"
                in capsys.readouterr().err)

    def test_cli_far_out_row_clamps(self, tmp_path, capsys):
        schema = self.schema_file(tmp_path, [("a", "feature"), ("t", "parameter-t")])
        train, test, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "p.ipat"
        train.write_text("0,5\n1e-300,7\n")
        test.write_text("1e10\n-1e10\n")
        assert main(["train", str(train), "--schema", schema, "--model", str(model)]) == 0
        assert main(["predict", str(test), "--model", str(model)]) == 0
        assert capsys.readouterr().out.splitlines()[-3:-1] == ["0 t=7", "1 t=5"]

    def test_cli_nan_row_is_data_error(self, tmp_path, capsys):
        schema = self.schema_file(tmp_path, [("a", "feature")])
        train = tmp_path / "train.csv"
        train.write_text("-1e308\n1e308\n")
        assert main(["train", str(train), "--schema", schema]) == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("roles, missing", [
        ([("a", "feature"), ("b", "feature"), ("c", "feature")], "'c'"),
        ([("a", "feature"), ("b", "ignore"), ("t", "parameter-t")], "'t'"),
    ])
    def test_cli_missing_column_is_data_error(self, tmp_path, capsys, roles, missing):
        train = tmp_path / "t.csv"
        train.write_text("1,2\n3,4\n")
        assert main(["train", str(train), "--schema", self.schema_file(tmp_path, roles)]) == 2
        assert missing in capsys.readouterr().err


class TestCsv:
    def test_comma_and_whitespace(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3\n4,5,6\n")
        assert load_csv(p).tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        p.write_text("1 2 3\n4 5 6\n")
        assert load_csv(p).tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1,2\n")
        assert load_csv(p).tolist() == [[1.0, 2.0]]

    def test_header_needs_every_token_non_numeric(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("unit,cycle,s1\n1,2,3\n")
        assert load_csv(p).tolist() == [[1.0, 2.0, 3.0]]
        p.write_text("1,zap\n2,3\n")
        with pytest.raises(DataError, match="line 1"):
            load_csv(p)

    def test_bad_cell_reported(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n1,zap\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reported(self, tmp_path, cell):
        p = tmp_path / "a.csv"
        p.write_text(f"1,2\n3,4\n1,{cell}\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p)
        code = main(["train", str(p), "--x", "16"])
        assert code == 2

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n1,2,3\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(p)

    @pytest.mark.parametrize("text, line", [
        ("a,b\n\n1,2\nx,3\n", 4),
        ("\n  \n1 2\n\n3 nan\n", 5),
        ("1,2\r\n\r\n3,y\r\n", 3),
    ])
    def test_messages_number_physical_lines(self, tmp_path, text, line):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        with pytest.raises(DataError, match=rf"on line {line}\b"):
            load_csv(p)

    def test_undecodable_bytes_are_bad_cells(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"c\xe9l,b\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match="non-numeric cell on line 3"):
            load_csv(p)
        assert main(["train", str(p), "--x", "16", "--model", str(tmp_path / "m.ipat")]) == 2

    def test_header_after_blank_lines(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("\n \nunit cycle\n1 2\n")
        assert load_csv(p).tolist() == [[1.0, 2.0]]

    def test_plain_tables_take_the_block_path(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n" + "".join(f"{i},-{i}.5\n" for i in range(5000)))
        rows = io_persist._read_table(p)
        assert rows.shape == (5000, 2) and np.array_equal(load_csv(p), rows)
        assert list(map(tuple, rows.tolist())) == io_persist._read_lines(p)

    @pytest.mark.parametrize("odd, message", [
        ("1_0", None),
        ("\u0661", None),
        ("nan", "non-finite cell on line 4503"),
        ("#", "non-numeric cell on line 4503"),
        ("", "non-numeric cell on line 4503"),
    ])
    def test_odd_cell_in_a_later_block(self, tmp_path, odd, message):
        lines = [f"{i},{i % 7}.25,-{i}" for i in range(6000)]
        lines[4500] = f"1,{odd},3"
        p = tmp_path / "a.csv"
        p.write_text("x,y,z\n\n" + "\n".join(lines) + "\n")
        if message is None:
            rows = load_csv(p).tolist()
            assert rows[4500] == [1.0, float(odd), 3.0]
            assert list(map(tuple, rows)) == io_persist._read_lines(p)
        else:
            with pytest.raises(DataError, match=message):
                load_csv(p)


NUMBER_CELLS = st.one_of(
    st.integers(-999, 999).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "+0.0", "-0.0", "+.5", "5.", "1e-400", "-1E3", " 7 "]),
)
# cells float() and np.loadtxt may read differently, or that neither reads
ODD_CELLS = st.sampled_from([
    "nan", "-nan", "inf", "+inf", "-Infinity", "Infinity", "1e400", "1_0", "-2_5.5",
    "\u0661", "\u0661\u0662", "#", "1#2", "5#", "", " ", "x", "0x10", "1,5",
    "\udcff"])  # written as the byte 0xff, which UTF-8 cannot decode


@st.composite
def csv_texts(draw):
    """CSV texts around a table of plain numbers: maybe a header, then a few odd
    lines (blank, whitespace-only, comment-like, an odd cell, a trailing field,
    mixed separators, another width) anywhere, with \\n or \\r\\n endings."""
    width = draw(st.integers(1, 4))
    sep = draw(st.sampled_from([",", ", ", " ,", " ", "\t", "  "]))
    row = st.lists(NUMBER_CELLS, min_size=width, max_size=width)
    lines = [sep.join(r) for r in draw(st.lists(row, max_size=25))]
    if draw(st.booleans()):
        lines.insert(0, sep.join(draw(st.lists(st.sampled_from(["a", "unit", "s1", "#", "x"]),
                                                min_size=width, max_size=width))))
    odd_line = st.one_of(
        st.sampled_from(["", " ", "\t \t", "1, 2 3", "1 2,3"]),
        st.sampled_from(["#", "# note", "#1", "1#"]),
        st.tuples(row, st.integers(0, width - 1), ODD_CELLS).map(
            lambda r: sep.join(r[0][:r[1]] + [r[2]] + r[0][r[1] + 1:])),
        row.map(lambda r: sep.join(r) + ","),
        st.lists(NUMBER_CELLS, min_size=1, max_size=5).map(sep.join),
        st.lists(NUMBER_CELLS, min_size=2, max_size=4).map(" ,\t".join),
    )
    for at, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), odd_line), max_size=3)):
        lines.insert(at, line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def csv_outcome(read, path):
    """read(path) as comparable data: reprs keep -0.0 apart from 0.0. load_csv must
    give a 2-D C-contiguous float64 array, the line loop tuples of Python floats."""
    try:
        rows = read(path)
    except DataError as exc:
        return "error", str(exc)
    if read is load_csv:
        assert isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
        assert rows.flags.c_contiguous
        rows = rows.tolist()
    else:
        assert all(type(r) is tuple for r in rows)
    assert all(type(v) is float for r in rows for v in r)
    return "rows", [tuple(map(repr, r)) for r in rows]


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("1,2\n3,4\n# note\n5,6\n")  # a comment-like line after the first lines
@example("a b\n\n1 2\n3 4#\n")  # a cell that a comment character ends
@example("1_0,-0\r\n\u0661,2\r\n")  # float() reads these; loadtxt does not
def test_load_csv_matches_the_line_loop(text):
    """The one-call reader gives the line loop's rows or its message, wherever
    the odd line stands."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode(errors="surrogateescape"))
        got = csv_outcome(load_csv, path)
        assert got == csv_outcome(io_persist._read_lines, path)


class TestPnm:
    def test_p6_roundtrip_bytes(self, tmp_path):
        px = np.array([[[255, 0, 0], [0, 0, 255]]], dtype=np.uint8)
        p = tmp_path / "a.ppm"
        save_pnm(RasterImage(px), p)
        back = load_pnm(p)
        assert np.array_equal(back.pixels, px)
        save_pnm(back, tmp_path / "b.ppm")
        assert p.read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_p5_roundtrip(self, tmp_path):
        px = np.arange(12, dtype=np.uint8).reshape(3, 4, 1)
        p = tmp_path / "a.pgm"
        save_pnm(RasterImage(px), p)
        assert np.array_equal(load_pnm(p).pixels, px)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# hi\n2 1\n255\n\x07\x09")
        im = load_pnm(p)
        assert im.pixels.ravel().tolist() == [7, 9]

    def test_zero_dimensions(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6 0 0 255\n")
        with pytest.raises(FormatError, match="dimensions"):
            load_pnm(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P3\n1 1\n255\n")
        with pytest.raises(FormatError, match="magic"):
            load_pnm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            load_pnm(p)

    def test_samples_are_a_writable_copy(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 1\n255\n\x07\x09")
        px = load_pnm(p).pixels
        assert px.flags.writeable and px.base is None  # owns its samples: no view of the file
        px[0, 0, 0] = 1
        assert px.ravel().tolist() == [1, 9] and load_pnm(p).pixels.ravel().tolist() == [7, 9]

    def test_truncated_payload_with_offset(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="byte"):
            load_pnm(p)

    @pytest.mark.parametrize("data, message", [
        (b"P3\n1 1\n255\n", "unsupported magic b'P3' at byte 0 (want P5 or P6)"),
        (b"", "unsupported magic b'' at byte 0 (want P5 or P6)"),
        (b"P5\n# no newline", "unterminated comment at byte 3"),
        (b"P5 2 #x", "unterminated comment at byte 5"),
        (b"P5 2 1\n#a\n#b", "unterminated comment at byte 10"),
        (b"P5", "expected width at byte 2"),
        (b"P5\nx 1 255\n\x00", "expected width at byte 3"),
        (b"P5 -1 1 255\n\x00", "expected width at byte 3"),
        (b"P5 2\n# c\n", "expected height at byte 9"),
        (b"P5 2 +1 255\n\x00", "expected height at byte 5"),
        (b"P5 2 1 ?", "expected maxval at byte 7"),
        (b"P5 2 1", "expected maxval at byte 6"),
        (b"P6 0 0 255\n", "malformed dimensions 0x0 in header (byte 6)"),
        (b"P5 3 00 255\n", "malformed dimensions 3x0 in header (byte 7)"),
        (b"P5\n1 1\n65535\n\x00\x00", "unsupported maxval 65535 at byte 12 (only 255)"),
        (b"P5 1 1 0256\n\x00", "unsupported maxval 256 at byte 11 (only 255)"),
        (b"P5 1 1 255", "expected single whitespace after maxval at byte 10"),
        (b"P5 1 1 255#\n\x07", "expected single whitespace after maxval at byte 10"),
        (b"P5 1 1 255x\x07", "expected single whitespace after maxval at byte 10"),
        (b"P6\n2 2\n255\n\x00\x00\x00", "truncated payload at byte 14: need 12 sample bytes, have 3"),
        (b"P5 2 1 255\n", "truncated payload at byte 11: need 2 sample bytes, have 0"),
        pytest.param(b"P6 " + b"1" * 5000 + b" 1 255\n",
                     "width of 5000 digits at byte 3 is too long", id="long width"),
        pytest.param(b"P5 1\n#c\n" + b"0" * 4301 + b" 255\n",
                     "height of 4301 digits at byte 8 is too long", id="long height"),
        pytest.param(b"P5 1 1 " + b"9" * 9999 + b"\n",
                     "maxval of 9999 digits at byte 7 is too long", id="long maxval"),
    ])
    def test_header_error_names_its_byte(self, tmp_path, data, message):
        p = tmp_path / "a.pnm"
        p.write_bytes(data)
        with pytest.raises(FormatError) as err:
            load_pnm(p)
        assert str(err.value) == message

    def test_cli_overlong_header_field_is_data_error(self, tmp_path, capsys):
        """A field past int()'s digit limit once escaped as ValueError, exit 3."""
        p = tmp_path / "big.ppm"
        p.write_bytes(b"P6 " + b"1" * 5000 + b" 1 255\n")
        assert main(["detect", str(p), str(p), str(p)]) == 2
        assert "width of 5000 digits at byte 3 is too long" in capsys.readouterr().err

    @pytest.mark.parametrize("ws", [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
    def test_each_whitespace_byte_separates_fields(self, tmp_path, ws):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5" + ws + b"2" + ws * 2 + b"1" + ws + b"255" + ws + b"\x07" + ws)
        assert load_pnm(p).pixels.ravel().tolist() == [7, ws[0]]

    @pytest.mark.parametrize("data", [
        b"P5#c\n2 1 255\n\x07\x09",
        b"P5 #a\n#b#\n\n2#c d\n1\n# e\n 255\n\x07\x09",
        b"P5 2 1#\n255\n\x07\x09",
        b"P5\r\n#\n\x0c2 \t1 255 \x07\x09\x0a",  # payload bytes past the image are ignored
        b"P5 0002 01 255\n\x07\x09",
        b"P5 2 1 255\n\x07\x09",
    ])
    def test_valid_headers(self, tmp_path, data):
        p = tmp_path / "a.pgm"
        p.write_bytes(data)
        assert load_pnm(p).pixels.ravel().tolist() == [7, 9]


class TestModelFiles:
    def test_unsupported_type_writes_no_file(self, tmp_path):
        p = tmp_path / "m.ipat"
        with pytest.raises(FormatError, match="cannot serialize object of type dict"):
            save_model({"K": 2}, p)
        assert not p.exists()

    def numeric(self):
        rng = np.random.default_rng(131)
        m = Model(4, 32, 3)
        for row in rng.integers(0, 32, size=(80, 4)):
            m.train_step(row.tolist())
        return m

    def test_behavioral_roundtrip(self, tmp_path):
        m = self.numeric()
        p = tmp_path / "m.ipat"
        save_model(m, p)
        back = load_model(p)
        rng = np.random.default_rng(137)
        for row in rng.integers(0, 32, size=(1000, 4)):
            q = row.tolist()
            assert back.classify(q).counts == m.classify(q).counts

    def test_empty_model_roundtrip(self, tmp_path):
        p = tmp_path / "m.ipat"
        save_model(Model(3, 256, 0), p)
        back = load_model(p)
        assert back.N == 0 and (back.K, back.X, back.R) == (3, 256, 0)

    def test_deterministic_bytes(self, tmp_path):
        m = self.numeric()
        save_model(m, tmp_path / "a")
        save_model(m, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_corruption_detected(self, tmp_path):
        p = tmp_path / "m.ipat"
        save_model(self.numeric(), p)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            load_model(p)

    def test_future_version_rejected(self, tmp_path):
        p = tmp_path / "m.ipat"
        save_model(self.numeric(), p)
        blob = bytearray(p.read_bytes())
        blob[4] = 0xFF  # bump the little-endian version field
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_model(p)

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "m.ipat"
        save_model(self.numeric(), p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_model(p)

    def test_missing_trailer_detected(self, tmp_path):
        p = tmp_path / "m.ipat"
        save_model(self.numeric(), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_model(p)
        data = tmp_path / "d.csv"
        data.write_text("1,2,3,4\n")
        assert main(["classify", str(data), "--model", str(p)]) == 2

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_payload_detected(self, tmp_path, body):
        p = tmp_path / "m.ipat"
        p.write_bytes(envelope(body))
        with pytest.raises(FormatError, match="malformed"):
            load_model(p)
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        assert main(["classify", str(data), "--model", str(p)]) == 2

    @pytest.mark.parametrize("body", MALFORMED_INTEGERS.values(), ids=MALFORMED_INTEGERS)
    def test_malformed_integer_detected(self, tmp_path, body):
        self.test_malformed_payload_detected(tmp_path, body)

    def test_param_index_bytes_pinned(self, tmp_path):
        p = tmp_path / "g.ipat"
        save_model(build_param_index(GOLDEN_ROWS, X=4), p)
        assert p.read_bytes() == GOLDEN_BYTES_V2
        for golden in (GOLDEN_BYTES, GOLDEN_BYTES_V2):  # v1 files stay readable
            p.write_bytes(golden)
            back, idx = load_model(p), build_param_index(GOLDEN_ROWS, X=4)
            assert back.tables() == idx.tables()
            assert (back.K, back.X, back.rows, back.t_min, back.t_max) == (3, 4, 5, -4, 100)
            for q in np.ndindex(4, 4, 4):
                assert predict_histogram(back, q).counts == predict_histogram(idx, q).counts
            assert model_bytes(back) == GOLDEN_BYTES_V2

    def test_model_bytes_pinned(self, tmp_path):
        m = Model(3, 300, 2)
        m.insert_classes([[0, 1, 299], [5, 5, 5], [40, 41, 42], [299, 0, 150]])
        m.classify((5, 5, 5))  # the snapshot of the first four classes
        m.insert_class((6, 4, 7))
        assert m._state[0] == 4 and m.N == 5  # one class past the snapshot
        m.labels = LabelTable({1: "edge", 3: "mid", 5: "tail"})
        m.schema = ColumnSchema([ColumnSpec("a", "feature", 0.0, 29.9),
                                 ColumnSpec("b", "feature", 0.0, 29.9),
                                 ColumnSpec("c", "feature", -1.0, 1.0), ColumnSpec("unit", "id")])
        p = tmp_path / "m.ipat"
        save_model(m, p)
        assert p.read_bytes() == GOLDEN_MODEL_BYTES_V2
        for golden in (GOLDEN_MODEL_BYTES, GOLDEN_MODEL_BYTES_V2):  # v1 files stay readable
            p.write_bytes(golden)
            back = load_model(p)
            assert (back.K, back.X, back.R, back.prototypes) == (m.K, m.X, m.R, m.prototypes)
            assert back.labels == m.labels and back.schema.to_dict() == m.schema.to_dict()
            for q in [(0, 1, 299), (5, 5, 5), (6, 4, 7), (299, 299, 0)]:
                assert back.classify(q).counts == m.classify(q).counts
            assert model_bytes(back) == GOLDEN_MODEL_BYTES_V2

    @given(st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * 3),
                              st.one_of(st.integers(-9, 40), st.just(10**9))),
                    min_size=1, max_size=40))
    def test_param_index_roundtrip_property(self, rows):
        idx = build_param_index(rows, X=6)
        back = roundtrip(idx)
        assert back.tables() == idx.tables()
        assert (back.K, back.X, back.rows, back.t_min, back.t_max) == (
            idx.K, idx.X, idx.rows, idx.t_min, idx.t_max)
        for vec, _ in rows:
            assert predict_value(back, vec) == predict_value(idx, vec)
            assert predict_histogram(back, vec).counts == predict_histogram(idx, vec).counts
        assert model_bytes(back) == model_bytes(idx)

    def test_saved_param_table_reads_as_one_array(self):
        table = io_persist._param_table([[0, [[5, 2], [7, 1]]], [3, [[-4, 1]]], [4, []]])
        assert table.dtype == np.int64
        assert table.tolist() == [[0, 5, 2], [0, 7, 1], [3, -4, 1]]
        assert io_persist._param_table([]).shape == (0, 3)

    @given(st.lists(st.frozensets(st.integers(1, 12), min_size=1, max_size=5), max_size=20),
           st.integers(1, 3), st.booleans())
    def test_categorical_roundtrip_property(self, patterns, threshold, grow):
        m = CategoricalModel(1 if grow else 12, threshold, grow=grow)
        for p in patterns:
            m.train_step(p)
        back = roundtrip(m)
        assert (back.K, back.N, back.stored, back.postings) == (m.K, m.N, m.stored, m.postings)
        for p in patterns:
            assert back.classify(p).counts == m.classify(p).counts

    def test_categorical_roundtrip(self, tmp_path):
        m = CategoricalModel(12, 2)
        m.train_step({1, 4, 9})
        m.train_step({2, 3})
        p = tmp_path / "c.ipat"
        save_model(m, p)
        back = load_model(p)
        assert back.stored == m.stored and back.postings == m.postings
        assert back.classify({1, 4}).counts == m.classify({1, 4}).counts

    @given(st.lists(st.frozensets(st.integers(1, 6), max_size=4), max_size=8))
    @example([frozenset({1}), frozenset(), frozenset({1, 3})])
    @example([frozenset(), frozenset()])
    def test_assigned_categorical_roundtrip(self, stored):
        """An assigned store, empty classes included, loads back whole."""
        m = CategoricalModel(6, 1)
        m.stored = stored
        back = roundtrip(m)
        assert (back.K, back.N, back.stored, back.postings) == (6, len(stored), stored, m.postings)
        for q in ({1, 3}, {2, 4, 5, 6}):
            assert back.classify(q).counts == m.classify(q).counts

    def test_categorical_repeats_load_once(self, tmp_path):
        """A category a crafted file repeats in one class votes once."""
        p = tmp_path / "c.ipat"
        p.write_bytes(envelope({"kind": "categorical", "K": 3, "threshold": 1, "grow": False,
                                "stored": [[1, 1], [2]]}))
        back = load_model(p)
        assert back.stored == [frozenset({1}), frozenset({2})]
        assert back.classify({1}).counts == {1: 1}

    def test_categorical_bytes_pinned(self, tmp_path):
        """Inserted or assigned, the store saves the same bytes, and loads back
        to them."""
        inserted, assigned = CategoricalModel(12, 2), CategoricalModel(12, 2)
        for p in ({1, 4, 9}, {2, 3}, {9, 12, 5}):
            inserted.insert_class(p)
        assigned.stored = inserted.stored
        assert model_bytes(inserted) == model_bytes(assigned) == GOLDEN_CATEGORICAL_BYTES_V2
        p = tmp_path / "c.ipat"
        p.write_bytes(GOLDEN_CATEGORICAL_BYTES_V2)
        back = load_model(p)
        assert back.stored == inserted.stored and model_bytes(back) == GOLDEN_CATEGORICAL_BYTES_V2

    def test_param_index_roundtrip(self, tmp_path):
        rng = np.random.default_rng(139)
        rows = [(tuple(int(v) for v in rng.integers(0, 8, size=3)), int(rng.integers(0, 40)))
                for _ in range(100)]
        idx = build_param_index(rows, X=8)
        p = tmp_path / "p.ipat"
        save_model(idx, p)
        back = load_model(p)
        for _ in range(50):
            q = tuple(int(v) for v in rng.integers(0, 8, size=3))
            assert predict_histogram(back, q).counts == predict_histogram(idx, q).counts

    def test_stack_roundtrip_with_labels(self, tmp_path):
        m1 = Model(2, 16, 1)
        m1.train_step((3, 3))
        m1.train_step((9, 9))
        labels = LabelTable({1: "low", 2: "high"})
        m2 = CategoricalModel(2, 1, grow=True)
        stack = LevelStack([Level(m1, threshold=2, labels=labels), Level(m2)])
        stack.run([(3, 3)] * 3, train=True)
        p = tmp_path / "s.ipat"
        save_model(stack, p)
        back = load_model(p)
        assert back.levels[0].labels == labels
        assert back.levels[0].model.postings == m1.postings
        out = back.run([(3, 3)] * 3, train=False)
        assert out.counts == stack.run([(3, 3)] * 3, train=False).counts

    @given(st.integers(1, 4), st.sampled_from([2, 16, 256]), st.data())
    def test_numeric_resave_bytes_identical(self, k, x_range, data):
        """A model with a tail past its snapshot, with or without labels,
        saves the bytes it was loaded from."""
        rows = data.draw(st.lists(st.lists(st.integers(0, x_range - 1), min_size=k,
                                           max_size=k), min_size=1, max_size=40))
        head = data.draw(st.integers(1, len(rows)))
        m = Model(k, x_range, data.draw(st.integers(0, x_range - 1)))
        m.insert_classes(rows[:head])
        m.classify(rows[0])  # builds the snapshot of the head
        for row in rows[head:]:
            m.insert_class(row)
        assert m._state[0] == head
        if data.draw(st.booleans()):
            m.labels = LabelTable({n: f"class {n}" for n in range(1, len(rows) + 1, 2)})
        first, back = model_bytes(m), roundtrip(m)
        assert model_bytes(back) == first
        assert back.prototypes == m.prototypes and back.labels == m.labels

    @given(st.lists(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1,
                             max_size=4), min_size=1, max_size=6), st.booleans())
    def test_stack_resave_bytes_identical(self, sequences, labelled):
        level1 = Model(2, 16, 1)
        labels = LabelTable({1: "first"}) if labelled else None
        stack = LevelStack([Level(level1, threshold=1, labels=labels),
                            Level(CategoricalModel(1, 1, grow=True))])
        for seq in sequences:
            stack.run(seq, train=True)
        assert model_bytes(roundtrip(stack)) == model_bytes(stack)

    def test_schema_embedded(self, tmp_path):
        schema = ColumnSchema([ColumnSpec("a", "feature", 0.0, 9.0)])
        p = tmp_path / "m.ipat"
        save_model(Model(1, 16, 0), p, schema=schema)
        back = load_model(p)
        assert back.schema.to_dict() == schema.to_dict()


class TestModelFileV2:
    @pytest.mark.parametrize("name", MALFORMED_V2)
    def test_malformed_v2_detected(self, tmp_path, name):
        p = tmp_path / "m.ipat"
        p.write_bytes(envelope_v2(*MALFORMED_V2[name]))
        with pytest.raises(FormatError, match="malformed"):
            load_model(p)
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        assert main(["classify", str(data), "--model", str(p)]) == 2

    @pytest.mark.parametrize("payload", [b"", b"\x01\x02", struct.pack("<Q", 1)])
    def test_payload_shorter_than_its_head_detected(self, tmp_path, payload):
        p = tmp_path / "m.ipat"
        p.write_bytes(wrap(2, payload))
        with pytest.raises(FormatError, match="head length"):
            load_model(p)

    @pytest.mark.parametrize("version", [1, 2])
    def test_deeply_nested_payload_detected(self, tmp_path, version):
        """JSON nested past the parser's recursion limit is a malformed payload."""
        nested = b"[" * 100_000 + b"]" * 100_000
        p = tmp_path / "m.ipat"
        p.write_bytes(wrap(version, nested if version == 1
                           else struct.pack("<Q", len(nested)) + nested))
        with pytest.raises(FormatError, match="malformed"):
            load_model(p)
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        assert main(["classify", str(data), "--model", str(p)]) == 2

    def test_well_formed_envelope_loads(self, tmp_path):
        """The helper above builds files the reader accepts: the cases fail for their fault."""
        p = tmp_path / "m.ipat"
        p.write_bytes(envelope_v2(numeric_head("|u1", [2, 2]), bytes([1, 2, 15, 0])))
        assert load_model(p).prototypes == [(1, 2), (15, 0)]
        p.write_bytes(envelope_v2(param_head("<i2", [2, 3]), struct.pack("<6h", 0, -5, 1, 3, 7, 2)))
        assert load_model(p).tables() == [{0: {-5: 1}, 3: {7: 2}}]

    def test_arrays_are_stored_raw(self):
        """A numeric model's arrays are its store's bytes, in its own dtype; a
        parameter table takes the smallest integer dtype holding it."""
        m = Model(2, 70000, 0)
        m.insert_classes([[1, 69999], [65536, 0]])
        blob = model_bytes(m)
        assert blob[22 + struct.unpack_from("<Q", blob, 14)[0]:-4] == struct.pack(
            "<4I", 1, 69999, 65536, 0)
        for rows, X, dtypes in [([((0, 1), 7), ((1, 300), 40)], 400, ["|u1", "<u2"]),
                                ([((0,), -1), ((1,), 127)], 2, ["|i1"]),
                                ([((0,), -1), ((1,), 128)], 2, ["<i2"]),
                                ([((0,), 2**32)], 2, ["<i8"])]:
            blob = model_bytes(build_param_index(rows, X=X))
            head = json.loads(blob[22:22 + struct.unpack_from("<Q", blob, 14)[0]])
            assert [t["dtype"] for t in head["tables"]] == dtypes

    def test_version_zero_rejected(self, tmp_path):
        p = tmp_path / "m.ipat"
        p.write_bytes(b"IPAT\x00\x00" + GOLDEN_MODEL_BYTES[6:])  # read as v1 by older readers
        with pytest.raises(FormatError, match="version 0"):
            load_model(p)
        data = tmp_path / "d.csv"
        data.write_text("1,2,3\n")
        assert main(["classify", str(data), "--model", str(p)]) == 2

    @pytest.mark.parametrize("golden", [GOLDEN_MODEL_BYTES, GOLDEN_MODEL_BYTES_V2],
                             ids=["v1", "v2"])
    @pytest.mark.parametrize("tail", [b"\x00", b"IPAT", GOLDEN_MODEL_BYTES_V2],
                             ids=["zero", "magic", "file"])
    def test_bytes_past_the_trailer_rejected(self, tmp_path, golden, tail):
        p = tmp_path / "m.ipat"
        p.write_bytes(golden + tail)
        with pytest.raises(FormatError, match="past the checksum"):
            load_model(p)
        data = tmp_path / "d.csv"
        data.write_text("1,2,3\n")
        assert main(["classify", str(data), "--model", str(p)]) == 2


# v1 bodies of a categorical model and a level stack (save_model writes only v2); the
# objects they describe are built in fuzz_objects
V1_CATEGORICAL = {"K": 12, "grow": False, "kind": "categorical", "stored": [[1, 4, 9], [2, 3]],
                  "threshold": 2}
V1_STACK = {"kind": "stack", "levels": [
    {"labels": {"1": "low", "2": "high"}, "threshold": 2,
     "model": {"K": 2, "R": 1, "X": 16, "kind": "numeric", "prototypes": [[3, 3], [9, 9]]}},
    {"labels": None, "threshold": 1,
     "model": {"K": 2, "grow": True, "kind": "categorical", "stored": [[1], [1, 2]],
               "threshold": 1}}]}


def fuzz_objects():
    """One small object of each kind, as v1 files load them."""
    numeric = Model(3, 300, 2)
    numeric.insert_classes([[0, 1, 299], [5, 5, 5], [40, 41, 42], [299, 0, 150], [6, 4, 7]])
    numeric.labels = LabelTable({1: "edge", 3: "mid", 5: "tail"})
    numeric.schema = ColumnSchema([ColumnSpec("a", "feature", 0.0, 29.9),
                                   ColumnSpec("b", "feature", 0.0, 29.9),
                                   ColumnSpec("c", "feature", -1.0, 1.0), ColumnSpec("unit", "id")])
    categorical = CategoricalModel(12, 2)
    for stored in ({1, 4, 9}, {2, 3}):
        categorical.insert_class(stored)
    level1, level2 = Model(2, 16, 1), CategoricalModel(2, 1, grow=True)
    level1.insert_classes([[3, 3], [9, 9]])
    level2.insert_class({1})
    level2.insert_class({1, 2})
    stack = LevelStack([Level(level1, 2, LabelTable({1: "low", 2: "high"})), Level(level2, 1)])
    return {"numeric": (GOLDEN_MODEL_BYTES, numeric),
            "categorical": (envelope(V1_CATEGORICAL), categorical),
            "param_index": (GOLDEN_BYTES, build_param_index(GOLDEN_ROWS, X=4)),
            "stack": (envelope(V1_STACK), stack)}


FUZZ_FILES = {f"{kind} v{v}": blob if v == 1 else model_bytes(obj)
              for kind, (blob, obj) in fuzz_objects().items() for v in (1, 2)}


def test_v1_files_resave_as_v2(tmp_path):
    """Each v1 fuzz file loads to the object it describes: both save the same v2 bytes."""
    for kind, (blob, obj) in fuzz_objects().items():
        (tmp_path / kind).write_bytes(blob)
        assert model_bytes(load_model(tmp_path / kind)) == model_bytes(obj), kind


def mutate(blob: bytes, rng) -> bytes:
    """blob with one seeded fault: bit flips, a truncation, random bytes
    spliced over a range, a range of blob copied elsewhere, or a changed
    decimal digit (which keeps JSON well-formed)."""
    b, n = bytearray(blob), len(blob)
    op = rng.integers(5)
    digits = [i for i, c in enumerate(blob) if 48 <= c <= 57]
    if op == 4 and digits:
        b[digits[rng.integers(len(digits))]] = b"0123456789-"[rng.integers(11)]
    elif op == 0:
        for at in rng.integers(0, n, size=rng.integers(1, 4)):
            b[at] ^= 1 << int(rng.integers(8))
    elif op == 1:
        del b[rng.integers(n):]
    elif op == 2:
        at = int(rng.integers(n))
        b[at:at + int(rng.integers(0, 9))] = rng.integers(0, 256, rng.integers(0, 9)).astype(
            np.uint8).tobytes()
    else:
        a, c = sorted(rng.integers(0, n + 1, size=2).tolist())
        at = int(rng.integers(n + 1))
        b[at:at] = blob[a:c]
    return bytes(b)


@pytest.mark.parametrize("name", FUZZ_FILES)
def test_mutated_files_fail_only_with_format_error(tmp_path, name):
    """Seeded mutations of a whole file, and of its payload with the length and
    checksum made valid again (so they reach the payload reader), either load or
    raise FormatError, and the CLI exits 2 exactly when loading raises."""
    blob = FUZZ_FILES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    p, data = tmp_path / "m.ipat", tmp_path / "d.csv"
    data.write_text("1,2,3\n")
    for i in range(100):
        faulty = mutate(blob, rng) if i % 2 else wrap(blob[4], mutate(blob[14:-4], rng))
        p.write_bytes(faulty)
        try:
            load_model(p)
        except FormatError:
            loads = False
        else:
            loads = True
        code = main(["classify", str(data), "--model", str(p)])
        assert code in ((0, 2) if loads else (2,)), faulty


class TestHistogramExport:
    def test_sorted_two_column(self, tmp_path):
        p = tmp_path / "h.txt"
        save_histogram({7: 2, 3: 5}, p)
        assert p.read_text() == "3 5\n7 2\n"


def test_uniform_schema():
    s = uniform_schema(3)
    assert s.feature_indices() == [0, 1, 2]
    assert s.parameter_index() is None


def schema_carriers():
    numeric = Model(2, 16, 0)
    numeric.insert_class((1, 2))
    categorical = CategoricalModel(4, 1)
    categorical.insert_class({1, 3})
    return [numeric, categorical, build_param_index([((1, 2), 7)], X=16),
            LevelStack([Level(numeric, 1, None), Level(categorical, 1, None)])]


@pytest.mark.parametrize("obj", schema_carriers(), ids=lambda o: type(o).__name__)
def test_schema_survives_a_resave(obj, tmp_path):
    assert obj.schema is None
    schema = ColumnSchema([ColumnSpec("a", "feature", 0.0, 9.5),
                           ColumnSpec("b", "feature", -1.0, 1.0)])
    a, b, c = tmp_path / "a.ipat", tmp_path / "b.ipat", tmp_path / "c.ipat"
    save_model(obj, a, schema=schema)
    back = load_model(a)
    assert back.schema.to_dict() == schema.to_dict()
    save_model(back, b)
    assert b.read_bytes() == a.read_bytes()
    save_model(back, c, schema=uniform_schema(2))  # an explicit schema wins
    assert load_model(c).schema.to_dict() == uniform_schema(2).to_dict()


def test_labels_are_declared():
    m = Model(2, 16, 0)
    assert m.labels is None
    assert roundtrip(m).labels is None
    m.labels = LabelTable({m.insert_class((1, 2)): "water"})
    assert roundtrip(m).labels.labels() == {1: "water"}
