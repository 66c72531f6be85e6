"""Data ingestion and model persistence.

CSV loading handles comma- or whitespace-separated numeric tables with an
optional header row and returns one (n, width) float64 array. numpy's C
parser reads the data lines in one call; a file it refuses anywhere (a bad
or non-finite cell, a change of width, a spelling only Python's float()
accepts) is read again by the line loop, which decides every value and
writes every message.

Feature normalization min-max scales every feature column to a common
integer range [0, X) in one array pass over the table, recording the
training bounds in the schema so test-time rows reuse (and clamp to) them;
a scaled value that overflows clamps too.

Model files are a small binary envelope around a payload: magic,
little-endian version and payload length, payload, CRC32 trailer; the file
ends at the trailer. ``save_model`` writes version 2, whose payload is a
little-endian head length, a canonical JSON head, then the raw
little-endian bytes of the big arrays in head order: a numeric model's
(N, K) prototype table in the store's dtype, and each (v, t, count) table
of a parameter index in the smallest integer dtype holding it. The head is
the model's JSON description with each of those arrays replaced by a
``{dtype, shape}`` descriptor. ``load_model`` reads versions 1 (all JSON,
only read) and 2, and no other. Saving the same object twice yields
identical bytes; truncation, bit corruption, trailing bytes and unknown
versions are all detected before any model state is built, and a payload
that does not describe a valid model raises FormatError too. Models are
rebuilt only through their public validating constructors
(``Model.insert_classes``, ``ParamIndex``), whatever the version; a v1
parameter table's cells are checked by ``index._int_table``, the one
validator of integer tables, on their way to one (v, t, count) array.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError, FormatError, InvpatError
from .index import CategoricalModel, Model, _int_table
from .levels import Level, LabelTable, LevelStack
from .predictor import ParamIndex

ROLE_FEATURE = "feature"
ROLE_PARAMETER = "parameter-t"
ROLE_ID = "id"
ROLE_IGNORE = "ignore"
_ROLES = (ROLE_FEATURE, ROLE_PARAMETER, ROLE_ID, ROLE_IGNORE)


# -- schema -------------------------------------------------------------------


@dataclass
class ColumnSpec:
    name: str
    role: str
    min: float | None = None
    max: float | None = None

    def __post_init__(self):
        if self.role not in _ROLES:
            raise DataError(f"unknown column role {self.role!r}")
        for bound in (self.min, self.max):
            if isinstance(bound, bool) or not isinstance(bound, (int, float, type(None))):
                raise DataError(f"column {self.name!r}: bound {bound!r} is not a number")


@dataclass
class ColumnSchema:
    columns: list[ColumnSpec] = field(default_factory=list)

    def __post_init__(self):
        if not self.feature_indices():
            raise DataError("schema needs at least one feature column")
        if len([c for c in self.columns if c.role == ROLE_PARAMETER]) > 1:
            raise DataError("at most one parameter-t column")

    def feature_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.role == ROLE_FEATURE]

    def parameter_index(self) -> int | None:
        for i, c in enumerate(self.columns):
            if c.role == ROLE_PARAMETER:
                return i
        return None

    def to_dict(self) -> dict:
        return {"columns": [{"name": c.name, "role": c.role, "min": c.min, "max": c.max}
                            for c in self.columns]}

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnSchema":
        """The schema of ``{"columns": [{"name", "role"[, "min", "max"]}, ...]}``;
        a document of another shape is a DataError."""
        columns = d.get("columns") if isinstance(d, dict) else None
        if not isinstance(columns, list) or not all(
                isinstance(c, dict) and {"name", "role"} <= c.keys() for c in columns):
            raise DataError('a schema is {"columns": [{"name": ..., "role": ...}, ...]}')
        return cls([ColumnSpec(c["name"], c["role"], c.get("min"), c.get("max"))
                    for c in columns])


def load_schema(path) -> ColumnSchema:
    with open(path) as fh:
        try:
            return ColumnSchema.from_dict(json.load(fh))
        except (ValueError, DataError) as exc:  # not UTF-8 text, not JSON, or not a schema
            raise DataError(f"{path}: {exc}") from None


def save_schema(schema: ColumnSchema, path) -> None:
    with open(path, "w") as fh:
        json.dump(schema.to_dict(), fh, indent=2, sort_keys=True)


def uniform_schema(n_columns: int) -> ColumnSchema:
    """All-feature schema for plain feature tables."""
    return ColumnSchema([ColumnSpec(f"f{i}", ROLE_FEATURE) for i in range(n_columns)])


# -- CSV / whitespace tables ----------------------------------------------------


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path) -> np.ndarray:
    """Numeric rows from a comma- or whitespace-separated file, as one
    C-contiguous ``(n, width)`` float64 array.

    The delimiter is sniffed from each data line; a first data line in
    which no token parses as a number is treated as a header and skipped.
    Blank lines are skipped; messages number the file's physical lines.

    The rows are parsed by one call of numpy's C parser over the data lines.
    When a line fails to parse, changes width or holds a non-finite cell, the
    whole file is read again by the line loop, which decides every value the
    parser refuses (``1_0``, non-ASCII digits, ...) and writes every message.
    """
    table = _read_table(path)
    return np.array(_read_lines(path), np.float64) if table is None else table


def _split(line: str) -> list[str]:
    return line.split(",") if "," in line else line.split()


def _read_table(path) -> np.ndarray | None:
    """The rows of path through one np.loadtxt call over its data lines, as one
    (n, width) float64 array; None where the line loop must decide."""
    with open(path, errors="surrogateescape") as fh:
        lines = filter(str.strip, fh)  # numpy skips "\n" but reads "  " as a cell
        first = next(lines, "")
        if not any(map(_is_number, _split(first.strip()))):
            first = next(lines, "")  # past the header row, or no line at all
        if not first:
            return None
        width = len(_split(first.strip()))
        try:
            table = np.loadtxt(chain([first], lines), delimiter="," if "," in first else None,
                               comments=None, ndmin=2)
        except ValueError:
            return None
    return table if table.shape[1] == width and np.isfinite(table).all() else None


def _read_lines(path) -> list[tuple[float, ...]]:
    """load_csv line by line: the oracle of ``_read_table`` and the writer of its messages."""
    rows: list[tuple[float, ...]] = []
    # a byte the locale cannot decode stays in the line as a surrogate, so it is a bad cell
    with open(path, errors="surrogateescape") as fh:
        numbered = ((n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip())
        for i, (lineno, line) in enumerate(numbered):
            parts = _split(line)
            try:
                row = tuple(map(float, parts))
            except ValueError as exc:
                if i == 0 and not any(map(_is_number, parts)):
                    continue  # header row
                raise DataError(f"{path}: non-numeric cell on line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}: non-finite cell on line {lineno}")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    return rows


# -- normalization ----------------------------------------------------------------


def normalize_columns(rows, schema: ColumnSchema, X: int) -> np.ndarray:
    """Feature vectors scaled to integers in [0, X), in one array pass: an (n, K)
    int64 array, one row per input row and one column per feature column.

    v = trunc((raw - min) / (max - min) * X) clipped to [0, X - 1]: overflow to +-inf
    clamps, and a NaN (both differences overflow) is a DataError naming its row. Bounds
    the schema lacks are computed from ``rows`` and recorded there as floats for
    test-time reuse, each missing bound on its own, once the whole table is accepted; a
    column whose min is above its max is a DataError, and a constant column maps to 0
    with a warning. An array (what ``load_csv`` returns) is read as it is, without a copy.
    """
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    if not len(rows):
        return np.empty((0, len(schema.feature_indices())), np.int64)
    feat = schema.feature_indices()
    try:
        table = np.asarray(rows, np.float64)
    except ValueError as exc:  # ragged rows, or a cell that is not one number
        sized = all(hasattr(r, "__len__") for r in rows)  # a number among rows has no width
        row = (next((i for i, r in enumerate(rows) if len(r) != len(rows[0])), None)
               if sized else None)
        raise DataError(f"rows are not a table of numbers: {exc}" if row is None else
                        f"row {row}: {len(rows[row])} cells where row 0 has {len(rows[0])}"
                        ) from None
    if table.ndim != 2:  # a row of numbers, or rows of rows
        raise DataError(f"rows are not a table of numbers: got shape {table.shape}")
    if feat[-1] >= table.shape[1]:
        raise DataError(f"rows lack column {feat[-1] + 1} ({schema.columns[feat[-1]].name!r})")
    cols, table = [schema.columns[i] for i in feat], table[:, feat]
    at = np.arange(len(feat))  # argmin/argmax pick the first of 0.0 and -0.0, as min() does
    lows, highs = table[[table.argmin(0), table.argmax(0)], at].tolist()
    bounds = [(a if col.min is None else col.min, b if col.max is None else col.max)
              for col, a, b in zip(cols, lows, highs)]
    for col, (a, b) in zip(cols, bounds):
        if a > b:
            raise DataError(f"column {col.name!r}: min {a!r} is above max {b!r}")
    lo, hi = np.array(bounds, np.float64).T
    with np.errstate(all="ignore"):  # overflow clamps below; constant columns are zeroed
        table = (table - lo) / (hi - lo) * X  # replaces the raw values: one table alive
    table[:, lo == hi] = 0
    nan = np.isnan(table).any(axis=1)
    if nan.any():
        raise DataError(f"row {nan.argmax()}: scales to NaN (raw - min and max - min overflow)")
    for col, (a, b) in zip(cols, bounds):  # recorded once the table is accepted
        col.min, col.max = a, b
        if a == b:
            warnings.warn(f"column {col.name!r} is constant; emitting 0")
    return np.clip(table, 0, X - 1, out=table).astype(np.int64)


def extract_parameter(rows, schema: ColumnSchema) -> list[int]:
    """The parameter-t column as integers; a cell with a fraction, outside int64,
    infinite or NaN, or not a number is a DataError naming the row."""
    i = schema.parameter_index()
    if i is None:
        raise DataError("schema has no parameter-t column")
    try:  # an array's t column is read once, as Python numbers
        cells = rows[:, i].tolist() if isinstance(rows, np.ndarray) else [r[i] for r in rows]
    except IndexError:
        raise DataError(f"rows lack column {i + 1} ({schema.columns[i].name!r})") from None
    try:
        ts = [int(v) for v in cells]
    except (TypeError, ValueError, OverflowError):  # OverflowError: inf; ValueError: NaN
        for row, v in enumerate(cells):
            try:
                int(v)
            except (TypeError, ValueError, OverflowError):
                raise DataError(f"row {row}: parameter-t cell {v!r} is not a finite "
                                "number") from None
    if ts != cells:  # int() dropped the fraction of some cell
        row = next(j for j, (t, v) in enumerate(zip(ts, cells)) if t != v)
        raise DataError(f"row {row}: non-integer parameter-t cell {cells[row]!r}")
    if ts and not -2**63 <= min(ts) <= max(ts) < 2**63:
        row = next(j for j, t in enumerate(ts) if not -2**63 <= t < 2**63)
        raise DataError(f"row {row}: parameter-t cell {cells[row]!r} is outside int64")
    return ts


# -- histogram export --------------------------------------------------------------


def save_histogram(counts: dict[int, int], path) -> None:
    """Two-column text (id/t, count), sorted by id."""
    with open(path, "w") as fh:
        for key in sorted(counts):
            fh.write(f"{key} {counts[key]}\n")


# -- model files -----------------------------------------------------------------


MAGIC = b"IPAT"
FORMAT_VERSION = 2  # the version save_model writes; load_model reads 1 to it
_HEADER = struct.Struct("<4sHQ")
_TRAILER = struct.Struct("<I")
_HEAD = struct.Struct("<Q")  # v2: the length of the JSON head
_DTYPES = ("|u1", "|i1", "<u2", "<i2", "<u4", "<i4", "<u8", "<i8")  # v2 array dtypes


def _payload(obj, schema: ColumnSchema | None) -> dict:
    """The JSON description of obj, holding its big arrays at ``_slots``."""
    if isinstance(obj, Model):
        body = {"kind": "numeric", "K": obj.K, "X": obj.X, "R": obj.R,
                "prototypes": obj._rows()}
        if obj.labels is not None:
            body["labels"] = {str(k): v for k, v in obj.labels.labels().items()}
    elif isinstance(obj, CategoricalModel):
        body = {"kind": "categorical", "K": obj.K,
                "threshold": obj.recognition_threshold, "grow": obj.grow,
                "stored": [sorted(s) for s in obj.stored]}
    elif isinstance(obj, ParamIndex):
        body = {"kind": "param_index", "K": obj.K, "X": obj.X, "rows": obj.rows,
                "tables": list(map(_narrowest, obj.table_arrays()))}
    elif isinstance(obj, LevelStack):
        body = {"kind": "stack",
                "levels": [{"model": _payload(lvl.model, None),
                            "threshold": lvl.threshold,
                            "labels": None if lvl.labels is None
                            else {str(k): v for k, v in lvl.labels.labels().items()}}
                           for lvl in obj.levels]}
    else:
        raise FormatError(f"cannot serialize object of type {type(obj).__name__}")
    schema = obj.schema if schema is None else schema
    if schema is not None:
        body["schema"] = schema.to_dict()
    return body


def _narrowest(table: np.ndarray) -> np.ndarray:
    """table in the smallest v2 dtype holding its values (never uint64, which
    ``ParamIndex`` refuses)."""
    lo, hi = int(table.min(initial=0)), int(table.max(initial=0))
    info = (np.iinfo(d) for d in _DTYPES if d != "<u8")
    return table.astype(next(i.dtype for i in info if i.min <= lo and hi <= i.max))


def _slots(body: dict):
    """(container, key) of each big array of a payload body, in head order:
    a numeric model's prototype table and a parameter index's tables."""
    kind = body.get("kind")
    if kind == "numeric":
        yield body, "prototypes"
    elif kind == "param_index":
        yield from ((body["tables"], i) for i in range(len(body["tables"])))
    elif kind == "stack":
        for level in body["levels"]:
            yield from _slots(level["model"])


def _param_table(table) -> np.ndarray:
    """A saved table as one int64 array of (v, t, count) rows: a v2 table as it
    is, a v1 table, [[v, [[t, count], ...]], ...], through ``index._int_table``
    (numpy alone would read 1.5 as 1 and true as 1)."""
    if isinstance(table, np.ndarray):
        return table
    rows = [(v, t, count) for v, pairs in table for t, count in pairs]
    return _int_table(rows, "a param_index table", width=3)


def _restore(body: dict):
    kind = body.get("kind")
    if kind == "numeric":
        obj = Model(body["K"], body["X"], body["R"])
        obj.insert_classes(body["prototypes"])
        if "labels" in body:
            obj.labels = LabelTable({int(k): v for k, v in body["labels"].items()})
    elif kind == "categorical":
        obj = CategoricalModel(body["K"], body["threshold"], grow=body["grow"])
        obj.stored = body["stored"]
    elif kind == "param_index":
        obj = ParamIndex(list(map(_param_table, body["tables"])), body["X"])
    elif kind == "stack":
        levels = []
        for lvl in body["levels"]:
            labels = None if lvl["labels"] is None else LabelTable(
                {int(k): v for k, v in lvl["labels"].items()})
            levels.append(Level(_restore(lvl["model"]), lvl["threshold"], labels))
        obj = LevelStack(levels)
    else:
        raise FormatError(f"unknown payload kind {kind!r}")
    if "schema" in body:
        obj.schema = ColumnSchema.from_dict(body["schema"])
    return obj


def _read_v2(payload: bytes) -> dict:
    """The body of a v2 payload, each array descriptor replaced by a read-only
    view of its bytes; the descriptors and the byte count are checked first."""
    room = len(payload) - _HEAD.size
    if room < 0 or (size := _HEAD.unpack_from(payload)[0]) > room:
        raise FormatError("head length past the payload")
    body = json.loads(payload[_HEAD.size:_HEAD.size + size])
    if not isinstance(body, dict):
        raise FormatError("head is not a JSON object")
    slots, specs = list(_slots(body)), []
    for node, key in slots:
        desc = node[key]
        if not (isinstance(desc, dict) and desc.keys() == {"dtype", "shape"}
                and desc["dtype"] in _DTYPES and isinstance(desc["shape"], list)
                and all(type(n) is int and n >= 0 for n in desc["shape"])):
            raise FormatError(f"bad array descriptor {desc!r}")
        specs.append((np.dtype(desc["dtype"]), desc["shape"]))
    data = memoryview(payload)[_HEAD.size + size:]
    if sum(d.itemsize * math.prod(shape) for d, shape in specs) != len(data):
        raise FormatError(f"array descriptors do not add up to the {len(data)} bytes "
                          "after the head")
    offset = 0
    for (node, key), (dtype, shape) in zip(slots, specs):
        node[key] = np.frombuffer(data, dtype, math.prod(shape), offset).reshape(shape)
        offset += node[key].nbytes
    return body


def save_model(obj, path, schema: ColumnSchema | None = None) -> None:
    """Write obj with ``schema``, or with the schema it carries when none is given."""
    body, arrays = _payload(obj, schema), []
    for node, key in _slots(body):
        a = node[key]
        arrays.append(a.astype(a.dtype.newbyteorder("<"), copy=False))
        node[key] = {"dtype": arrays[-1].dtype.str, "shape": list(a.shape)}
    head = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join([_HEAD.pack(len(head)), head, *(a.tobytes() for a in arrays)])
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)))
        fh.write(payload)
        fh.write(_TRAILER.pack(zlib.crc32(payload)))


def load_model(path):
    """The object saved at path, from a version 1 or 2 file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + _TRAILER.size:
        raise FormatError(f"{path}: file too short ({len(data)} bytes)")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if not 1 <= version <= FORMAT_VERSION:
        raise FormatError(f"{path}: format version {version} is not supported "
                          f"(1 to {FORMAT_VERSION})")
    end = _HEADER.size + length + _TRAILER.size
    if len(data) < end:
        raise FormatError(f"{path}: truncated file ({len(data)} bytes for a "
                          f"{length}-byte payload)")
    if len(data) > end:
        raise FormatError(f"{path}: {len(data) - end} bytes past the checksum")
    payload = data[_HEADER.size:_HEADER.size + length]
    (crc,) = _TRAILER.unpack_from(data, _HEADER.size + length)
    if zlib.crc32(payload) != crc:
        raise FormatError(f"{path}: checksum mismatch, file is corrupted")
    try:
        return _restore(json.loads(payload) if version == 1 else _read_v2(payload))
    except (AttributeError, LookupError, TypeError, ValueError, OverflowError, MemoryError,
            RecursionError, InvpatError) as exc:  # MemoryError: sizes (X) past what fits
        raise FormatError(f"{path}: malformed payload: {exc!r}") from exc
