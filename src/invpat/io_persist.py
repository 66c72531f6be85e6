"""Data ingestion and model persistence.

CSV loading handles comma- or whitespace-separated numeric tables with an
optional header row. Feature normalization min-max scales every feature
column to a common integer range [0, X) in one array pass over the table,
recording the training bounds in the schema so test-time rows reuse (and
clamp to) them; a scaled value that overflows clamps too.

Model files are a small binary envelope around a canonical JSON payload:
magic, little-endian version and payload length, payload, CRC32 trailer.
Saving the same object twice yields identical bytes; truncation, bit
corruption and unknown future versions are all detected before any model
state is built, and a payload that does not describe a valid model raises
FormatError too. Models are rebuilt only through their public constructors.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError, InvpatError
from .index import CategoricalModel, Model
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
        return cls([ColumnSpec(c["name"], c["role"], c.get("min"), c.get("max"))
                    for c in d["columns"]])


def load_schema(path) -> ColumnSchema:
    with open(path) as fh:
        return ColumnSchema.from_dict(json.load(fh))


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


def load_csv(path) -> list[tuple[float, ...]]:
    """Numeric rows from a comma- or whitespace-separated file.

    The delimiter is sniffed from the first data line; a first row in
    which no token parses as a number is treated as a header and skipped.
    """
    rows: list[tuple[float, ...]] = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(",") if "," in line else line.split()
        try:
            row = tuple(map(float, parts))
        except ValueError as exc:
            if lineno == 1 and not any(map(_is_number, parts)):
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


def normalize_columns(rows, schema: ColumnSchema, X: int) -> list[tuple[int, ...]]:
    """Feature vectors scaled to integers in [0, X), in one array pass.

    v = trunc((raw - min) / (max - min) * X) clipped to [0, X - 1]: overflow to +-inf
    clamps, and a NaN (both differences overflow) is a DataError naming its row. Bounds
    the schema lacks are computed from ``rows`` and recorded there as floats for
    test-time reuse; a constant column maps to 0 with a warning.
    """
    rows = list(rows)
    if not rows:
        return []
    feat, table = schema.feature_indices(), np.array(rows, np.float64)
    if feat[-1] >= table.shape[1]:
        raise DataError(f"rows lack column {feat[-1] + 1} ({schema.columns[feat[-1]].name!r})")
    cols, table = [schema.columns[i] for i in feat], table[:, feat]
    at = np.arange(len(feat))  # argmin/argmax pick the first of 0.0 and -0.0, as min() does
    for col, (a, b) in zip(cols, table[[table.argmin(0), table.argmax(0)], at].T.tolist()):
        if col.min is None or col.max is None:
            col.min, col.max = a, b
        if col.min == col.max:
            warnings.warn(f"column {col.name!r} is constant; emitting 0")
    lo, hi = np.array([(col.min, col.max) for col in cols], np.float64).T
    with np.errstate(all="ignore"):  # overflow clamps below; constant columns are zeroed
        table = (table - lo) / (hi - lo) * X  # replaces the raw values: one table alive
    table[:, lo == hi] = 0
    nan = np.isnan(table).any(axis=1)
    if nan.any():
        raise DataError(f"row {nan.argmax()}: scales to NaN (raw - min and max - min overflow)")
    return list(map(tuple, np.clip(table, 0, X - 1, out=table).astype(np.int64).tolist()))


def extract_parameter(rows, schema: ColumnSchema) -> list[int]:
    """The parameter-t column as integers; a cell with a fraction is a DataError."""
    i = schema.parameter_index()
    if i is None:
        raise DataError("schema has no parameter-t column")
    try:
        cells = [r[i] for r in rows]
    except IndexError:
        raise DataError(f"rows lack column {i + 1} ({schema.columns[i].name!r})") from None
    ts = [int(v) for v in cells]
    if ts != cells:  # int() dropped the fraction of some cell
        row = next(j for j, (t, v) in enumerate(zip(ts, cells)) if t != v)
        raise DataError(f"row {row}: non-integer parameter-t cell {cells[row]!r}")
    return ts


# -- histogram export --------------------------------------------------------------


def save_histogram(counts: dict[int, int], path) -> None:
    """Two-column text (id/t, count), sorted by id."""
    with open(path, "w") as fh:
        for key in sorted(counts):
            fh.write(f"{key} {counts[key]}\n")


# -- model files -----------------------------------------------------------------


MAGIC = b"IPAT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQ")
_TRAILER = struct.Struct("<I")


def _payload(obj, schema: ColumnSchema | None) -> dict:
    if isinstance(obj, Model):
        body = {"kind": "numeric", "K": obj.K, "X": obj.X, "R": obj.R,
                "prototypes": obj._rows().tolist()}
        if obj.labels is not None:
            body["labels"] = {str(k): v for k, v in obj.labels.labels().items()}
    elif isinstance(obj, CategoricalModel):
        body = {"kind": "categorical", "K": obj.K,
                "threshold": obj.recognition_threshold, "grow": obj.grow,
                "stored": [sorted(s) for s in obj.stored]}
    elif isinstance(obj, ParamIndex):
        body = {"kind": "param_index", "K": obj.K, "X": obj.X, "rows": obj.rows,
                "tables": [sorted((v, sorted(t.items())) for v, t in table.items())
                           for table in obj.tables()]}
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


def _restore(body: dict):
    kind = body.get("kind")
    if kind == "numeric":
        obj = Model(body["K"], body["X"], body["R"])
        obj.insert_classes(body["prototypes"])
        if "labels" in body:
            obj.labels = LabelTable({int(k): v for k, v in body["labels"].items()})
    elif kind == "categorical":
        obj = CategoricalModel(body["K"], body["threshold"], grow=body["grow"])
        for stored in body["stored"]:
            obj.insert_class(stored)
    elif kind == "param_index":
        obj = ParamIndex([[(v, t, c) for v, pairs in table for t, c in pairs]
                          for table in body["tables"]], body["X"])
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


def save_model(obj, path, schema: ColumnSchema | None = None) -> None:
    """Write obj with ``schema``, or with the schema it carries when none is given."""
    payload = json.dumps(_payload(obj, schema), sort_keys=True,
                         separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)))
        fh.write(payload)
        fh.write(_TRAILER.pack(zlib.crc32(payload)))


def load_model(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + _TRAILER.size:
        raise FormatError(f"{path}: file too short ({len(data)} bytes)")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version > FORMAT_VERSION:
        raise FormatError(f"{path}: format version {version} is newer than "
                          f"supported {FORMAT_VERSION}")
    if len(data) < _HEADER.size + length + _TRAILER.size:
        raise FormatError(f"{path}: truncated file ({len(data)} bytes for a "
                          f"{length}-byte payload)")
    payload = data[_HEADER.size:_HEADER.size + length]
    (crc,) = _TRAILER.unpack_from(data, _HEADER.size + length)
    if zlib.crc32(payload) != crc:
        raise FormatError(f"{path}: checksum mismatch, file is corrupted")
    try:
        return _restore(json.loads(payload))
    except (AttributeError, LookupError, TypeError, ValueError, OverflowError,
            InvpatError) as exc:
        raise FormatError(f"{path}: malformed payload: {exc!r}") from exc
