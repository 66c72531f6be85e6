"""Command-line front end.

Subcommands: train, classify, predict, segment, detect, bench.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal error.
The env var INVPAT_DATA_DIR locates optional datasets.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bench import run_bench
from .errors import ConfigError, DataError, NoEvidenceError, ValidationError
from .index import Model, _radius
from .io_persist import (
    FORMAT_VERSION,
    extract_parameter,
    load_csv,
    load_model,
    load_schema,
    normalize_columns,
    save_histogram,
    save_model,
)
from .levels import UNLABELED
from .netpbm import load_pnm, save_label_map
from .predictor import ParamIndex, build_param_index, predict_value
from .vision import detect_objects, segment_image, train_detector


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this interface promises 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_radius(args, x: int) -> int:
    if args.r_pct is None:
        return args.r
    radius = args.r_pct / 100.0 * x
    if not math.isfinite(radius):  # nan, inf, or a percentage that overflows
        raise ConfigError(f"--r-pct must give a finite radius, got {args.r_pct}% of {x}")
    return round(radius)


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _report_header(args) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and v is not None}
    return f"# invpat {__version__} format={FORMAT_VERSION} config={json.dumps(cfg)}"


def _vectors(path, rows, schema, x_range):
    """Feature vectors from load_csv's array; no schema means integral cells, taken as ints."""
    if schema is not None:
        return _checked(path, normalize_columns, rows, schema, x_range)
    fraction = (rows != np.trunc(rows)).any(axis=1)
    if fraction.any():
        i = int(fraction.argmax())
        raise DataError(f"{path}: row {i}: non-integer cell in {tuple(rows[i].tolist())}")
    return [tuple(map(int, r)) for r in rows.tolist()]


def _checked(where, fn, *args, **kwargs):
    try:  # input a model or a table reader rejects is a data error, named by where it came from
        return fn(*args, **kwargs)
    except (ValidationError, DataError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def cmd_train(args) -> int:
    rows = load_csv(args.data)
    schema = load_schema(args.schema) if args.schema else None
    t0 = time.perf_counter()
    vectors = _vectors(args.data, rows, schema, args.x)
    if schema is not None and schema.parameter_index() is not None:
        ts = _checked(args.data, extract_parameter, rows, schema)
        obj = _checked(args.data, build_param_index, list(zip(vectors, ts)), X=args.x)
        summary = f"param-index rows={obj.rows} K={obj.K} X={obj.X} t=[{obj.t_min},{obj.t_max}]"
    else:
        obj = Model(len(vectors[0]), args.x, _resolve_radius(args, args.x))
        created = sum(_checked(f"{args.data}: row {i}", obj.train_step, v)[1]
                      for i, v in enumerate(vectors))
        summary = f"trained N={obj.N} created={created} h={obj.avg_height():.3f}"
    elapsed = time.perf_counter() - t0
    if args.model:  # saved before anything is printed, so a failed save reports no model
        save_model(obj, args.model, schema=schema)
    print(_report_header(args))
    print(f"{summary} wall={elapsed:.3f}s")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, Model):
        raise DataError(f"{args.model}: not a numeric model")
    rows = load_csv(args.data)
    vectors = _vectors(args.data, rows, model.schema, model.X)
    winners: dict[int, int] = {}
    print(_report_header(args))
    for i, v in enumerate(vectors):
        hist = _checked(f"{args.data}: row {i}", model.classify, v)
        n = model.recognized(hist)
        if n is not None:
            print(f"{i} class={n} votes={hist.max_count}")
            winners[n] = winners.get(n, 0) + 1
        else:
            print(f"{i} unrecognized max={hist.max_count}")
    if args.out:
        save_histogram(winners, args.out)
    return 0


def cmd_predict(args) -> int:
    idx = load_model(args.model)
    if not isinstance(idx, ParamIndex):
        raise DataError(f"{args.model}: not a parameter index")
    rows = load_csv(args.data)
    schema = idx.schema
    if (schema is not None and schema.parameter_index() is not None
            and rows.shape[1] == len(schema.columns) - 1):
        # test split without the parameter column: pad a placeholder
        rows = np.insert(rows, schema.parameter_index(), 0.0, axis=1)
    vectors = _vectors(args.data, rows, schema, idx.X)
    predicted: dict[int, int] = {}
    print(_report_header(args))
    t0 = time.perf_counter()
    for i, v in enumerate(vectors):
        try:
            t = _checked(f"{args.data}: row {i}", predict_value, idx, v)
        except NoEvidenceError:
            print(f"{i} no-evidence")
            continue
        print(f"{i} t={t}")
        predicted[t] = predicted.get(t, 0) + 1
    print(f"# predicted {len(vectors)} rows in {time.perf_counter() - t0:.3f}s")
    if args.out:
        save_histogram(predicted, args.out)
    return 0


def cmd_segment(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, Model):
        raise DataError(f"{args.model}: not a numeric pixel model")
    if model.labels is None:
        raise DataError(f"{args.model}: model carries no label table")
    radius = _radius(_resolve_radius(args, model.X), model.R)  # checked first: usage, exit 1
    img = load_pnm(args.image)
    label_map = _checked(args.image, segment_image, model, model.labels, img, radius=radius)
    labels = sorted({str(v) for v in label_map.ravel()})
    # deterministic palette: well-spread colors in label sort order
    base = [(230, 60, 60), (60, 160, 60), (60, 90, 220), (230, 200, 40),
            (170, 60, 200), (60, 200, 200), (240, 140, 40), (140, 90, 40)]
    palette = {UNLABELED: (0, 0, 0)}
    for i, label in enumerate(lb for lb in labels if lb != UNLABELED):
        palette[label] = base[i % len(base)]
    out = args.out or "labels.ppm"
    save_label_map(label_map, palette, out)
    print(_report_header(args))
    for label in labels:
        print(f"{label} {(label_map == label).sum()}")
    return 0


def cmd_detect(args) -> int:
    level1, level2, masked = _checked(
        f"{args.background}, {args.object_frame}", train_detector,
        load_pnm(args.background), load_pnm(args.object_frame),
        radius=_resolve_radius(args, 256), window=args.window, threshold=args.threshold,
        freq_threshold=args.freq_threshold, cluster_dist=args.cluster_dist,
        meta_threshold=args.meta_threshold, meta_votes=args.meta_votes)
    print(_report_header(args))
    for path in args.queries:
        hit = _checked(path, detect_objects, level1, level2, masked, load_pnm(path),
                       args.meta_threshold, args.cluster_dist)
        if hit is None:
            print(f"{path} no-object")
        else:
            print(f"{path} object={hit[0]} activity={hit[1]}")
    return 0


def cmd_bench(args) -> int:
    report = run_bench(args.n_list, args.k, args.x, _resolve_radius(args, args.x), args.seed)
    print(_report_header(args))
    print(report.table())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_report_header(args) + "\n" + report.table() + "\n")
    return 0


def _add_radius(p, of: str):
    p.add_argument("--r", type=int, default=0, help="generalization radius")
    p.add_argument("--r-pct", type=float, default=None, dest="r_pct",
                   help=f"radius as percentage of {of} (overrides --r)")


def build_parser() -> _Parser:
    parser = _Parser(prog="invpat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model or parameter index from a table")
    p.add_argument("data")
    p.add_argument("--schema", default=None)
    p.add_argument("--model", default=None, help="output model file")
    p.add_argument("--x", type=int, default=256, help="feature range (exclusive)")
    _add_radius(p, "X")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify table rows with a saved model")
    p.add_argument("data")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="winner histogram output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", help="predict the parameter for table rows")
    p.add_argument("data")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="prediction histogram output")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("segment", help="label every pixel of an image")
    p.add_argument("image")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="label map PPM path")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--r-pct", type=float, default=None, dest="r_pct")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("detect", help="background-robust object detection")
    p.add_argument("background")
    p.add_argument("object_frame")
    p.add_argument("queries", nargs="+")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--threshold", type=int, default=12)
    p.add_argument("--freq-threshold", type=int, default=5, dest="freq_threshold")
    p.add_argument("--cluster-dist", type=int, default=1, dest="cluster_dist")
    p.add_argument("--meta-threshold", type=int, default=2, dest="meta_threshold")
    p.add_argument("--meta-votes", type=int, default=1, dest="meta_votes",
                   help="second-level recognition threshold")
    _add_radius(p, "256, the pixel value range")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="latency-vs-K*h scaling report")
    p.add_argument("--n-list", type=_int_list, default="1000,10000,100000", dest="n_list")
    p.add_argument("--k", type=int, default=26)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x", type=int, default=256, help="feature range (exclusive)")
    _add_radius(p, "X")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"invpat: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"invpat: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map everything else to exit 3
        print(f"invpat: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
