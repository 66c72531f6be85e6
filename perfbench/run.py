"""invpat benchmark: end-to-end metrics per workload and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload learn-r0 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

The workloads are those of BENCHMARK.json: vote-r10, learn-r0, rul-predict
and detect-r10.

The runner starts two single-threaded processes in turn: one makes the
inputs and the oracle's expected outputs from the seed under
``.bench_work/``, the other sets up, measures (closed loop, one client)
and checks every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The times of an untraced run are scaled to a reference host speed measured
between ops (see hostspeed.py); the wall-clock figures are on its ``#`` line.
If a worker process fails, the last line still comes, with ``correct``
false and no metrics, and the exit code is 1.
A per-layer metric of a layer the workload never reaches reads 0. A traced
run measures each workload's fixed window of ops instead of ``--seconds``,
so its counts repeat exactly for a seed; it also writes its spans to
``.bench_work/traces/``.

Which layer metric should move which end-to-end metric, on which workload:

    index.Model.{classify,classify_counted}.*, ClassHistogram.from_counts.*,
    index.touched_per_query, avg_height, kh, full_match_ratio
        -> latency, throughput on learn-r0 and vote-r10 (not rul-predict, detect-r10)
    index.Model.{train_step,insert_class}.*, index.created_ratio
        -> throughput, peak_rss_mb on learn-r0; setup_s on detect-r10
    io_persist.load_model.*, io_persist.save_model.*, io_persist.model_bytes
        -> setup_s on vote-r10, throughput on learn-r0
    io_persist.{load_csv,normalize_columns}.*
        -> setup_s on rul-predict
    predictor.{build_param_index,predict_value}.*, no_evidence_ratio, table_entries
        -> setup_s, latency on rul-predict only
    vision.{select_pixel_classes,cluster_pixels,recognize_clusters,detect_objects}.*,
    vision.unique_colors_per_query, clusters_per_query
        -> latency, throughput on detect-r10 only
    vision.{diff_mask,train_pixels,build_class_mask}.*, vision.masked_classes
        -> setup_s on detect-r10
    netpbm.load_pnm.*, levels.histogram_to_metapattern.*, levels.meta_size_mean,
    index.CategoricalModel.classify.*
        -> latency (small share) on detect-r10
    cli.{classify,train,predict,detect}.s, cli.*.overhead_ratio
        -> none: informational, the end-to-end metrics drive the library
    trace.overhead_ratio, trace.untraced_ratio, trace.setup_untraced_ratio
        -> cost and coverage of the trace itself, on every workload

The counters (touched_per_query, created_ratio, unique_colors_per_query,
table_entries, ...) cover the fixed traced window and repeat exactly for a
seed, so a slowdown can be put down to more work or to slower work.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MARGIN_S = 140  # generation, set-up and checks of one run end within --seconds + this
# The runner imports neither numpy nor invpat, so the measuring process,
# whose peak RSS is a metric, starts from a small inherited high-water mark.


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    began = time.monotonic()
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "traces").mkdir(exist_ok=True)
    spans = WORK / "traces" / f"{name}-seed{seed}.spans.json.gz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    base = [sys.executable, str(HERE / "worker.py")]
    common = ["--workload", name, "--work", str(work)]
    try:
        for cmd in (base + ["generate"] + common + ["--seed", str(seed)],
                    base + ["measure"] + common + ["--seconds", str(seconds),
                                                   "--trace", str(trace), "--spans", str(spans)]):
            sys.stdout.flush()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                           timeout=max(1.0, seconds + MARGIN_S - (time.monotonic() - began)))
        result = json.loads((work / "result.json").read_text())
        result["info"].update(json.loads((work / "inputs.json").read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["info"].update({"workload": name, "seed": seed, "trace": trace,
                           "ops": result["attempted"], "nproc": os.cpu_count(),
                           "cpu": cpu_model()})
    return result


def select_metrics(result: dict, spec: list[dict], fill_zero: bool) -> dict:
    """Exactly the metrics listed in ``spec``, with their units."""
    got = result["metrics"]
    out = {}
    for m in spec:
        if m["name"] not in got and not fill_zero:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": got.get(m["name"], 0), "unit": m["unit"]}
    return out


def report(name: str, result: dict, metrics: dict) -> None:
    print(f"# {name}: " + json.dumps(result["info"], sort_keys=True))
    samples = result["info"].get("latency_samples")
    for metric, m in metrics.items():
        note = f"  (n={samples} samples)" if metric.startswith("latency_") else ""
        print(f"{name:<12} {metric:<44} {m['value']:>16.6f} {m['unit']}{note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "invpat" / "__init__.py").is_file():
        print(f"perfbench: invpat sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    if args.workload not in known + ["all"]:
        ap.error(f"unknown workload {args.workload!r}; choose from {known} or all")
    names = known if args.workload == "all" else [args.workload]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_one(name, args.seed, seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: {name} failed: {exc!r}", file=sys.stderr)
            # the failed workload counts as one attempted, failed op
            print(json.dumps({"correct": False, "attempted": attempted + 1,
                              "failed": failed + 1, "metrics": {}}))
            return 1
        chosen = select_metrics(result, spec, fill_zero=bool(args.trace))
        report(name, result, chosen)
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            metrics = chosen
        else:
            metrics.update({f"{name}.{k}": v for k, v in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
