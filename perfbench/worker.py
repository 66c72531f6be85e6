"""Processes of one benchmark run, started by run.py one after the other.

``generate`` writes the inputs and the oracle's expected outputs; it runs
in a process of its own so that the measuring process does not inherit
its memory high-water mark (getrusage keeps it across exec).

One client, closed loop: each op is issued only after the previous one has
returned. In ``measure`` mode a timed run sets up ``setup_reps`` times
(setup_s is the median) and then runs whole episodes until at least
MIN_OPS ops and ``--seconds`` have passed; every time it reports is scaled
by the host-speed clock of hostspeed.py. A traced run sets up once under
the span recorder, runs the workload's fixed window untraced, traced (then
drives the matching CLI flow once through ``cli.main``, still traced) and
untraced again. Every output is checked against the oracle; the result
goes to ``<work>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import invpat.cli
import numpy as np

import hostspeed
import tracer
from workloads import WORKLOADS

MIN_OPS = 100  # every workload's cycle has >= 100 inputs too, so >= 10 latency samples lie beyond p90


@dataclass
class Phase:
    """What one timed phase measured; times in s, instants in perf_counter s."""
    lat: array = field(default_factory=lambda: array("d"))      # per-op latency
    at: array = field(default_factory=lambda: array("d"))       # per-op start
    edge: array = field(default_factory=lambda: array("d"))     # episode start/end calls
    edge_at: array = field(default_factory=lambda: array("d"))
    kept: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0


def run_phase(wl, min_ops: int, seconds: float, rec=None, keep: int = 0,
              clock: hostspeed.Clock | None = None) -> Phase:
    """Ops in whole episodes until min_ops and seconds are both reached.

    Each output is checked against the oracle as it arrives, outside the
    op's timer; an op that raises counts as failed. Only the first ``keep``
    outputs are kept, so the process's memory does not grow with the op
    count. With a ``clock``, reference samples are taken between ops.
    """
    ph = Phase()

    def edge(call):
        if rec:
            rec.op = tracer.BETWEEN
        t0 = perf_counter()
        call()
        ph.edge.append(perf_counter() - t0)
        ph.edge_at.append(t0)

    i = 0
    start = perf_counter()
    while True:
        if i % wl.episode == 0:
            edge(wl.start_episode)
        if clock:
            clock.maybe_sample()
        if rec:
            rec.op = i
        t0 = perf_counter()
        try:
            result = wl.op(i)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted below
            result = exc
        ph.lat.append(perf_counter() - t0)
        ph.at.append(t0)
        out = result if isinstance(result, Exception) else wl.reduce(result)
        ph.failed += not wl.verify(i, out)
        if i < keep:
            ph.kept.append(out)
        i += 1
        if i % wl.episode == 0:
            edge(wl.end_episode)
            if i >= min_ops and perf_counter() - start >= seconds:
                ph.wall = perf_counter() - start
                return ph


def repeat_medians(lat: np.ndarray, cycle: int) -> np.ndarray:
    """Median latency of each input: op i repeats input i % cycle.

    A single op's time is mostly the host's noise of that moment (repeats
    of one input correlate by about 0.03 on a shared VM), so the latency
    percentiles are taken over inputs, each at the median of its repeats.
    """
    pos = np.arange(len(lat)) % cycle
    ordered = lat[np.lexsort((lat, pos))]
    counts = np.bincount(pos)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    return (ordered[starts + (counts - 1) // 2] + ordered[starts + counts // 2]) / 2


def timed(wl, seconds: float) -> dict:
    """End-to-end metrics, every time scaled by the host-speed clock.

    throughput_ops_s is ops over the scaled time of the ops and the episode
    start/end calls (oracle checks and reference samples are not program
    time); latency_p50_ms and latency_p90_ms are percentiles over the
    workload's distinct inputs; setup_s is the median of ``setup_reps``
    scaled set-ups.
    """
    clock = hostspeed.Clock()
    setups, setup_at = [], []
    for _ in range(wl.setup_reps):
        wl.s = None
        gc.collect()
        clock.sample(hostspeed.SETUP_HALF)
        t0 = perf_counter()
        wl.s = wl.setup()
        setups.append(perf_counter() - t0)
        setup_at.append(t0 + setups[-1] / 2)
    clock.sample(hostspeed.SETUP_HALF)
    wl.load_oracle()
    gc.collect()
    clock.sample(hostspeed.HALF)
    ph = run_phase(wl, max(MIN_OPS, wl.episode), seconds, clock=clock)
    clock.sample(hostspeed.HALF)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = ph.failed + wl.extra_failures()

    raw = np.frombuffer(ph.lat)
    lat_ms = raw * clock.factor(ph.at) * 1e3
    edge_s = float(np.sum(np.frombuffer(ph.edge) * clock.factor(ph.edge_at)))
    setup = np.array(setups) * clock.factor(setup_at, hostspeed.SETUP_HALF)
    ops = len(lat_ms)
    per_input = repeat_medians(lat_ms, wl.cycle)
    p50, p90 = np.percentile(per_input, [50, 90])
    return {
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "throughput_ops_s": ops / (lat_ms.sum() / 1e3 + edge_s),
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "setup_s": float(np.median(setup)),
            "peak_rss_mb": peak_mb,
            "success_rate": 1.0 - failed / ops,
        },
        "info": {"latency_samples": len(per_input),
                 "samples_beyond_p90": int((per_input > p90).sum()),
                 "repeats_per_input": ops / len(per_input),
                 "error_rate": failed / ops, "phase_s": ph.wall,
                 "setup_runs_s": setup.tolist(), "wall_setup_runs_s": setups,
                 "wall_throughput_ops_s": ops / ph.wall,
                 "wall_latency_p50_p90_ms": np.percentile(raw * 1e3, [50, 90]).tolist(),
                 "reference_samples": len(clock.took),
                 "reference_median_ms": clock.median_s() * 1e3},
    }


def run_cli(calls) -> tuple[list[int], list[str], float]:
    codes, stdouts = [], []
    t0 = perf_counter()
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(invpat.cli.main(argv))
        stdouts.append(out.getvalue())
    return codes, stdouts, perf_counter() - t0


def traced(wl, spans_path: Path) -> dict:
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        t0 = perf_counter()
        wl.s = wl.setup()
        setup_s = perf_counter() - t0
    finally:
        tracer.uninstall(patches)
    wl.load_oracle()
    # untraced, traced, untraced: the overhead compares against the mean of
    # the two untraced windows, which cancels slow drift of the machine
    gc.collect()
    before = run_phase(wl, wl.window, 0)
    gc.collect()
    patches = tracer.install(rec)
    try:
        ph = run_phase(wl, wl.window, 0, rec, keep=wl.window)
        outs = ph.kept
        rec.op = tracer.CLI
        first_cli_span = len(rec.spans)
        flow, calls = wl.cli_flow()
        codes, stdouts, cli_s = run_cli(calls)
    finally:
        tracer.uninstall(patches)
    gc.collect()
    after = run_phase(wl, wl.window, 0)
    wall_plain = (before.wall + after.wall) / 2
    rec.dump(spans_path)

    failed = before.failed + ph.failed + after.failed + wl.extra_failures()
    cli_ok = all(code == 0 for code in codes) and wl.cli_matches(outs, stdouts)
    op_s = float(np.sum(ph.lat))
    metrics = rec.layer_stats()
    metrics.update(wl.counters(outs, rec))
    metrics.update({
        f"cli.{flow}.s": cli_s,
        f"cli.{flow}.overhead_ratio": (cli_s - rec.library_share(first_cli_span)) / cli_s,
        "trace.overhead_ratio": ph.wall / wall_plain,
        "trace.untraced_ratio": (op_s - rec.top_level_s(lambda op: op >= 0)) / op_s,
        "trace.setup_untraced_ratio":
            (setup_s - rec.top_level_s(lambda op: op == tracer.SETUP)) / setup_s,
    })
    return {
        "attempted": len(before.lat) + len(ph.lat) + len(after.lat) + 1,
        "failed": failed + (not cli_ok),
        "metrics": metrics,
        "info": {"window_ops": len(outs), "spans": len(rec.spans), "spans_file": str(spans_path),
                 "cli_exit_codes": codes, "cli_matches_library": cli_ok,
                 "untraced_window_s": [before.wall, after.wall], "traced_window_s": ph.wall},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("generate", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    if args.mode == "generate":
        digest = WORKLOADS[args.workload].generate(np.random.default_rng(args.seed), args.work)
        (args.work / "inputs.json").write_text(json.dumps({"input_digest": digest}))
        return
    wl = WORKLOADS[args.workload](args.work)
    result = traced(wl, args.spans) if args.trace else timed(wl, args.seconds)
    result["info"].update({"python": platform.python_version(), "numpy": np.__version__})
    (args.work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
