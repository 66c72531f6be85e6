"""Scaling benchmark for the classification cost model.

Classification cost should track K * h, where h is the average height of
the non-empty posting lists. The bench builds uniform synthetic models at
several class counts, measures the median classify latency and the
touched posting mass, and fits latency against K * h by least squares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .index import Model, _setting

ROUNDS = 8  # passes over the query list per timed repeat, so a repeat outlasts timer noise


@dataclass
class BenchPoint:
    n_classes: int
    h: float
    kh: float
    touched_mean: float
    latency_s: float


@dataclass
class BenchReport:
    points: list[BenchPoint]
    slope: float
    intercept: float
    r2: float

    def table(self) -> str:
        lines = [f"{'N':>9} {'h':>10} {'K*h':>12} {'touched':>10} {'latency_us':>12}"]
        for p in self.points:
            lines.append(f"{p.n_classes:>9} {p.h:>10.2f} {p.kh:>12.1f} "
                         f"{p.touched_mean:>10.1f} {p.latency_s * 1e6:>12.2f}")
        lines.append(f"fit: latency = {self.slope:.3e} * (K*h) + {self.intercept:.3e}, "
                     f"R^2 = {self.r2:.4f}")
        return "\n".join(lines)


def uniform_model(n_classes: int, k: int, x: int, r: int, rng: np.random.Generator) -> Model:
    """Model populated with uniform random class prototypes."""
    model = Model(k, x, r)
    model.insert_classes(rng.integers(0, x, size=(n_classes, k)))
    return model


def run_bench(n_list, k: int, x: int, r: int, seed: int,
              queries: int = 50, repeats: int = 5) -> BenchReport:
    """Sweep class counts, timing classification against K * h.

    One warm-up pass is excluded; the reported latency is the median over
    ``repeats`` timed repeats of the per-query mean, each repeat running the
    query list ``ROUNDS`` times. Every class count is an integer >= 1 and the
    seed an integer >= 0 (``index._setting``), and the fit needs two distinct
    class counts; all are checked before any model is built.
    """
    n_list = [_setting(n, "class count") for n in n_list]
    seed = _setting(seed, "seed", 0)
    if len(set(n_list)) < 2:
        raise ValidationError(f"a fit needs at least two distinct class counts, got {n_list}")
    rng = np.random.default_rng(seed)
    points = []
    for n in n_list:
        model = uniform_model(n, k, x, r, rng)
        qs = [row.tolist() for row in rng.integers(0, x, size=(queries, k))]
        for q in qs:  # warm-up; the first query builds the snapshot
            model.classify(q)
        reps = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(ROUNDS):
                for q in qs:
                    model.classify(q)
            reps.append((time.perf_counter() - t0) / (ROUNDS * len(qs)))
        touched = float(np.mean([model.touched_mass(q) for q in qs]))
        h = model.avg_height()
        points.append(BenchPoint(n, h, k * h, touched, float(np.median(reps))))
    kh = np.array([p.kh for p in points])
    lat = np.array([p.latency_s for p in points])
    slope, intercept = np.polyfit(kh, lat, 1)
    pred = slope * kh + intercept
    ss_res = float(((lat - pred) ** 2).sum())
    ss_tot = float(((lat - lat.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return BenchReport(points, float(slope), float(intercept), r2)
