"""Host-speed calibration: a fixed reference computation timed between ops.

On a shared VM the speed of a core changes by up to about 1.6x for seconds
to minutes at a time, when another tenant loads the same physical core.
Wall times taken minutes apart then differ by more than any useful bound,
and no statistic taken inside one run removes that: the whole run may fall
into a slow stretch. The benchmark therefore times a fixed reference
computation, which never calls invpat, every ``EVERY_S`` seconds between
ops (outside every op timer), and reports each time interval scaled to a
host on which the reference takes ``REF_S`` seconds:

    reported = measured * REF_S / (reference time measured around it)

A change to invpat changes the measured intervals but not the reference,
so it shows in the reported times in full; a slow stretch of the host
slows both and cancels. The raw wall-clock figures go into the result's
``info`` next to the scaled ones.
"""

from __future__ import annotations

import gc
from array import array
from time import perf_counter

import numpy as np

REF_S = 0.010   # nominal reference time; about its uncontended time on a 2-vCPU Xeon VM
EVERY_S = 0.25  # gap between reference samples inside a timed phase
HALF = 3        # a factor is the median of the 2*HALF samples nearest to the instant
SETUP_HALF = 8  # the same around each set-up, which is one long interval

_rng = np.random.default_rng(0)
# id lists of random length over 20k ids: the shape of a posting-list sweep
_LISTS = [_rng.integers(0, 20_000, size=n).tolist() for n in _rng.integers(1, 100, size=1000)]
_A = _rng.integers(0, 256, size=(300, 3)).astype(np.int16)
_B = _rng.integers(0, 256, size=(200, 3)).astype(np.int16)
_C = _rng.integers(0, 1 << 20, size=16_000)


def reference() -> int:
    """Fixed work in the two styles invpat runs: pure-Python vote counting
    into a dict over id lists (the posting-list shape, with a working set
    of a 20k-class model), then numpy broadcasting and a sort (the vision
    shape). Never change it: reported times are relative to it."""
    counts: dict[int, int] = {}
    get = counts.get
    for ids in _LISTS:
        for n in ids:
            counts[n] = get(n, 0) + 1
    hit = np.abs(_A[:, None, :] - _B[None, :, :]).max(axis=2) <= 10
    return len(counts) + int(hit.sum()) + len(np.unique(_C))


class Clock:
    """Reference samples (mid time, duration) and the speed factors they give."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.last = float("-inf")

    def sample(self, times: int = 1) -> None:
        # a collection of the workload's heap must not land in a sample; the
        # reference leaves no cycles behind, so nothing piles up meanwhile
        gc.disable()
        try:
            for _ in range(times):
                t0 = perf_counter()
                reference()
                t1 = perf_counter()
                self.at.append((t0 + t1) / 2)
                self.took.append(t1 - t0)
        finally:
            gc.enable()
        self.last = t1

    def maybe_sample(self) -> None:
        """One sample if EVERY_S has passed since the last one."""
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self, instants, half: int = HALF) -> np.ndarray:
        """REF_S over the median reference time of the 2*half samples
        nearest to each instant (fewer when fewer were taken)."""
        took = np.frombuffer(self.took)
        width = min(2 * half, len(took))
        medians = np.median(np.lib.stride_tricks.sliding_window_view(took, width), axis=1)
        first = np.searchsorted(np.frombuffer(self.at), np.asarray(instants, dtype=np.float64))
        return REF_S / medians[np.clip(first - half, 0, len(medians) - 1)]

    def median_s(self) -> float:
        return float(np.median(np.frombuffer(self.took)))
