"""What every workload provides to the worker.

``generate`` runs in a process of its own: it writes the inputs and the
oracle's expected outputs into the work directory and returns a digest of
the generated inputs. Everything else runs in the measuring process.

``setup`` holds the program calls a user pays before the first op and
returns the state the ops use. ``op(i)`` is the one user-facing call that
is timed. A phase runs whole episodes of ``episode`` ops. Ops i and
i + ``cycle`` repeat the same input on the same state, so a run's
latency for each of the ``cycle`` inputs is the median of its repeats.
``window`` is the fixed op count of each phase of the traced run, so the
work counters taken over it repeat exactly per seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class Workload:
    name = ""
    episode = 1
    cycle = 1
    window = 0
    setup_reps = 5

    def __init__(self, work: Path):
        self.work = work
        self.s = None  # state returned by setup

    @staticmethod
    def generate(rng: np.random.Generator, work: Path) -> str:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def start_episode(self) -> None:
        pass

    def end_episode(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def reduce(self, result):
        """The part of an op's result that the oracle checks."""
        return result

    def load_oracle(self) -> None:
        """Read the expected outputs; runs after setup, before any timing."""
        raise NotImplementedError

    def verify(self, i: int, output) -> bool:
        """Whether op i's output matches the oracle; an exception never does."""
        raise NotImplementedError

    def extra_failures(self) -> int:
        """Failed checks on what the phase left behind (e.g. a saved model)."""
        return 0

    def counters(self, outputs: list, rec) -> dict[str, float]:
        """Work counters over the traced window, computed untraced."""
        return {}

    def cli_flow(self) -> tuple[str, list[list[str]]]:
        """(flow name, cli argument lists run in order through cli.main)."""
        raise NotImplementedError

    def cli_matches(self, outputs: list, stdouts: list[str]) -> bool:
        """Whether the CLI flow printed what the library-driven ops returned."""
        raise NotImplementedError
