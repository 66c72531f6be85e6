"""learn-r0: instant learning of a row stream at R=0, ending in save_model.

Half the rows repeat an earlier row (full match), half are new clustered
rows (a class is created). This is the append path, the exact-match test
and the write side of io_persist; N grows during every episode.
"""

from __future__ import annotations

from invpat import index, io_persist
import numpy as np

from common import clustered_rows, digest, write_int_csv
from .base import Workload

K, X = 26, 256
ROWS, CENTRES, SIGMA = 20_000, 64, 12.0


class LearnR0(Workload):
    name = "learn-r0"
    episode = ROWS    # one episode: a fresh model learns every row, then is saved
    cycle = ROWS
    window = ROWS
    setup_reps = 5

    @staticmethod
    def generate(rng, work):
        centres = rng.uniform(3 * SIGMA, X - 3 * SIGMA, size=(CENTRES, K))
        rows = clustered_rows(rng, centres, ROWS, SIGMA, X)
        repeat = rng.random(ROWS) < 0.5
        repeat[0] = False
        source = (rng.random(ROWS) * np.arange(ROWS)).astype(np.int64)
        for i in np.flatnonzero(repeat):
            rows[i] = rows[source[i]]
        write_int_csv(work / "rows.csv", rows)
        # oracle: replay with a dict of the prototypes stored so far
        seen: dict[tuple, int] = {}
        expected = []
        for row in map(tuple, rows.tolist()):
            n = seen.get(row)
            expected.append((n, 0) if n else (seen.setdefault(row, len(seen) + 1), 1))
        np.save(work / "expected.npy", np.array(expected, dtype=np.int64))
        return digest(work, ["rows.csv"])

    def setup(self):
        rows = io_persist.load_csv(self.work / "rows.csv")
        return [tuple(int(v) for v in r) for r in rows]

    def start_episode(self):
        self.model = index.Model(K, X, 0)

    def end_episode(self):
        io_persist.save_model(self.model, self.work / "learned.ipat")

    def op(self, i):
        return self.model.train_step(self.s[i % ROWS])

    def reduce(self, result):
        return (result[0], int(result[1]))

    def load_oracle(self):
        self.expected = [tuple(row) for row in np.load(self.work / "expected.npy").tolist()]

    def verify(self, i, output):
        return output == self.expected[i % ROWS]

    def extra_failures(self):
        """The last saved model must read back as the created rows, in order."""
        created = [self.s[i] for i, (_, new) in enumerate(self.expected) if new]
        return int(io_persist.load_model(self.work / "learned.ipat").prototypes != created)

    def counters(self, outputs, rec):
        # untimed replay of one episode: posting mass touched before each step
        model = index.Model(K, X, 0)
        touched = 0
        for x, (_, new) in zip(self.s, self.expected):
            touched += model.touched_mass(x)
            if new:
                model.insert_class(x)
        created = sum(o[1] for o in outputs[:self.window]) / self.window
        h = model.avg_height()
        return {
            "index.touched_per_query": touched / ROWS,
            "index.created_ratio": created,
            "index.full_match_ratio": 1.0 - created,
            "index.avg_height": h,
            "index.kh": K * h,
            "io_persist.model_bytes": (self.work / "learned.ipat").stat().st_size,
        }

    def cli_flow(self):
        return "train", [["train", str(self.work / "rows.csv"), "--x", str(X), "--r", "0",
                          "--model", str(self.work / "cli_learned.ipat")]]

    def cli_matches(self, outputs, stdouts):
        created = sum(o[1] for o in outputs[:ROWS])
        n = max(o[0] for o in outputs[:ROWS])
        line = next(ln for ln in stdouts[0].splitlines() if ln.startswith("trained "))
        same_file = ((self.work / "cli_learned.ipat").read_bytes()
                     == (self.work / "learned.ipat").read_bytes())
        return line.startswith(f"trained N={n} created={created} ") and same_file
