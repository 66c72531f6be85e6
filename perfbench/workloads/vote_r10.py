"""vote-r10: read-only classification of a loaded numeric model at R=10.

N prototypes drawn around Gaussian centres give skewed posting heights;
the 21-value window sweep per dimension is where the voting kernel does
nearly all of its work, with no writes mixed in. Half the queries lie
within R of a stored prototype (full match), half are fresh draws.
"""

from __future__ import annotations

from invpat import index, io_persist
import numpy as np

from common import clustered_rows, digest, vote_oracle, write_int_csv
from .base import Workload

K, X, R = 26, 256, 10
N, CENTRES, SIGMA = 20_000, 64, 12.0
POOL = 256        # distinct queries; ops cycle through them
CLI_ROWS = 64     # rows the traced run classifies once more through the CLI


class VoteR10(Workload):
    name = "vote-r10"
    cycle = POOL
    window = POOL
    setup_reps = 5

    @staticmethod
    def generate(rng, work):
        centres = rng.uniform(3 * SIGMA, X - 3 * SIGMA, size=(CENTRES, K))
        protos = clustered_rows(rng, centres, N, SIGMA, X)
        half = POOL // 2
        near = protos[rng.integers(0, N, size=half)] + rng.integers(-R, R + 1, size=(half, K))
        fresh = clustered_rows(rng, centres, POOL - half, SIGMA, X)
        queries = np.concatenate([np.clip(near, 0, X - 1), fresh])[rng.permutation(POOL)]
        write_int_csv(work / "queries.csv", queries)
        write_int_csv(work / "cli_queries.csv", queries[:CLI_ROWS])
        model = index.Model(K, X, R)
        for row in protos.tolist():
            model.insert_class(row)
        io_persist.save_model(model, work / "model.ipat")
        np.save(work / "expected.npy", vote_oracle(queries, protos, R))
        return digest(work, ["queries.csv"], (protos,))

    def setup(self):
        model = io_persist.load_model(self.work / "model.ipat")
        rows = io_persist.load_csv(self.work / "queries.csv")
        return model, [tuple(int(v) for v in r) for r in rows]

    def op(self, i):
        model, queries = self.s
        return model.classify(queries[i % POOL])

    def reduce(self, hist):
        return (hist.argmax or 0, hist.max_count)

    def load_oracle(self):
        self.expected = [tuple(row) for row in np.load(self.work / "expected.npy").tolist()]

    def verify(self, i, output):
        return output == self.expected[i % POOL]

    def counters(self, outputs, rec):
        model, queries = self.s
        window = outputs[:self.window]
        h = model.avg_height()
        return {
            "index.touched_per_query": float(np.mean(
                [model.touched_mass(q) for q in queries[:self.window]])),
            "index.full_match_ratio": sum(o[1] == K for o in window) / len(window),
            "index.avg_height": h,
            "index.kh": K * h,
            "io_persist.model_bytes": (self.work / "model.ipat").stat().st_size,
        }

    def cli_flow(self):
        return "classify", [["classify", str(self.work / "cli_queries.csv"),
                             "--model", str(self.work / "model.ipat")]]

    def cli_matches(self, outputs, stdouts):
        lines = [ln.split() for ln in stdouts[0].splitlines() if not ln.startswith("#")]
        if len(lines) != CLI_ROWS:
            return False
        for (row, verdict, count), (argmax, max_count) in zip(lines, outputs):
            if verdict.startswith("class="):
                ok = max_count == K and verdict == f"class={argmax}" and count == f"votes={K}"
            else:
                ok = max_count < K and count == f"max={max_count}"
            if not ok:
                return False
        return True
