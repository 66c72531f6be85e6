"""rul-predict: remaining-life prediction from a synthetic run-to-failure table.

Units run from cycle 1 to a random life; 24 sensors drift with wear and
carry noise; the parameter-t column is the remaining cycles. The
predictor does all of the work and no posting list is touched, so a
change to the index layer should show no change here.
"""

from __future__ import annotations

import json

from invpat import io_persist, predictor
from invpat.errors import NoEvidenceError
import numpy as np

from common import digest
from .base import Workload

UNITS, TEST_UNITS, SENSORS, X = 100, 20, 24, 256
LIFE_MIN, LIFE_MAX = 128, 360


def _table(rng, lives, base, drift, noise, first_unit):
    """Rows (unit, cycle, sensors..., remaining cycles) and the sensor block."""
    rows, sensors = [], []
    for u, life in enumerate(lives, start=first_unit):
        cycle = np.arange(1, life + 1)
        wear = (cycle / life)[:, None] ** 2
        s = base + drift * wear + rng.normal(0.0, 1.0, size=(life, SENSORS)) * noise
        s = np.round(s, 4)
        sensors.append(s)
        for c, vals in zip(cycle.tolist(), s.tolist()):
            rows.append(f"{u},{c}," + ",".join(map(repr, vals)) + f",{life - c}")
    return rows, np.concatenate(sensors)


def _normalize(s, lo, hi):
    """invpat's min-max rule, written out: trunc((v - lo) / (hi - lo) * X), clamped."""
    return np.clip(np.trunc((s - lo) / (hi - lo) * X), 0, X - 1).astype(np.int64)


class RulPredict(Workload):
    name = "rul-predict"
    window = 2000
    setup_reps = 3

    @staticmethod
    def generate(rng, work):
        # lives spread evenly over the range, in random order: the table's
        # size and its mix of remaining lives vary little from seed to seed
        lives = rng.permutation(np.linspace(LIFE_MIN, LIFE_MAX, UNITS).round().astype(np.int64))
        base = rng.uniform(100.0, 600.0, size=SENSORS)
        drift = rng.uniform(-0.2, 0.2, size=SENSORS) * base
        noise = rng.uniform(0.005, 0.02, size=SENSORS) * base
        train_lives, test_lives = lives[:-TEST_UNITS], lives[-TEST_UNITS:]
        header = "unit,cycle," + ",".join(f"s{j}" for j in range(1, SENSORS + 1)) + ",rul\n"
        train_rows, train_s = _table(rng, train_lives, base, drift, noise, 1)
        test_rows, test_s = _table(rng, test_lives, base, drift, noise, UNITS - TEST_UNITS + 1)
        for name, rows in (("train.csv", train_rows), ("test.csv", test_rows)):
            with open(work / name, "w") as fh:
                fh.write(header)
                fh.write("\n".join(rows) + "\n")
        columns = ([{"name": "unit", "role": "id"}, {"name": "cycle", "role": "ignore"}]
                   + [{"name": f"s{j}", "role": "feature"} for j in range(1, SENSORS + 1)]
                   + [{"name": "rul", "role": "parameter-t"}])
        (work / "schema.json").write_text(json.dumps({"columns": columns}, indent=1))

        # oracle: dense (dimension, value, t) counts, argmax with the smallest t on ties
        lo, hi = train_s.min(axis=0), train_s.max(axis=0)
        train_v, test_v = _normalize(train_s, lo, hi), _normalize(test_s, lo, hi)
        t = np.concatenate([life - np.arange(1, life + 1) for life in train_lives])
        counts = np.zeros((SENSORS, X, LIFE_MAX), dtype=np.int64)
        dims = np.broadcast_to(np.arange(SENSORS), train_v.shape)
        np.add.at(counts, (dims, train_v, np.broadcast_to(t[:, None], train_v.shape)), 1)
        acc = counts[np.arange(SENSORS), test_v].sum(axis=1)
        expected = np.where(acc.any(axis=1), acc.argmax(axis=1), -1)
        np.save(work / "expected.npy", expected)
        return digest(work, ["train.csv", "test.csv", "schema.json"])

    def setup(self):
        schema = io_persist.load_schema(self.work / "schema.json")
        rows = io_persist.load_csv(self.work / "train.csv")
        vectors = io_persist.normalize_columns(rows, schema, X)
        ts = io_persist.extract_parameter(rows, schema)
        idx = predictor.build_param_index(list(zip(vectors, ts)), X)
        test = io_persist.normalize_columns(io_persist.load_csv(self.work / "test.csv"), schema, X)
        return idx, test

    @property
    def cycle(self):
        return len(self.s[1])

    def op(self, i):
        idx, test = self.s
        return predictor.predict_value(idx, test[i % len(test)])

    def load_oracle(self):
        self.expected = np.load(self.work / "expected.npy").tolist()

    def verify(self, i, output):
        want = self.expected[i % len(self.expected)]
        return isinstance(output, NoEvidenceError) if want < 0 else output == want

    def counters(self, outputs, rec):
        idx, _ = self.s
        window = outputs[:self.window]
        return {
            "predictor.table_entries": sum(len(c) for table in idx.tables() for c in table.values()),
            "predictor.no_evidence_ratio": sum(isinstance(o, NoEvidenceError) for o in window)
            / len(window),
        }

    def cli_flow(self):
        model = str(self.work / "cli_index.ipat")
        return "predict", [
            ["train", str(self.work / "train.csv"), "--schema", str(self.work / "schema.json"),
             "--x", str(X), "--model", model],
            ["predict", str(self.work / "test.csv"), "--model", model],
        ]

    def cli_matches(self, outputs, stdouts):
        lines = [ln.split() for ln in stdouts[1].splitlines() if not ln.startswith("#")]
        n = min(len(lines), self.window)
        want = [["no-evidence"] if isinstance(o, NoEvidenceError) else [f"t={o}"]
                for o in outputs[:n]]
        return n == self.window and [ln[1:] for ln in lines[:n]] == want
