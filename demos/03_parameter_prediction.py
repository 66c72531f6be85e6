"""Predicting a scalar parameter by histogram accumulation.

A synthetic machine degrades over its life: sensor readings drift with the
remaining lifetime. Training rows pair each reading with the cycles left;
prediction sums the per-feature count tables for a query and takes the
histogram argmax. The skew diagnostic flags the symmetry breakdown that
appears near end of life.
"""

import numpy as np

from invpat import build_param_index, histogram_spread, predict_histogram, predict_value

rng = np.random.default_rng(1)

rows = []
for unit in range(60):
    life = int(rng.integers(150, 260))
    for cycle in range(life):
        remaining = life - cycle
        wear = 1.0 - remaining / 260
        sensors = np.clip(
            (np.array([80, 120, 160, 60]) + wear * np.array([60, -40, 50, 90])
             + rng.normal(0, 4, size=4)).astype(int), 0, 255)
        rows.append((sensors, remaining))  # the integer sensor array itself

idx = build_param_index(rows, X=256)
print(f"trained on {idx.rows} flights, t in [{idx.t_min}, {idx.t_max}]")

for true_remaining in (150, 60, 12):
    wear = 1.0 - true_remaining / 260
    q = np.clip(np.array([80, 120, 160, 60]) + wear * np.array([60, -40, 50, 90]),
                0, 255).astype(int)
    h = predict_histogram(idx, q)
    mode, mean, skew = histogram_spread(h)
    print(f"true remaining {true_remaining:>3}: predicted {predict_value(idx, q):>3}"
          f"  (mode {mode}, mean {mean:.1f}, skew {'+0-'[1 - skew]})")
