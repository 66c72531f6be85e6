"""Object detection against a textured background.

Training: difference of the background frame and the object frame gives a
mask; the pixel model trains on the masked pixels; classes that also fire
all over the background get masked out; the biggest cluster of the
remaining pixels trains a categorical second level. ``train_detector`` does
all of this. Recognition: the unmasked matched pixels are cut into row runs
(a row's pixels with column gaps up to the cluster distance), union-find
joins the runs that come within that distance, and each cluster's class
histogram is recognized at the second level.
"""

import numpy as np

from invpat import RasterImage, detect_objects, train_detector

rng = np.random.default_rng(4)
palette = np.array([[12, 12, 12], [32, 32, 32], [52, 52, 52]], dtype=np.uint8)
bg = palette[rng.integers(0, 3, size=(96, 96))]
frame = bg.copy()
frame[30:60, 30:60] = (220, 40, 40)   # striped toy object
frame[38:52, 38:52] = (40, 220, 40)
background, object_frame = RasterImage(bg), RasterImage(frame)

level1, level2, masked = train_detector(
    background, object_frame, radius=10, window=3, threshold=12, freq_threshold=3,
    cluster_dist=1, meta_threshold=2, meta_votes=1)
print(f"trained {level1.N} pixel classes from the difference image, "
      f"{len(masked)} masked as background")
print(f"object learned as second-level class {level2.N}, "
      f"a meta-pattern of {len(level2.stored[-1])} pixel classes")

for name, img in [("background frame", background), ("object frame", object_frame)]:
    hit = detect_objects(level1, level2, masked, img, meta_threshold=2, cluster_dist=1)
    verdict = "no object" if hit is None else f"object class {hit[0]}, activity {hit[1]}"
    print(f"{name}: {verdict}")
