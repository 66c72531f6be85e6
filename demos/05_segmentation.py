"""Teacher-labeled pixel segmentation and the effect of the radius.

A noisy three-region image is trained from one small sub-area per region;
every inner class discovered inside a sub-area inherits that region's
label. With a radius of 10% of the range nearly every pixel is labeled by
a tiny model; with radius 0 most pixels outside the sub-areas stay
unlabeled. Writes before/after images next to this script.
"""

from pathlib import Path

import numpy as np

from invpat import (
    LabelTable,
    Model,
    RasterImage,
    UNLABELED,
    save_label_map,
    save_pnm,
    segment_image,
    train_pixels,
)

rng = np.random.default_rng(3)
size = 256
bases = np.array([[40, 60, 200], [200, 50, 50], [60, 180, 60]])
names = ["water", "buildings", "vegetation"]
region = np.repeat(np.arange(3), size // 3 + 1)[:size]
truth = np.tile(region, (size, 1))
img = RasterImage(np.clip(np.rint(bases[truth] + rng.normal(0, 8, (size, size, 3))),
                          0, 255).astype(np.uint8))

subareas = [(110, 30), (110, 110), (110, 200)]  # 30x30 training corners


def teach(radius):
    model = Model(K=3, X=256, R=radius)
    table = LabelTable()
    for label, (r0, c0) in zip(names, subareas):
        before = model.N
        mask = np.zeros((size, size), bool)
        mask[r0:r0 + 30, c0:c0 + 30] = True
        train_pixels(model, img, mask)
        for n in range(before + 1, model.N + 1):
            table.attach(n, label)
    return model, table


out_dir = Path(__file__).parent
save_pnm(img, out_dir / "segmentation_input.ppm")
palette = {"water": (40, 60, 200), "buildings": (200, 50, 50),
           "vegetation": (60, 180, 60), UNLABELED: (0, 0, 0)}

for radius in (0, 26):
    model, table = teach(radius)
    labels = segment_image(model, table, img)
    covered = (labels != UNLABELED).mean()
    correct = (labels == np.array(names, dtype=object)[truth]).mean()
    print(f"R={radius:>2}: inner classes N={model.N:>5}, "
          f"labeled {covered:.1%}, correct {correct:.1%}")
    save_label_map(labels, palette, out_dir / f"segmentation_r{radius}.ppm")
print("wrote segmentation_input.ppm and label maps to", out_dir)
