"""detect-r10: background-robust object detection at R=10.

A noisy three-tone background and a frame with a shaded object on it train
the level-1 pixel model from their difference image; the classes that fire
on the background are masked and the object's biggest cluster trains the
categorical level 2. Queries are fresh renders of the background, a third
of them with the object at a random position. This measures the vision
winner map, clustering and level-2 recognition, and bypasses posting
lists: a query's winner map is computed from the stored prototypes.
"""

from __future__ import annotations

from collections import Counter

from invpat import index, levels, netpbm, vision
import numpy as np

from common import digest, read_ppm, winner_map_oracle, write_ppm
from .base import Workload

SIZE, OBJ, R = 160, 40, 10
TONES, NOISE = (12, 32, 52), 5
OBJ_AT = (60, 60)        # object position in the training frame
POOL = 105               # distinct query frames; ops cycle through them
WITH_OBJECT = 35         # of POOL; a third, so p50 and p90 each fall inside one mode
SAMPLE = 3               # queries of each kind whose winner map is checked by brute force
CLI_QUERIES = 6
WINDOW, THRESHOLD, FREQ, META, DIST, VOTES = 3, 12, 5, 2, 1, 1
OBJECT_CLASS = 1         # the only level-2 class: the first a fresh model creates


def _noise(rng, shape):
    return rng.integers(-NOISE, NOISE + 1, size=shape + (3,))


def _background(rng):
    tones = np.array(TONES)[rng.integers(0, len(TONES), size=(SIZE, SIZE))]
    return tones[:, :, None] + _noise(rng, (SIZE, SIZE))


def _object(rng):
    """Shaded object: red and green ramps, blue brighter towards a corner.

    Red stays >= 120, so every object colour is far from the background tones.
    """
    r, c = np.mgrid[0:OBJ, 0:OBJ] / (OBJ - 1)
    shade = np.stack([120 + 130 * r, 20 + 200 * c, 60 + 140 * r * c], axis=2)
    return np.rint(shade).astype(np.int64) + _noise(rng, (OBJ, OBJ))


def _paste(img, obj, at):
    img[at[0]:at[0] + OBJ, at[1]:at[1] + OBJ] = obj
    return img


def _cluster_histograms(winners):
    """Class histogram of each 8-connected cluster (DIST=1) of a winner map,
    in the order of the clusters' topmost-leftmost members."""
    left = set(winners)
    out = []
    for seed in sorted(winners):
        if seed not in left:
            continue
        left.discard(seed)
        stack, hist = [seed], Counter()
        while stack:
            r, c = stack.pop()
            hist[winners[(r, c)]] += 1
            for p in ((r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)):
                if p in left:
                    left.discard(p)
                    stack.append(p)
        out.append(hist)
    return out


def _meta(hist):
    return frozenset(n for n, count in hist.items() if count >= META)


def detection_oracle(winners, object_meta):
    """Expected detect_objects output for a brute-force winner map: each
    cluster votes with the overlap of its meta-pattern and the object's;
    overlaps of at least VOTES add up to the activity."""
    overlaps = [len(_meta(h) & object_meta) for h in _cluster_histograms(winners)]
    activity = sum(v for v in overlaps if v >= VOTES)
    return (OBJECT_CLASS, activity) if activity else None


class DetectR10(Workload):
    name = "detect-r10"
    episode = POOL    # whole pool cycles keep the with/without-object mix fixed
    cycle = POOL
    window = POOL
    setup_reps = 5

    @staticmethod
    def generate(rng, work):
        background = _background(rng)
        write_ppm(work / "background.ppm", np.clip(background, 0, 255))
        write_ppm(work / "object.ppm", np.clip(_paste(background.copy(), _object(rng), OBJ_AT), 0, 255))
        present = rng.permutation(np.arange(POOL) < WITH_OBJECT)
        names = []
        for j, has_object in enumerate(present):
            img = _background(rng)
            if has_object:
                _paste(img, _object(rng), tuple(rng.integers(0, SIZE - OBJ + 1, size=2)))
            names.append(f"q{j:03d}.ppm")
            write_ppm(work / names[-1], np.clip(img, 0, 255))
        np.save(work / "expected.npy", present)
        return digest(work, ["background.ppm", "object.ppm"] + names)

    def setup(self):
        background = netpbm.load_pnm(self.work / "background.ppm")
        frame = netpbm.load_pnm(self.work / "object.ppm")
        level1 = index.Model(3, 256, R)
        mask = vision.diff_mask(background, frame, WINDOW, THRESHOLD)
        created = vision.train_pixels(level1, frame, mask)
        masked = vision.build_class_mask(level1, background, FREQ)
        level2 = index.CategoricalModel(max(level1.N, 1), VOTES, grow=True)
        classes = vision.select_pixel_classes(level1, frame, masked)
        clusters = vision.cluster_pixels(set(classes), DIST, classes)
        biggest = max(clusters, key=lambda cl: len(cl.members))
        object_class, _ = level2.train_step(
            levels.histogram_to_metapattern(biggest.class_histogram, META))
        return level1, level2, masked, object_class, created / int(mask.sum())

    def _query(self, j):
        return self.work / f"q{j:03d}.ppm"

    def op(self, i):
        level1, level2, masked, _, _ = self.s
        img = netpbm.load_pnm(self._query(i % POOL))
        return vision.detect_objects(level1, level2, masked, img, META, DIST)

    def load_oracle(self):
        """Known object presence per query; the expected (object, activity)
        of every query from brute-force winner maps of the set-up's level-1
        prototypes and mask; and, on the first SAMPLE queries with and SAMPLE
        without the object, the brute-force map against the library's."""
        level1, _, masked, _, _ = self.s
        self.present = np.load(self.work / "expected.npy").tolist()
        protos = np.array(level1.prototypes, dtype=np.int64)
        maps = [winner_map_oracle(read_ppm(self._query(j)), protos, R, masked)
                for j in range(POOL)]
        frame = winner_map_oracle(read_ppm(self.work / "object.ppm"), protos, R, masked)
        biggest = max(_cluster_histograms(frame), key=lambda h: sum(h.values()))
        self.expected = [detection_oracle(m, _meta(biggest)) for m in maps]
        sample = ([j for j in range(POOL) if self.present[j]][:SAMPLE]
                  + [j for j in range(POOL) if not self.present[j]][:SAMPLE])
        self.map_ok = {j: maps[j] == vision.select_pixel_classes(
                           level1, netpbm.load_pnm(self._query(j)), masked)
                       for j in sample}

    def verify(self, i, output):
        j = i % POOL
        if not self.present[j]:
            hit_ok = output is None
        else:
            hit_ok = isinstance(output, tuple) and output[0] == self.s[3] == OBJECT_CLASS
        return hit_ok and output == self.expected[j] and self.map_ok.get(j, True)

    def counters(self, outputs, rec):
        level1, _, masked, _, created_ratio = self.s
        colors = [len(np.unique(read_ppm(self._query(j)).reshape(-1, 3), axis=0))
                  for j in range(self.window)]
        _, clusters = rec.items("vision.cluster_pixels")
        meta_calls, meta_items = rec.items("levels.histogram_to_metapattern")
        h = level1.avg_height()
        return {
            "vision.masked_classes": len(masked),
            "vision.unique_colors_per_query": float(np.mean(colors)),
            "vision.clusters_per_query": clusters / self.window,
            "levels.meta_size_mean": meta_items / max(meta_calls, 1),
            "index.created_ratio": created_ratio,
            "index.avg_height": h,
            "index.kh": 3 * h,
        }

    def cli_flow(self):
        queries = [str(self._query(j)) for j in range(CLI_QUERIES)]
        return "detect", [["detect", str(self.work / "background.ppm"), str(self.work / "object.ppm"),
                           *queries, "--r", str(R), "--window", str(WINDOW),
                           "--threshold", str(THRESHOLD), "--freq-threshold", str(FREQ),
                           "--cluster-dist", str(DIST), "--meta-threshold", str(META),
                           "--meta-votes", str(VOTES)]]

    def cli_matches(self, outputs, stdouts):
        lines = [ln for ln in stdouts[0].splitlines() if not ln.startswith("#")]
        want = [f"{self._query(j)} no-object" if o is None
                else f"{self._query(j)} object={o[0]} activity={o[1]}"
                for j, o in enumerate(outputs[:CLI_QUERIES])]
        return lines == want
