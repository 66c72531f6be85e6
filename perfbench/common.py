"""Helpers shared by the workload generators and the measuring worker.

Everything here is the benchmark's own code: input writers and readers,
the input digest and the brute-force oracles. None of it calls invpat, so
the oracles stay independent of the program they check.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def write_int_csv(path: Path, rows: np.ndarray) -> None:
    """Comma-separated integer rows, no header."""
    with open(path, "w") as fh:
        for row in rows.tolist():
            fh.write(",".join(map(str, row)) + "\n")


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    """Binary P6 image from an (h, w, 3) uint8 array."""
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Inverse of write_ppm (the fixed header it writes, nothing more)."""
    data = Path(path).read_bytes()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not a file written by write_ppm")
    w, h = map(int, dims.split())
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def digest(work: Path, names: list[str], arrays: tuple[np.ndarray, ...] = ()) -> str:
    """sha256 over the named generated files and extra arrays, in order."""
    sha = hashlib.sha256()
    for name in names:
        sha.update(name.encode())
        sha.update((work / name).read_bytes())
    for arr in arrays:
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()[:16]


def clustered_rows(rng: np.random.Generator, centres: np.ndarray, n: int,
                   sigma: float, x_range: int) -> np.ndarray:
    """n integer rows drawn around random centres with Gaussian noise."""
    pick = rng.integers(0, len(centres), size=n)
    rows = np.rint(centres[pick] + rng.normal(0.0, sigma, size=(n, centres.shape[1])))
    return np.clip(rows, 0, x_range - 1).astype(np.int64)


def vote_oracle(queries: np.ndarray, protos: np.ndarray, radius: int,
                chunk: int = 16) -> np.ndarray:
    """Brute-force (argmax, max_count) of the vote histogram per query.

    A class gets one vote per dimension where |q_k - p_k| <= radius; the
    argmax is the smallest id (1-based) with the most votes, 0 when no
    class has a vote. max_count == K is a full match, i.e. Chebyshev
    distance <= radius, and then argmax is the smallest matching id.
    """
    protos = protos.astype(np.int16)
    out = np.zeros((len(queries), 2), dtype=np.int64)
    for s in range(0, len(queries), chunk):
        q = queries[s:s + chunk].astype(np.int16)
        votes = (np.abs(q[:, None, :] - protos[None, :, :]) <= radius).sum(axis=2)
        best = votes.max(axis=1)
        arg = votes.argmax(axis=1) + 1
        out[s:s + chunk, 0] = np.where(best > 0, arg, 0)
        out[s:s + chunk, 1] = best
    return out


def winner_map_oracle(pixels: np.ndarray, protos: np.ndarray, radius: int,
                      masked: set[int]) -> dict[tuple[int, int], int]:
    """(row, col) -> smallest unmasked class within Chebyshev radius, for
    an RGB image.

    Brute force over the image's distinct colours and every stored
    prototype; pixels with no such class are left out.
    """
    ids = np.array([n for n in range(1, len(protos) + 1) if n not in masked], dtype=np.int64)
    if len(ids) == 0:
        return {}
    kept = protos[ids - 1].astype(np.int16)
    flat = pixels.reshape(-1, 3).astype(np.int32)
    keys = (flat[:, 0] << 16) | (flat[:, 1] << 8) | flat[:, 2]
    uniq, inverse = np.unique(keys, return_inverse=True)
    colors = np.stack([uniq >> 16, (uniq >> 8) & 255, uniq & 255], axis=1).astype(np.int16)
    winners = np.zeros(len(colors), dtype=np.int64)
    for s in range(0, len(colors), 1024):
        block = colors[s:s + 1024]
        hit = np.ones((len(block), len(kept)), dtype=bool)
        for ch in range(3):
            hit &= np.abs(block[:, ch, None] - kept[None, :, ch]) <= radius
        winners[s:s + 1024] = np.where(hit.any(axis=1), ids[hit.argmax(axis=1)], 0)
    per_pixel = winners[inverse.ravel()].reshape(pixels.shape[:2])
    return {(int(r), int(c)): int(per_pixel[r, c]) for r, c in np.argwhere(per_pixel > 0)}
