"""Binary Netpbm reader/writer: 8-bit P5 (graymap) and P6 (pixmap).

The parser follows the format byte for byte: magic, then whitespace
separated width, height and maxval (with # comments allowed in the
header), one whitespace byte, then raw samples. Every failure mode is
reported distinctly with the byte offset where it was detected.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError
from .vision import RasterImage

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _skip_ws(data: bytes, pos: int) -> int:
    while pos < len(data):
        if data[pos:pos + 1] in (b"#",):
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise FormatError(f"unterminated comment at byte {pos}")
            pos = nl + 1
        elif data[pos] in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_ws(data, pos)
    start = pos
    while pos < len(data) and data[pos:pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise FormatError(f"expected {what} at byte {start}")
    return int(data[start:pos]), pos


def load_pnm(path) -> RasterImage:
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file, no buffer copy
        data = fh.read()
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"unsupported magic {magic!r} at byte 0 (want P5 or P6)")
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    if width < 1 or height < 1:
        raise FormatError(f"malformed dimensions {width}x{height} in header (byte {pos})")
    maxval, pos = _read_int(data, pos, "maxval")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} at byte {pos} (only 255)")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError(f"expected single whitespace after maxval at byte {pos}")
    pos += 1
    need, have = width * height * channels, len(data) - pos
    if have < need:
        raise FormatError(
            f"truncated payload at byte {pos + have}: need {need} sample bytes, have {have}")
    samples = np.frombuffer(data, np.uint8, need, pos).reshape(height, width, channels)
    return RasterImage(samples.copy())  # the one copy: writable, and not a view of data


def save_pnm(img: RasterImage, path) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def save_label_map(label_map: np.ndarray, palette: dict[str, tuple[int, int, int]],
                   path) -> None:
    """Write a label map as a P6 image plus a ``<path>.legend.txt`` sidecar.

    ``palette`` maps label -> (r, g, b); labels without an entry paint
    black and still appear in the legend.
    """
    h, w = label_map.shape
    out = np.zeros((h, w, 3), dtype=np.uint8)
    present = sorted({str(v) for v in label_map.ravel()})
    legend = []
    for label in present:
        color = palette.get(label, (0, 0, 0))
        out[label_map == label] = color
        legend.append(f"{label} {color[0]} {color[1]} {color[2]}\n")
    save_pnm(RasterImage(out), path)
    with open(str(path) + ".legend.txt", "w") as fh:
        fh.writelines(legend)
