"""Binary Netpbm reader/writer: 8-bit P5 (graymap) and P6 (pixmap).

The header is magic, then width, height and maxval, each matched by one
compiled pattern that skips the whitespace and # comment lines before the
field's digits; then one whitespace byte and the raw samples. Every failure
mode is reported distinctly with the byte offset where it was detected.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError
from .vision import RasterImage

# Whitespace and whole comment lines, then a field's digits. One byte of \s per
# repeat, so no quantifier nests and a match is linear in the header.
_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)*(\d*)")


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    field = _FIELD.match(data, pos)
    pos = field.end()
    if not field[1]:  # a comment the pattern stopped at has no newline to end it
        raise FormatError(f"unterminated comment at byte {pos}" if data[pos:pos + 1] == b"#"
                          else f"expected {what} at byte {pos}")
    try:
        return int(field[1]), pos
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise FormatError(f"{what} of {len(field[1])} digits at byte {field.start(1)} "
                          "is too long") from None


def load_pnm(path) -> RasterImage:
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file, no buffer copy
        data = fh.read()
    channels = {b"P5": 1, b"P6": 3}.get(data[:2])
    if channels is None:
        raise FormatError(f"unsupported magic {data[:2]!r} at byte 0 (want P5 or P6)")
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    if width < 1 or height < 1:
        raise FormatError(f"malformed dimensions {width}x{height} in header (byte {pos})")
    maxval, pos = _read_int(data, pos, "maxval")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} at byte {pos} (only 255)")
    if not data[pos:pos + 1].isspace():
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
