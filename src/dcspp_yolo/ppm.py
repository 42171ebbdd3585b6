"""Binary PPM (P6) reader and writer; the package's only image codec.

Images are (height, width, 3) uint8 arrays, RGB, row-major.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


class PPMError(ValueError):
    pass


def _read_token(f, path) -> bytes:
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise PPMError(f"{path}: unexpected end of file in header")
        if ch.isspace():
            if tok:
                return tok
            continue
        if ch == b"#":
            raise PPMError(f"{path}: header comments are not supported")
        tok += ch


def ppm_read(path: str | Path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as f:
        magic = _read_token(f, path)
        if magic == b"P3":
            raise PPMError(f"{path}: ASCII PPM unsupported, use binary P6")
        if magic != b"P6":
            raise PPMError(f"{path}: not a PPM file (magic {magic!r})")
        try:
            width = int(_read_token(f, path))
            height = int(_read_token(f, path))
            maxval = int(_read_token(f, path))
        except ValueError as exc:
            raise PPMError(f"{path}: malformed header: {exc}") from exc
        if width < 1 or height < 1:
            raise PPMError(f"{path}: invalid dimensions {width}x{height}")
        if maxval != 255:
            raise PPMError(f"{path}: only maxval 255 is supported, got {maxval}")
        size = 3 * width * height
        # the header's claim is checked against the file before it sizes a read
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left < size:
            raise PPMError(f"{path}: short pixel payload ({left} bytes, expected {size})")
        payload = f.read(size)
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def ppm_write(path: str | Path, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise PPMError(f"pixels must be (h, w, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise PPMError(f"pixels must be uint8, got {arr.dtype}")
    h, w = arr.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as f:  # header, then the pixel buffer itself: no joined copy
        f.write(header)
        f.write(np.ascontiguousarray(arr).data)
