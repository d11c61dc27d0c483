"""Binary netpbm I/O: 8-bit PGM frames, 16-bit PGM label masks, 24-bit PPM overlays."""

import re

import numpy as np


class PnmError(ValueError):
    pass


def _read_header(data, expected_magic):
    """Parse a binary netpbm header, returning (width, height, maxval, offset)."""
    # Header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed; raster starts after the single whitespace
    # byte that terminates maxval.
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise PnmError("truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise PnmError("unterminated comment")
            pos = eol + 1
        elif ch.isspace():
            pos += 1
        else:
            m = re.match(rb"[^\s#]+", data[pos:])
            tokens.append(m.group(0))
            pos += len(m.group(0))
    if tokens[0] != expected_magic:
        raise PnmError("bad magic %r, expected %r" % (tokens[0], expected_magic))
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise PnmError("non-numeric header field in %r" % (tokens,))
    if width <= 0 or height <= 0:
        raise PnmError("non-positive dimensions %dx%d" % (width, height))
    # exactly one whitespace byte separates maxval from the raster
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PnmError("missing raster separator")
    return width, height, maxval, pos + 1


def read_pgm8(path):
    """Read an 8-bit binary PGM into a uint8 (height, width) array."""
    with open(path, "rb") as f:
        data = f.read()
    width, height, maxval, off = _read_header(data, b"P5")
    if maxval != 255:
        raise PnmError("%s: expected maxval 255, got %d" % (path, maxval))
    n = width * height
    raster = data[off : off + n]
    if len(raster) != n:
        raise PnmError("%s: raster has %d bytes, expected %d" % (path, len(raster), n))
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm8(path, pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(pixels.tobytes())


def read_pgm16(path):
    """Read a 16-bit binary PGM (big-endian samples) into a uint16 array."""
    with open(path, "rb") as f:
        data = f.read()
    width, height, maxval, off = _read_header(data, b"P5")
    if maxval != 65535:
        raise PnmError("%s: expected maxval 65535, got %d" % (path, maxval))
    n = width * height * 2
    raster = data[off : off + n]
    if len(raster) != n:
        raise PnmError("%s: raster has %d bytes, expected %d" % (path, len(raster), n))
    arr = np.frombuffer(raster, dtype=">u2").reshape(height, width)
    return arr.astype(np.uint16)


def write_pgm16(path, labels):
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() > 65535:
        raise PnmError("label values outside uint16 range")
    h, w = labels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (w, h))
        f.write(labels.astype(">u2").tobytes())


def write_ppm(path, rgb):
    """Write a 24-bit binary PPM from a uint8 (height, width, 3) array."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, c = rgb.shape
    if c != 3:
        raise PnmError("PPM needs 3 channels, got %d" % c)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(rgb.tobytes())


def read_ppm(path):
    with open(path, "rb") as f:
        data = f.read()
    width, height, maxval, off = _read_header(data, b"P6")
    if maxval != 255:
        raise PnmError("%s: expected maxval 255, got %d" % (path, maxval))
    n = width * height * 3
    raster = data[off : off + n]
    if len(raster) != n:
        raise PnmError("%s: raster has %d bytes, expected %d" % (path, len(raster), n))
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()
