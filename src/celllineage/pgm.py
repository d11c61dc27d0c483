"""Binary netpbm I/O: 8-bit PGM frames, 16-bit PGM label masks, 24-bit PPM overlays."""

import math
import re

import numpy as np


# a header token: a run of bytes that are neither whitespace nor '#'
_TOKEN = re.compile(rb"[^\s#]+")


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
            m = _TOKEN.match(data, pos)
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


def _read(path, magic, maxval, dtype, shape_tail=()):
    """Raster of the binary netpbm file at `path` as a new, writable native-order
    array of shape (height, width) + `shape_tail`; `dtype` is the file's sample type."""
    with open(path, "rb") as f:
        data = f.read()
    width, height, got, off = _read_header(data, magic)
    if got != maxval:
        raise PnmError("%s: expected maxval %d, got %d" % (path, maxval, got))
    dtype = np.dtype(dtype)
    shape = (height, width) + shape_tail
    n = math.prod(shape) * dtype.itemsize
    raster = data[off : off + n]
    if len(raster) != n:
        raise PnmError("%s: raster has %d bytes, expected %d" % (path, len(raster), n))
    return np.frombuffer(raster, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def _write(path, magic, maxval, raster, shape_tail=()):
    """Write `raster`, of shape (height, width) + `shape_tail`, as a binary netpbm file."""
    height, width = raster.shape[: raster.ndim - len(shape_tail)]  # raises unless the rank fits
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n%d\n" % (magic, width, height, maxval))
        f.write(raster.tobytes())


def read_pgm8(path):
    """Read an 8-bit binary PGM into a uint8 (height, width) array."""
    return _read(path, b"P5", 255, np.uint8)


def write_pgm8(path, pixels):
    _write(path, b"P5", 255, np.asarray(pixels, dtype=np.uint8))


def read_pgm16(path):
    """Read a 16-bit binary PGM (big-endian samples) into a uint16 array."""
    return _read(path, b"P5", 65535, ">u2")


def write_pgm16(path, labels):
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() > 65535:
        raise PnmError("label values outside uint16 range")
    _write(path, b"P5", 65535, labels.astype(">u2"))


def write_ppm(path, rgb):
    """Write a 24-bit binary PPM from a uint8 (height, width, 3) array."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    _, _, c = rgb.shape
    if c != 3:
        raise PnmError("PPM needs 3 channels, got %d" % c)
    _write(path, b"P6", 255, rgb, (3,))


def read_ppm(path):
    return _read(path, b"P6", 255, np.uint8, (3,))
