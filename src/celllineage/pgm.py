"""Binary netpbm I/O: 8-bit PGM frames, 16-bit PGM label masks, 24-bit PPM overlays."""

import math
import re

import numpy as np


# a header field: a run of bytes that are neither whitespace nor '#', after
# any run of whitespace and '#'-to-newline comments; the lookahead ends a field
# only at whitespace, '#' or the end of the data, so a failed match cannot
# backtrack into a field and split it in two
_FIELD = rb"(?:\s|#[^\n]*\n)*([^\s#]+)(?![^\s#])"
_HEADER = re.compile(_FIELD * 4)  # magic, width, height, maxval


class PnmError(ValueError):
    pass


_QUOTE = 20  # bytes of a bad header field that an error message quotes


def _number(path, name, token):
    """The value of header field `name`, which is plain ASCII decimal digits."""
    if token.isdigit():  # bytes.isdigit: ASCII 0-9 only; int() also takes a sign and '_'
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise PnmError("%s: non-numeric header field %s %r" % (path, name, token[:_QUOTE]))


def _read(path, magic, maxval, dtype, shape_tail=()):
    """Raster of the binary netpbm file at `path` as a new, writable native-order
    array of shape (height, width) + `shape_tail`; `dtype` is the file's sample type."""
    with open(path, "rb") as f:
        data = f.read()
    header = _HEADER.match(data)
    if header is None:
        raise PnmError("%s: truncated header or unterminated comment" % path)
    tokens = header.groups()
    if tokens[0] != magic:
        raise PnmError("%s: bad magic %r, expected %r" % (path, tokens[0][:_QUOTE], magic))
    width, height, got = (_number(path, name, t) for name, t in zip(("width", "height", "maxval"), tokens[1:]))
    if width <= 0 or height <= 0:
        raise PnmError("%s: non-positive dimensions %dx%d" % (path, width, height))
    # exactly one whitespace byte separates maxval from the raster
    off = header.end() + 1
    if not data[off - 1 : off].isspace():
        raise PnmError("%s: missing raster separator" % path)
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
