import os
import re
import time

import numpy as np
import pytest

from celllineage import pgm


def test_pgm8_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    path = str(tmp_path / "a.pgm")
    pgm.write_pgm8(path, img)
    assert np.array_equal(pgm.read_pgm8(path), img)


def test_pgm16_roundtrip_and_big_endian(tmp_path):
    labels = np.array([[0, 1], [256, 65535]], dtype=np.uint16)
    path = str(tmp_path / "m.pgm")
    pgm.write_pgm16(path, labels)
    assert np.array_equal(pgm.read_pgm16(path), labels)
    with open(path, "rb") as f:
        raw = f.read()
    # sample 256 must be stored big-endian: 0x01 0x00
    body = raw.split(b"65535\n", 1)[1]
    assert body[4:6] == b"\x01\x00"


def test_pgm_write_read_write_identical(tmp_path):
    rng = np.random.default_rng(7)
    for k in range(20):
        labels = rng.integers(0, 50, size=(rng.integers(1, 40), rng.integers(1, 40)))
        p1, p2 = str(tmp_path / ("a%d.pgm" % k)), str(tmp_path / ("b%d.pgm" % k))
        pgm.write_pgm16(p1, labels)
        pgm.write_pgm16(p2, pgm.read_pgm16(p1))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def test_header_comments(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n# a comment\n2 1\n255\n\x07\x09")
    assert np.array_equal(pgm.read_pgm8(path), [[7, 9]])


@pytest.mark.parametrize(
    "payload",
    [b"P6\n2 1\n255\n\x00\x00", b"P5\n2 1\n255\n\x00", b"P5\n2 1\n65535\n\x00\x00"],
)
def test_bad_pgm8(tmp_path, payload):
    path = str(tmp_path / "bad.pgm")
    with open(path, "wb") as f:
        f.write(payload)
    with pytest.raises(pgm.PnmError):
        pgm.read_pgm8(path)


@pytest.mark.parametrize(
    "reader, payload",
    [
        (pgm.read_pgm16, b"P6\n2 1\n65535\n\x00\x00\x00\x00"),
        (pgm.read_pgm16, b"P5\n2 1\n255\n\x00\x00\x00\x00"),
        (pgm.read_pgm16, b"P5\n2 1\n65535\n\x00\x00\x00"),
        (pgm.read_ppm, b"P5\n2 1\n255\n" + bytes(6)),
        (pgm.read_ppm, b"P6\n2 1\n65535\n" + bytes(6)),
        (pgm.read_ppm, b"P6\n2 1\n255\n" + bytes(5)),
    ],
    ids=["pgm16-magic", "pgm16-maxval", "pgm16-short", "ppm-magic", "ppm-maxval", "ppm-short"],
)
def test_bad_pgm16_and_ppm(tmp_path, reader, payload):
    path = str(tmp_path / "bad.pnm")
    with open(path, "wb") as f:
        f.write(payload)
    with pytest.raises(pgm.PnmError):
        reader(path)


def test_readers_return_writable_native_arrays(tmp_path):
    for reader, writer, raster in (
        (pgm.read_pgm8, pgm.write_pgm8, np.arange(6, dtype=np.uint8).reshape(2, 3)),
        (pgm.read_pgm16, pgm.write_pgm16, np.arange(6, dtype=np.uint16).reshape(2, 3) * 4097),
        (pgm.read_ppm, pgm.write_ppm, np.arange(18, dtype=np.uint8).reshape(2, 3, 3)),
    ):
        path = str(tmp_path / "a.pnm")
        writer(path, raster)
        got = reader(path)
        assert got.dtype == raster.dtype and got.dtype.isnative and got.shape == raster.shape
        assert got.flags.writeable and np.array_equal(got, raster)


@pytest.mark.parametrize(
    "writer, raster",
    [
        (pgm.write_pgm8, np.zeros((2, 3, 1))),
        (pgm.write_pgm8, np.zeros(6)),
        (pgm.write_pgm16, np.zeros((2, 3, 3))),
        (pgm.write_ppm, np.zeros((2, 3))),
        (pgm.write_ppm, np.zeros((2, 3, 3, 1))),
        (pgm.write_ppm, np.zeros((2, 3, 4))),
    ],
)
def test_writers_reject_a_raster_of_the_wrong_rank(tmp_path, writer, raster):
    with pytest.raises(ValueError):
        writer(str(tmp_path / "x.pnm"), raster)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(9, 11, 3), dtype=np.uint8)
    path = str(tmp_path / "o.ppm")
    pgm.write_ppm(path, rgb)
    assert np.array_equal(pgm.read_ppm(path), rgb)


def test_label_out_of_range(tmp_path):
    with pytest.raises(pgm.PnmError):
        pgm.write_pgm16(str(tmp_path / "x.pgm"), np.array([[70000]]))


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"P5\n2 1\n", "truncated header"),
        (b"P5\n2 1 # no newline", "unterminated comment"),
        (b"P5\n2 x\n255\n\x00\x00", "non-numeric header field"),
        (b"P5\n0 1\n255\n", "non-positive dimensions 0x1"),
        (b"P5\n2 0\n255\n", "non-positive dimensions 2x0"),
        (b"P5\n2 1\n255", "missing raster separator"),
        (b"P5\n2 1\n255#c\n\x00\x00", "missing raster separator"),
    ],
    ids=["truncated", "unterminated-comment", "non-numeric", "zero-width", "zero-height", "no-separator",
         "comment-as-separator"],
)
def test_header_errors_name_the_file(tmp_path, payload, message):
    path = str(tmp_path / "bad.pgm")
    with open(path, "wb") as f:
        f.write(payload)
    with pytest.raises(pgm.PnmError, match=re.escape(message)) as info:
        pgm.read_pgm8(path)
    assert str(info.value).startswith(path + ": ")


@pytest.mark.parametrize(
    "header, field, quoted",
    [
        (b"P5 +1_0 1 0_255\n", "width", b"+1_0"),
        (b"P5 2 -1 255\n", "height", b"-1"),
        (b"P5 2 1 0_255\n", "maxval", b"0_255"),
        (b"P5 2 \xd9\xa1 255\n", "height", b"\xd9\xa1"),  # Arabic-Indic one: int() reads it as 1
        (b"P5 " + b"9" * (1 << 20) + b" 1 255\n", "width", b"9" * 20),  # past int()'s digit limit
    ],
    ids=["sign-and-underscore", "negative", "underscore", "non-ascii-digit", "megabyte-of-digits"],
)
def test_header_fields_are_ascii_decimal(tmp_path, header, field, quoted):
    """Width, height and maxval are runs of ASCII 0-9; anything else is a
    short message naming the field and quoting at most 20 bytes of it."""
    path = str(tmp_path / "bad.pgm")
    with open(path, "wb") as f:
        f.write(header + b"\x00" * 10)
    with pytest.raises(pgm.PnmError) as info:
        pgm.read_pgm8(path)
    assert str(info.value) == "%s: non-numeric header field %s %r" % (path, field, quoted)


@pytest.mark.parametrize("digits", [20, 21, 4000])
def test_long_dimension_is_a_short_message(tmp_path, digits):
    """A width of thousands of digits is refused in a message of bounded
    length, never one that prints the width or the byte count it implies."""
    path = str(tmp_path / "wide.pgm")
    with open(path, "wb") as f:
        f.write(b"P5 " + b"9" * digits + b" 1 255\n" + b"\x00" * 10)
    with pytest.raises(pgm.PnmError) as info:
        pgm.read_pgm8(path)
    message = str(info.value)
    assert "\n" not in message and len(message) <= len(path) + 80, len(message)
    if digits > 20:
        assert message == "%s: non-numeric header field width %r" % (path, b"9" * 20)


def _oracle_header(data, expected_magic):
    """The byte-at-a-time header tokenizer that `pgm._HEADER` replaced, kept as
    the grammar's oracle: (width, height, maxval, raster offset) or PnmError."""
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise pgm.PnmError("truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise pgm.PnmError("unterminated comment")
            pos = eol + 1
        elif ch.isspace():
            pos += 1
        else:
            m = re.compile(rb"[^\s#]+").match(data, pos)
            tokens.append(m.group(0))
            pos += len(m.group(0))
    if tokens[0] != expected_magic:
        raise pgm.PnmError("bad magic")
    if not all(re.fullmatch(rb"[0-9]+", t) for t in tokens[1:]):
        raise pgm.PnmError("non-numeric header field")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width <= 0 or height <= 0:
        raise pgm.PnmError("non-positive dimensions")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise pgm.PnmError("missing raster separator")
    return width, height, maxval, pos + 1


def _assert_header_parity(path, data):
    """pgm._read on `data` accepts exactly what the oracle accepts, with the
    same size, maxval and raster offset; returns whether it was accepted."""
    with open(path, "wb") as f:
        f.write(data)
    try:
        width, height, maxval, off = _oracle_header(data, b"P5")
    except pgm.PnmError:
        for mv in (255, 65535):  # a header error, whatever maxval is asked for
            with pytest.raises(pgm.PnmError, match="^" + re.escape(path) + ": ") as info:
                pgm._read(path, b"P5", mv, np.uint8)
            assert "expected maxval" not in str(info.value) and "raster has" not in str(info.value), data
        return False
    with pytest.raises(pgm.PnmError, match="expected maxval"):
        pgm._read(path, b"P5", maxval + 1, np.uint8)
    raster = data[off : off + width * height]
    if len(raster) < width * height:
        with pytest.raises(pgm.PnmError, match="raster has"):
            pgm._read(path, b"P5", maxval, np.uint8)
        return False
    got = pgm._read(path, b"P5", maxval, np.uint8)
    assert got.shape == (height, width) and got.tobytes() == raster, data
    return True


# what fuzzed headers are made of: fields, whitespace and comments
_TOKENS = [b"P5", b"P6", b"P", b"P55", b"p5", b"0", b"1", b"2", b"3", b"255", b"65535", b"-1", b"+2", b"1_0",
           b"02", b"x", b"2.0"]
_SPACES = [b" ", b"  ", b"\t", b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c"]
_COMMENTS = [b"#", b"#c\n", b"# 1 2 3\n", b"#\n", b"##\n", b"# P5"]


def test_header_grammar_matches_the_tokenizer_oracle(tmp_path):
    rng = np.random.default_rng(25)
    path = str(tmp_path / "h.pgm")
    pick = lambda pieces: pieces[rng.integers(0, len(pieces))]
    accepted = 0
    for _ in range(4000):
        if rng.random() < 0.7:  # near a valid header: the four fields, now and then one swapped
            parts = []
            for field in (b"P5", b"2", b"3", b"255"):
                parts += [pick(_SPACES)] + [pick(_COMMENTS)] * (rng.random() < 0.15)
                parts.append(pick(_TOKENS) if rng.random() < 0.05 else field)
            parts = parts[1:] if rng.random() < 0.5 else parts
            parts += [pick(_SPACES)] * (rng.random() < 0.9)
        else:
            parts = [pick(_TOKENS + _SPACES + _COMMENTS) for _ in range(rng.integers(0, 12))]
        header = b"".join(parts)
        if rng.random() < 0.1:
            header = header[: rng.integers(0, len(header) + 1)]
        tail = rng.integers(0, 256, size=rng.integers(0, 12), dtype=np.uint8).tobytes()
        accepted += _assert_header_parity(path, header + tail)
    assert 500 < accepted < 3500  # both outcomes are well exercised


@pytest.mark.parametrize(
    "data, accepted",
    [
        (b"#c\nP5 2 1 255\n\x07\x09", True),  # a comment before the magic
        (b"P5 2#c\n1 255\n\x07\x09", True),  # a comment right after a field
        (b"P5 2 1 255#c\n\x07\x09", False),  # ... after maxval it is no separator
        (b"P5\r\n2 1\r\n255\r\n\x07\x09", True),  # CRLF: '\r' separates, '\n' is raster
        (b"P5\t2\x0b1\x0c255\t\x07\x09", True),  # tab, VT and FF separators
        (b"P5 2 1255\n  ", False),  # three fields: no backtracking into '1255'
        (b"P5 2 1 255 \x07", False),
    ],
    ids=["comment-first", "comment-after-field", "comment-after-maxval", "crlf", "tab-vt-ff", "three-fields",
         "short-raster"],
)
def test_header_grammar_cases(tmp_path, data, accepted):
    assert _assert_header_parity(str(tmp_path / "h.pgm"), data) is accepted


@pytest.mark.parametrize("prefix", [b"", b"P5", b"P5 2 1"])
def test_megabyte_of_spaces_is_rejected_quickly(tmp_path, prefix):
    path = str(tmp_path / "h.pgm")
    with open(path, "wb") as f:
        f.write(prefix + b" " * 1_000_000)
    start = time.perf_counter()
    with pytest.raises(pgm.PnmError, match="truncated header"):
        pgm.read_pgm8(path)
    assert time.perf_counter() - start < 5.0  # linear: well under a second on one core
