import os

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
