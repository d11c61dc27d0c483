import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import celllineage
from celllineage import jsonconfig, linker, metrics, pgm, trackfile
from celllineage.cli import (
    FRAME_FMT,
    MASK_FMT,
    TRACK_FILE,
    PipelineConfig,
    _boundary,
    _palette_color,
    _read_masks,
    _stack_paths,
    build_parser,
    main,
)
from celllineage.imagecore import Cell
from celllineage.simulator import SimConfig
from celllineage.tracker import ExternalTracker


def run(argv):
    return main(argv)


def dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    cfg = {
        "width": 128,
        "height": 128,
        "frames": 8,
        "n_init": 3,
        "radius_range": [8.0, 10.0],
        "drift_sigma": 1.0,
        "collision_script": [[6, 1, 2]],
        "noise_sigma": 0.02,
        "rng_seed": 7,
    }
    cfg_path = d / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out = d / "gt"
    assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return str(out)


def test_simulate_outputs(sim_dir, capsys):
    names = sorted(os.listdir(sim_dir))
    assert "t001.pgm" in names and "t008.pgm" in names
    assert "mask001.pgm" in names and "mask008.pgm" in names
    assert "res_track.txt" in names and "events.txt" in names
    img = pgm.read_pgm8(os.path.join(sim_dir, "t001.pgm"))
    assert img.shape == (128, 128)
    mask = pgm.read_pgm16(os.path.join(sim_dir, "mask001.pgm"))
    assert set(np.unique(mask)) - {0} == {1, 2, 3}


def test_simulate_deterministic_bytes(sim_dir, tmp_path):
    cfg_path = os.path.join(os.path.dirname(sim_dir), "sim.json")
    again = tmp_path / "again"
    assert run(["simulate", "--config", cfg_path, "--out", str(again)]) == 0
    assert dir_bytes(sim_dir) == dir_bytes(str(again))


def test_simulate_seed_override(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["simulate", "--out", str(a), "--seed", "1"]) == 0
    assert run(["simulate", "--out", str(b), "--seed", "2"]) == 0
    assert dir_bytes(str(a)) != dir_bytes(str(b))


def test_track_and_evaluate(sim_dir, tmp_path, capsys):
    pred = tmp_path / "pred"
    assert run(["track", "--in", sim_dir, "--out", str(pred)]) == 0
    names = sorted(os.listdir(str(pred)))
    assert "mask001.pgm" in names and "res_track.txt" in names and "events.txt" in names
    capsys.readouterr()

    assert run(["evaluate", "--gt", sim_dir, "--pred", str(pred)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    scores = {ln.split()[0]: float(ln.split()[1]) for ln in lines}
    assert 0.0 <= scores["SEG"] <= 1.0 and 0.0 <= scores["TRA"] <= 1.0
    assert scores["SEG"] > 0.5 and scores["TRA"] > 0.5
    with open(pred / "report.json") as f:
        report = json.load(f)
    assert report["seg"] == pytest.approx(scores["SEG"], abs=1e-6)
    assert report["tra"] == pytest.approx(scores["TRA"], abs=1e-6)
    assert set(report["counts"]) == {"NS", "FN", "FP", "ED", "EA", "EC"}


def test_track_deterministic_bytes(sim_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["track", "--in", sim_dir, "--out", str(a)]) == 0
    assert run(["track", "--in", sim_dir, "--out", str(b)]) == 0
    assert dir_bytes(str(a)) == dir_bytes(str(b))


def test_track_baseline_beats_nothing(sim_dir, tmp_path, capsys):
    base = tmp_path / "base"
    assert run(["track", "--in", sim_dir, "--out", str(base), "--baseline"]) == 0
    events = (base / "events.txt").read_text()
    assert "COLLISION" not in events and "MITOSIS" not in events


def test_track_masks_ingestion(sim_dir, tmp_path, capsys):
    # feed the ground-truth masks straight through the linker
    cfg = {"segmentation": "masks"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["track", "--config", str(cfg_path), "--in", sim_dir, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--gt", sim_dir, "--pred", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    scores = {ln.split()[0]: float(ln.split()[1]) for ln in lines}
    assert scores["SEG"] == pytest.approx(1.0)


def test_track_masks_of_another_size_is_an_error_message(sim_dir, tmp_path, capsys):
    src, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(sim_dir, src)
    pgm.write_pgm16(str(src / (MASK_FMT % 3)), np.zeros((64, 64), dtype=np.uint16))
    (tmp_path / "cfg.json").write_text(json.dumps({"segmentation": "masks"}))
    assert run(["track", "--config", str(tmp_path / "cfg.json"), "--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "lineage: error: frame 3: mask dimensions do not match the frame\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["track", "track-masks", "overlay"])
def test_frame_of_another_size_is_an_error_message(command, sim_dir, tmp_path, capsys):
    src, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(sim_dir, src)
    pgm.write_pgm8(str(src / (FRAME_FMT % 2)), np.zeros((64, 128), dtype=np.uint8))
    (tmp_path / "cfg.json").write_text(json.dumps({"segmentation": "masks"}))
    argv = {
        "track": ["track", "--in", str(src)],
        "track-masks": ["track", "--config", str(tmp_path / "cfg.json"), "--in", str(src)],
        "overlay": ["overlay", "--in", str(src)],
    }[command]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "lineage: error: frame 2: all frames must share dimensions\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, expected",
    [
        ("1 0 10 12 20 22 0.9\n", "fwd.txt:1: cell id must be >= 1, got 0"),
        ("1 2 10 12 20 22 0.9\n1 -3 10 12 20 22 0.9\n", "fwd.txt:2: cell id must be >= 1, got -3"),
        (
            "1 1 10 12 20 22 0.9\n2 1 0 0 5 5 0.5\n1 1 11 12 21 22 0.8\n",
            "fwd.txt:3: t=1 cell 1 already given on line 1",
        ),
        ("1 1 10 12 20 22 0.9\n1 2 10 12 20 22\n", "fwd.txt:2: expected 7 fields, got 6"),
        ("1 1 10 12 20 22 1.5\n", "fwd.txt:1: score outside [-1, 1]"),
        ("1 1 10 12 20 128 0.9\n", "fwd.txt:1: region exceeds frame bounds"),  # the frames are 128x128
    ],
    ids=["zero id", "negative id", "second line", "six fields", "score 1.5", "past the frame"],
)
def test_track_bad_external_cell_is_an_error_message(sim_dir, tmp_path, capsys, lines, expected):
    (tmp_path / "fwd.txt").write_text(lines)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"external_forward": str(tmp_path / "fwd.txt")}))
    assert run(["track", "--config", str(cfg_path), "--in", sim_dir, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "lineage: error: %s\n" % (tmp_path / expected)


def edge_case_inputs(sim_dir):
    """(name, frames, masks or None): degenerate sequences built from sim_dir."""
    frames = [pgm.read_pgm8(os.path.join(sim_dir, FRAME_FMT % t)) for t in range(1, 9)]
    masks = [pgm.read_pgm16(os.path.join(sim_dir, MASK_FMT % t)) for t in range(1, 9)]
    blank = np.full_like(frames[0], 25)
    yield "blank first frame", [blank] + frames[1:], None
    yield "blank middle frame", frames[:4] + [blank] + frames[5:], None
    yield "single frame", frames[:1], None
    yield "all blank", [blank] * 4, None
    # ground-truth masks with labels spread over the 16-bit range, gaps between them
    remap = np.zeros(int(max(m.max() for m in masks)) + 1, dtype=np.uint16)
    remap[1:] = np.linspace(3, 65535, len(remap) - 1).astype(np.uint16)
    yield "non-contiguous labels", frames, [remap[m] for m in masks]


@pytest.mark.parametrize("baseline", [False, True], ids=["full", "baseline"])
def test_track_edge_cases(sim_dir, tmp_path, baseline, capsys):
    cases = list(edge_case_inputs(sim_dir))
    labels = np.unique(cases[-1][2][0])
    assert len(labels) > 2 and 1 not in labels
    for k, (name, frames, masks) in enumerate(cases):
        src, out = tmp_path / ("in%d" % k), tmp_path / ("out%d" % k)
        src.mkdir()
        for t, img in enumerate(frames, start=1):
            pgm.write_pgm8(str(src / (FRAME_FMT % t)), img)
        argv = ["track", "--in", str(src), "--out", str(out)] + (["--baseline"] if baseline else [])
        if masks is not None:
            for t, m in enumerate(masks, start=1):
                pgm.write_pgm16(str(src / (MASK_FMT % t)), m)
            (tmp_path / "masks.json").write_text(json.dumps({"segmentation": "masks"}))
            argv += ["--config", str(tmp_path / "masks.json")]
        assert run(argv) == 0, name
        out_masks = [pgm.read_pgm16(str(out / (MASK_FMT % t))) for t in range(1, len(frames) + 1)]
        assert not (out / (MASK_FMT % (len(frames) + 1))).exists(), name
        lineage = trackfile.read_track_file(str(out / TRACK_FILE), [np.unique(m).tolist() for m in out_masks])
        for t, (img, m) in enumerate(zip(frames, out_masks), start=1):
            if np.all(img == 25):
                assert not m.any(), (name, t)
            else:
                assert m.any(), (name, t)
        assert all(tr.birth >= 1 and tr.end <= len(frames) for tr in lineage.tracks.values()), name
    capsys.readouterr()


@pytest.mark.parametrize("baseline", [False, True], ids=["full", "baseline"])
def test_track_builds_no_pixel_set(tmp_path, monkeypatch, baseline, capsys):
    """The pipeline keeps cells as boxes and masks: reading Cell.pixels fails."""
    sim = str(tmp_path / "sim")
    assert run(["simulate", "--seed", "1", "--out", sim]) == 0
    with open(os.path.join(sim, "events.txt")) as f:
        assert "COLLISION" in f.read()

    def no_pixel_set(cell):
        raise AssertionError("Cell.pixels read inside the pipeline")

    monkeypatch.setattr(Cell, "pixels", property(no_pixel_set))
    argv = ["track", "--in", sim, "--out", str(tmp_path / "out")] + (["--baseline"] if baseline else [])
    assert run(argv) == 0
    if not baseline:
        with open(str(tmp_path / "out" / "events.txt")) as f:
            assert "COLLISION" in f.read()  # the collision repair ran
    capsys.readouterr()


def test_track_imports_no_scipy_sparse(tmp_path, capsys):
    """A tracking run, collision repair included, loads no scipy.sparse and
    no scipy.fft.

    The random walker's banded solve needs none; a sparse direct solve would
    bring in scipy.sparse.linalg, about 10 MB of resident memory. The NCC
    kernel runs on numpy.fft; importing scipy.fft adds 24-45 ms to start-up.
    """
    sim, out = str(tmp_path / "sim"), str(tmp_path / "out")
    assert run(["simulate", "--seed", "1", "--out", sim]) == 0
    capsys.readouterr()
    code = (
        "import sys\n"
        "from celllineage.cli import main\n"
        "assert main(['track', '--in', %r, '--out', %r]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.fft'))))\n" % (sim, out)
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(celllineage.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    with open(os.path.join(out, "events.txt")) as f:
        assert "COLLISION" in f.read()  # the random walker ran


def test_linker_imports_no_tracker():
    """The linker reaches a tracker only through the object it is handed."""
    code = "import sys, celllineage.linker\nprint('celllineage.tracker' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(celllineage.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("level", ["verbose", "5"])
def test_unknown_log_level_is_an_error_message(level, tmp_path):
    """An unknown LINEAGE_LOG level is one error line, checked in a fresh
    process: there the root logger has no handlers yet."""
    out = str(tmp_path / "out")
    code = "import sys\nfrom celllineage.cli import main\nsys.exit(main(['simulate', '--out', %r]))\n" % out
    src = os.path.dirname(os.path.dirname(os.path.abspath(celllineage.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["LINEAGE_LOG"] = level
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "lineage: error: LINEAGE_LOG: unknown level %r\n" % level
    assert not os.path.exists(out)


def test_overlay(sim_dir, tmp_path, capsys):
    out = tmp_path / "ov"
    assert run(["overlay", "--in", sim_dir, "--out", str(out)]) == 0
    files = sorted(os.listdir(str(out)))
    assert files == ["overlay%03d.ppm" % t for t in range(1, 9)]
    rgb = pgm.read_ppm(os.path.join(str(out), "overlay001.ppm"))
    assert rgb.shape == (128, 128, 3)
    # boundaries are colored: some pixel differs across channels
    assert np.any(rgb[:, :, 0] != rgb[:, :, 1])


@pytest.mark.parametrize("side", [256, 64], ids=["larger", "smaller"])
def test_overlay_masks_of_another_size_is_an_error_message(sim_dir, tmp_path, capsys, side):
    src, out = tmp_path / "in", tmp_path / "ov"
    shutil.copytree(sim_dir, src)
    pgm.write_pgm16(str(src / (MASK_FMT % 3)), np.zeros((side, side), dtype=np.uint16))
    assert run(["overlay", "--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "lineage: error: frame 3: mask dimensions do not match the frame\n"
    assert not out.exists()


def sextant_palette_color(track_id):
    """The overlay palette as a hand-written HSV sextant table at full
    saturation and value: the reference for `_palette_color`."""
    hue = (track_id * 0.61803398875) % 1.0
    i = int(hue * 6.0)
    f = hue * 6.0 - i
    q, t = 1.0 - f, f
    rgb = [(1, t, 0), (q, 1, 0), (0, 1, t), (0, q, 1), (t, 0, 1), (1, 0, q)][i % 6]
    return tuple(int(round(255 * v)) for v in rgb)


def test_palette_matches_sextant_table():
    ids = range(1, 65536)  # every label a 16-bit mask can hold
    mismatched = [i for i in ids if _palette_color(i) != sextant_palette_color(i)]
    assert mismatched == []


def loop_boundary(labels):
    """Labeled pixels with a differing 4-neighbor, the edge padded with
    itself, one neighbor direction at a time: the reference for `_boundary`."""
    padded = np.pad(labels, 1, mode="edge")
    core = padded[1:-1, 1:-1]
    diff = np.zeros_like(core, dtype=bool)
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        diff |= core != padded[1 + dr : padded.shape[0] - 1 + dr, 1 + dc : padded.shape[1] - 1 + dc]
    return (core > 0) & diff


def test_boundary_matches_neighbor_loop():
    rng = np.random.default_rng(3)
    for case in range(600):
        dtype = (np.int32, np.uint16)[case % 2]
        shape = tuple(int(v) for v in rng.integers(1, 20, size=2))
        labels = rng.integers(0, int(rng.integers(1, 7)), size=shape).astype(dtype)
        if case % 3 == 0:  # blocky labels, so most pixels are interior
            labels = np.repeat(np.repeat(labels, 3, axis=0), 3, axis=1)[: shape[0], : shape[1]]
        got = _boundary(labels)
        assert got.dtype == bool and np.array_equal(got, loop_boundary(labels)), case
    # the frame's edge is no boundary: a label that fills the frame has none
    assert not _boundary(np.full((3, 3), 7, dtype=np.uint16)).any()


def _end_track_at_birth(directory):
    """Cut a childless track of the track file in `directory` back to its
    first frame; returns (track id, a later frame whose mask holds it)."""
    path = os.path.join(directory, TRACK_FILE)
    with open(path) as f:
        rows = [[int(v) for v in line.split()] for line in f]
    parents = {row[3] for row in rows}
    row = next(row for row in rows if row[2] > row[1] and row[0] not in parents)
    masks = {t: pgm.read_pgm16(os.path.join(directory, MASK_FMT % t)) for t in range(row[1] + 1, row[2] + 1)}
    later = next(t for t, mask in masks.items() if row[0] in mask)
    row[2] = row[1]
    with open(path, "w") as f:
        f.write("".join("%d %d %d %d\n" % tuple(r) for r in rows))
    return row[0], later


@pytest.mark.parametrize("fault", ["gt track ends early", "pred track ends early", "pred mask shape"])
def test_evaluate_bad_input_is_an_error_message(fault, sim_dir, tmp_path, capsys):
    gt, pred = str(tmp_path / "gt"), str(tmp_path / "pred")
    shutil.copytree(sim_dir, gt)
    shutil.copytree(sim_dir, pred)
    if fault == "pred mask shape":
        pgm.write_pgm16(os.path.join(pred, MASK_FMT % 3), np.zeros((64, 64), dtype=np.uint16))
        expected = "frame 3: mask dimensions differ"
    else:
        tid, later = _end_track_at_birth(gt if fault.startswith("gt") else pred)
        expected = "frame %d cell %d assigned to track %d outside its span" % (later, tid, tid)
    assert run(["evaluate", "--gt", gt, "--pred", pred]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lineage: error: ") and expected in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not os.path.exists(os.path.join(pred, "report.json"))


def test_evaluate_scans_each_mask_once(sim_dir, tmp_path, monkeypatch, capsys):
    """One evaluate reads each mask file once and counts each frame's label
    pairs once; no other code runs np.unique over the masks."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(metrics, "census", counted("census", metrics.census))
    monkeypatch.setattr(pgm, "read_pgm16", counted("pgm.read_pgm16", pgm.read_pgm16))
    monkeypatch.setattr(np, "unique", counted("np.unique", np.unique))
    assert run(["evaluate", "--gt", sim_dir, "--pred", sim_dir, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == {"census": 1, "pgm.read_pgm16": 16, "np.unique": 8}


def test_evaluate_holds_a_few_masks_at_a_time(tmp_path, monkeypatch, capsys):
    """Evaluate reads the two stacks a frame at a time: however long the
    sequence, only a few of the mask arrays it has read are alive at once."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"width": 64, "height": 64, "frames": 12, "n_init": 2, "radius_range": [5.0, 6.0]}))
    gt = str(tmp_path / "gt")
    assert run(["simulate", "--config", str(cfg), "--out", gt]) == 0
    read, live, peak = pgm.read_pgm16, [0], [0]

    def release():
        live[0] -= 1

    def tracked(path):
        labels = read(path)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(labels, release)  # arrays are unhashable: no WeakSet
        return labels

    monkeypatch.setattr(pgm, "read_pgm16", tracked)
    assert run(["evaluate", "--gt", gt, "--pred", gt, "--out", str(tmp_path / "report")]) == 0
    capsys.readouterr()
    assert 0 < peak[0] <= 6, peak[0]


@pytest.mark.parametrize("segmentation", ["threshold", "masks"])
def test_track_holds_a_few_masks_at_a_time(segmentation, tmp_path, monkeypatch, capsys):
    """Track reads each frame as it links it, renders each output mask as
    it writes it, and in masks mode cuts each input mask into cells as it
    reads it: however long the sequence, only a few of the frame and label
    arrays it makes are alive at once."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"width": 64, "height": 64, "frames": 12, "n_init": 2, "radius_range": [5.0, 6.0]}))
    sim = str(tmp_path / "sim")
    assert run(["simulate", "--config", str(cfg), "--out", sim]) == 0
    live, peak = Counter(), Counter()

    def tracked(source, fn, labels_of):
        def wrapper(*args):
            result = fn(*args)
            live[source] += 1
            peak[source] = max(peak[source], live[source])
            weakref.finalize(labels_of(result), live.subtract, [source])  # arrays are unhashable: no WeakSet
            return result

        return wrapper

    monkeypatch.setattr(linker, "mask_from_cells", tracked("render", linker.mask_from_cells, lambda m: m.labels))
    monkeypatch.setattr(pgm, "read_pgm16", tracked("read", pgm.read_pgm16, lambda labels: labels))
    monkeypatch.setattr(pgm, "read_pgm8", tracked("frame", pgm.read_pgm8, lambda pixels: pixels))
    (tmp_path / "track.json").write_text(json.dumps({"segmentation": segmentation}))
    argv = ["track", "--config", str(tmp_path / "track.json"), "--in", sim, "--out", str(tmp_path / "out")]
    assert run(argv) == 0
    capsys.readouterr()
    assert 0 < peak["render"] <= 3, peak
    assert 0 < peak["frame"] <= 3, peak
    if segmentation == "masks":
        assert 0 < peak["read"] <= 3, peak


def test_track_of_noise_alone_finds_no_cell(tmp_path, capsys):
    """A sequence with no cells is background noise: no frame has foreground."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"frames": 4, "n_init": 0}))
    sim, out = str(tmp_path / "sim"), tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", sim]) == 0
    assert run(["track", "--in", sim, "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("tracked 4 frames into 0 tracks (0 events)\n")
    assert (out / TRACK_FILE).read_text() == ""
    assert not any(pgm.read_pgm16(str(out / (MASK_FMT % t))).any() for t in range(1, 5))


def test_error_paths(tmp_path, capsys):
    missing = tmp_path / "nothing"
    missing.mkdir()
    assert run(["track", "--in", str(missing), "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["evaluate", "--gt", str(missing), "--pred", str(missing)]) == 1


@pytest.mark.parametrize("stack", ["no frames", "no masks", "one mask short"])
def test_missing_stack_is_an_exact_error_message(stack, sim_dir, tmp_path, capsys):
    d = str(tmp_path / "in")
    shutil.copytree(sim_dir, d)
    if stack == "no frames":
        removed, argv = [FRAME_FMT % t for t in range(1, 9)], ["track", "--in", d]
        expected = "no frames (t001.pgm) found in %s" % d
    elif stack == "no masks":
        removed, argv = [MASK_FMT % t for t in range(1, 9)], ["evaluate", "--gt", d, "--pred", sim_dir]
        expected = "no masks (mask001.pgm) found in %s" % d
    else:
        removed, argv = [MASK_FMT % 8], ["evaluate", "--gt", sim_dir, "--pred", d]
        expected = "%s: found 7 masks, expected 8 (mask008.pgm missing?)" % d
    for name in removed:
        os.remove(os.path.join(d, name))
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "lineage: error: %s\n" % expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "track"])
def test_extra_mask_names_the_first_file_past_the_last_frame(command, sim_dir, tmp_path, capsys):
    d = str(tmp_path / "in")
    shutil.copytree(sim_dir, d)
    shutil.copy(os.path.join(d, MASK_FMT % 8), os.path.join(d, MASK_FMT % 9))
    if command == "evaluate":
        argv = ["evaluate", "--gt", sim_dir, "--pred", d]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"segmentation": "masks"}))
        argv = ["track", "--config", str(cfg_path), "--in", d]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    expected = "%s: found 9 masks, expected 8 (mask009.pgm is past the last frame)" % d
    assert capsys.readouterr().err == "lineage: error: %s\n" % expected
    assert not (tmp_path / "out").exists()


def test_pipeline_config_from_json(tmp_path):
    doc = {
        "segmentation": "masks",
        "connectivity": 8,
        "tracker": {"search_size": 100},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = jsonconfig.load(PipelineConfig, str(path))
    assert (cfg.segmentation, cfg.connectivity) == ("masks", 8)
    assert cfg.tracker.search_size == 100


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("track", {"tracker": {"search_sise": 64}}, "search_sise"),
        ("track", {"tracker": {"search_size": 64, "betta": 1.0}}, "betta"),
        ("track", {"segmentaton": "masks"}, "segmentaton"),
        ("track", {"tracker": 64}, "tracker"),
        ("track", [1, 2], "cfg.json"),
        ("simulate", {"width": 64, "n_cells": 3}, "n_cells"),
        ("simulate", [64], "cfg.json"),
        ("track", {"tracker": {"search_size": "big"}}, "search_size: expected an integer"),
        ("track", {"tracker": {"search_size": True}}, "search_size: expected an integer"),
        ("track", {"rwalker": {"epsilon": 1e-6}}, "unknown key 'rwalker'"),
        ("simulate", {"frames": "3"}, "frames: expected an integer"),
        ("simulate", {"radius_range": 5}, "radius_range: expected a list"),
        ("simulate", {"radius_range": ["a", 3]}, "radius_range must be two numbers"),
        ("simulate", {"radius_range": [1.0, 2.0, 3.0]}, "radius_range must be two numbers"),
        ("simulate", {"radius_range": [True, 3]}, "radius_range must be two numbers"),
        ("simulate", {"collision_script": [["a", 1, 2]]}, "collision_script: entries must be"),
        ("simulate", {"collision_script": [8, 1, 2]}, "collision_script: entries must be"),
        ("simulate", {"mitosis_script": [[3.5, 1]]}, "mitosis_script: entries must be"),
        ("simulate", {"apoptosis_script": [[4, 1, 2]]}, "apoptosis_script: entries must be"),
        ("simulate", {"fade_frames": 0, "apoptosis_script": [[3, 1]], "frames": 5}, "fade_frames"),
        ("simulate", {"fade_frames": -2, "apoptosis_script": [[3, 1]], "frames": 8}, "fade_frames"),
        ("simulate", {"drift_sigma": -1}, "drift_sigma must be >= 0"),
        ("simulate", {"noise_sigma": -1}, "noise_sigma must be >= 0"),
        ("simulate", {"n_init": -2}, "n_init must be >= 0"),
        ("simulate", {"mitosis_script": [[1, 1]]}, "mitosis_script: time 1 outside 2..20"),
        ("simulate", {"collision_script": [[40, 1, 2]]}, "collision_script: time 40 outside 1..20"),
        ("simulate", {"apoptosis_script": [[0, 1]], "frames": 8}, "apoptosis_script: time 0 outside 1..8"),
        ("simulate", {"width": 64, "height": 200, "radius_range": [2.0, 30.0]}, "leave a 4 px margin"),
        ("track", {"tracker": {"search_size": 0}}, "search_size must be >= 1"),
        ("track", {"tracker": {"search_size": -5}}, "search_size must be >= 1"),
        ("track", {"min_cell_size": 5}, "unknown key 'min_cell_size'"),
        ("track", {"tracker": {"template_pad": 2}}, "tracker: unknown key 'template_pad'"),
        ("track", {"segmentation": "bogus"}, "segmentation must be 'threshold' or 'masks', got 'bogus'"),
        ("track", {"segmentation": "masks", "threshold_method": "otsu"}, "unknown key 'threshold_method'"),
        ("track", {"tracker": {"search_size": 64, "min_score": 0.2}}, "tracker: unknown key 'min_score'"),
        ("track", {"threshold_level": 0.5}, "unknown key 'threshold_level'"),
        ("track", {"rwalker": {"beta": 130.0}}, "unknown key 'rwalker'"),
        ("track", {"connectivity": 6}, "connectivity must be 4 or 8"),
        ("track", {"segmentation": "masks", "connectivity": 0}, "connectivity must be 4 or 8"),
        ("simulate", {"collision_script": [[8, 1, 1]]}, "collision_script: cell 1 cannot collide with itself"),
        ("simulate", {"collision_script": [[1, 1, 2]]}, "collision_script: time 1 is before 3"),
        ("simulate", {"collision_script": [[2, 1, 2]]}, "collision_script: time 2 is before 3"),
        ("simulate", {"collision_script": [[8, 1, 2], [8, 1, 3]]}, "t=8: cell 1 is under a collision plan"),
        ("simulate", {"collision_script": [[8, 1, 2], [12, 1, 3]]}, "t=12: cell 1 is under a collision plan"),
        ("simulate", {"apoptosis_script": [[3, 1], [4, 1]]}, "apoptosis scripted at t=4: cell 1 is fading"),
        ("simulate", {"apoptosis_script": [[3, 1]], "mitosis_script": [[4, 1]]}, "mitosis scripted at t=4: cell 1 is fading"),
        ("simulate", {"apoptosis_script": [[3, 1]], "collision_script": [[12, 1, 2]]}, "t=12: cell 1 is fading"),
        ("simulate", {"collision_script": [[8, 1, 2]], "mitosis_script": [[8, 1]]}, "mitosis scripted at t=8: cell 1 is under"),
        ("simulate", {"noise_sigma": float("nan")}, "cfg.json: NaN is not a finite number"),
        ("simulate", {"noise_sigma": float("inf")}, "cfg.json: Infinity is not a finite number"),
        ("simulate", {"radius_range": [float("nan"), 12.0]}, "NaN is not a finite number"),
        ("track", {"tracker": {"search_size": float("nan")}}, "NaN is not a finite number"),
        ("track", {"tracker": {"search_size": float("inf")}}, "Infinity is not a finite number"),
        ("track", {"tracker": {"search_size": float("-inf")}}, "-Infinity is not a finite number"),
        ("track", {"input_dir": "."}, "unknown key 'input_dir'"),
        ("track", {"output_dir": "out"}, "unknown key 'output_dir'"),
        ("track", {"enable_collision_resolution": False}, "unknown key 'enable_collision_resolution'"),
        # 8 EB, beyond any address space, so the allocation fails at once
        ("simulate", {"width": 10**9, "height": 10**9, "frames": 2, "n_init": 1}, "Unable to allocate"),
    ],
)
def test_bad_config_is_an_error_message(command, doc, key, sim_dir, tmp_path, capsys):
    _check_config_error(command, json.dumps(doc), key, sim_dir, tmp_path, capsys)


@pytest.mark.parametrize(
    "command, text, key",
    [
        pytest.param("simulate", '{"noise_sigma": 1e400}', "cfg.json: 1e400 is not a finite number", id="1e400"),
        pytest.param("simulate", '{"drift_sigma": 1e400}', "cfg.json: 1e400 is not a finite number", id="drift-1e400"),
        pytest.param("simulate", '{"noise_sigma": -1e400}', "cfg.json: -1e400 is not a finite number", id="-1e400"),
        pytest.param("simulate", '{"drift_sigma": 1%s}' % ("0" * 400), "0 is not a finite number", id="400-digits"),
        pytest.param("simulate", '{"noise_sigma": -1%s}' % ("0" * 400), "0 is not a finite number", id="-400-digits"),
        pytest.param("track", '{"tracker": {"search_size": 1e400}}', "1e400 is not a finite number", id="track-1e400"),
        pytest.param("simulate", "[" * 100000 + "]" * 100000, "cfg.json: nested too deeply", id="simulate-lists"),
        pytest.param("track", "[" * 100000 + "]" * 100000, "cfg.json: nested too deeply", id="track-lists"),
        pytest.param("track", '{"tracker":' * 5000 + "1" + "}" * 5000, "cfg.json: nested too deeply", id="trackers"),
    ],
)
def test_overflowing_or_deep_config_is_an_error_message(command, text, key, sim_dir, tmp_path, capsys):
    _check_config_error(command, text, key, sim_dir, tmp_path, capsys)


def _check_config_error(command, text, key, sim_dir, tmp_path, capsys):
    """`command` with the config file `text` exits 1 with one error line
    holding `key`, and writes no output directory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "track":
        argv += ["--in", sim_dir]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("lineage: error: ") and key in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_config_value_types(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"connectivity": 8, "tracker": {"search_size": 64}}))
    cfg = jsonconfig.load(PipelineConfig, str(path))
    assert (cfg.connectivity, cfg.tracker.search_size) == (8, 64)
    for bad, expected in (
        ({"connectivity": 4.0}, "connectivity: expected an integer, got 4.0"),
        ({"enable_mitosis_detection": 0}, "unknown key 'enable_mitosis_detection'"),
        ({"segmentation": ["masks"]}, 'segmentation: expected a string, got ["masks"]'),
        ({"tracker": {"search_size": "64"}}, 'tracker: search_size: expected an integer, got "64"'),
        ({"tracker": {"search_size": False}}, "tracker: search_size: expected an integer, got false"),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(expected)):
            jsonconfig.load(PipelineConfig, str(path))
    # PipelineConfig has no float key: SimConfig's carry the number rule
    path.write_text(json.dumps({"drift_sigma": 2, "radius_range": [4, 6], "collision_script": [[3, 1, 2]]}))
    sim = jsonconfig.load(SimConfig, str(path))  # an integer is a number
    assert sim.drift_sigma == 2 and sim.radius_range == (4, 6) and sim.collision_script == ((3, 1, 2),)
    for bad, expected in (
        ({"drift_sigma": False}, "drift_sigma: expected a number, got false"),
        ({"drift_sigma": "1.5"}, 'drift_sigma: expected a number, got "1.5"'),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(expected)):
            jsonconfig.load(SimConfig, str(path))


def test_config_loaders_name_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tracker": {"search_sise": 64}}))
    with pytest.raises(ValueError, match="tracker: unknown key 'search_sise'"):
        jsonconfig.load(PipelineConfig, str(path))
    path.write_text(json.dumps({"frames": 5, "fps": 3, "colour": 1}))
    with pytest.raises(ValueError, match="unknown key 'colour', 'fps'"):
        jsonconfig.load(SimConfig, str(path))


def test_readers_close_their_files(sim_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tracker": {"search_size": 64}}))
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(json.dumps({"frames": 3}))
    pred_path = tmp_path / "fwd.txt"
    pred_path.write_text("1 1 10 12 20 22 0.9\n")
    ppm_path = tmp_path / "rgb.ppm"
    pgm.write_ppm(str(ppm_path), np.zeros((4, 5, 3), dtype=np.uint8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        masks = [pgm.read_pgm16(os.path.join(sim_dir, "mask%03d.pgm" % t)) for t in range(1, 9)]
        pgm.read_pgm8(os.path.join(sim_dir, "t001.pgm"))
        pgm.read_ppm(str(ppm_path))
        trackfile.read_track_file(os.path.join(sim_dir, "res_track.txt"))
        jsonconfig.load(PipelineConfig, str(cfg_path))
        jsonconfig.load(SimConfig, str(sim_path))
        ExternalTracker(forward_path=str(pred_path))
        del masks
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# Bad values the pipeline fuzz puts into otherwise valid documents.
BAD_SIM_VALUES = [
    ("frames", 0), ("n_init", -1), ("radius_range", [6.0, 3.0]), ("radius_range", [4.0, 60.0]),
    ("noise_sigma", -0.1), ("fade_frames", 0), ("mitosis_prob", 1.5), ("width", "64"), ("n_cells", 3),
    ("collision_script", [[2, 1, 2]]), ("collision_script", [[4, 2, 2]]), ("apoptosis_script", [[2, 1], [3, 1]]),
    ("collision_script", [[5, 1, 2], [6, 2, 3]]),
]
BAD_TRACK_VALUES = [
    ("tracker", {"search_size": 0}), ("connectivity", 6), ("segmentation", "bogus"), ("tracker", {"search_sise": 64}),
]
REPORT_KEYS = ["seg", "tra", "aogm", "aogm0", "counts", "gt_fingerprint", "seg_rows"]


def _fuzz_sim_doc(rng):
    """A small SimConfig document, sometimes with one bad value."""
    frames, n_init = int(rng.integers(1, 7)), int(rng.integers(0, 6))
    rmin = float(rng.uniform(3.0, 8.0))
    doc = {
        "width": int(rng.integers(40, 97)),
        "height": int(rng.integers(40, 97)),
        "frames": frames,
        "n_init": n_init,
        "radius_range": [rmin, rmin + float(rng.uniform(0.0, 4.0))],
        "drift_sigma": float(rng.choice([0.0, 1.0, 3.0])),
        "mitosis_prob": float(rng.choice([0.0, 0.0, 0.1])),
        "apoptosis_prob": float(rng.choice([0.0, 0.0, 0.1])),
        "fade_frames": int(rng.integers(1, 4)),
        "noise_sigma": float(rng.choice([0.0, 0.02])),
        "rng_seed": int(rng.integers(1000)),
    }
    times = lambda first: int(rng.integers(first, frames + 1))

    def cells(k):
        pool = n_init + int(rng.random() < 0.15)  # sometimes name cell n_init + 1, which is not there
        return [int(c) for c in rng.choice(pool, size=k, replace=False) + 1]

    if frames >= 3 and n_init >= 2 and rng.random() < 0.5:
        doc["collision_script"] = [[times(3), *cells(2)]]
    if frames >= 2 and n_init >= 1 and rng.random() < 0.3:
        doc["mitosis_script"] = [[times(2), *cells(1)]]
    if n_init >= 1 and rng.random() < 0.3:
        doc["apoptosis_script"] = [[times(1), *cells(1)]]
    if rng.random() < 0.25:
        key, value = BAD_SIM_VALUES[int(rng.integers(len(BAD_SIM_VALUES)))]
        doc[key] = value
    return doc


def _fuzz_track_doc(rng):
    """A small PipelineConfig document, sometimes with one bad value."""
    doc = {
        "segmentation": str(rng.choice(["threshold", "threshold", "masks"])),
        "connectivity": int(rng.choice([4, 8])),
        "tracker": {"search_size": int(rng.choice([8, 32, 64]))},
    }
    if rng.random() < 0.2:
        key, value = BAD_TRACK_VALUES[int(rng.integers(len(BAD_TRACK_VALUES)))]
        doc[key] = value
    return doc


def _run_checked(argv, capsys):
    """main(argv): exit 0, or exit 1 with exactly one `lineage: error:` line; never a traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err, (argv, err)
    assert len([line for line in err.splitlines() if line.startswith("lineage: error: ")]) == code, (argv, err)
    return code


def _checked_lineage(directory):
    """The tree's lineage, checked by LineageGraph.validate() against its masks' labels."""
    present = [np.unique(mask.labels) for mask in _read_masks(_stack_paths(directory, MASK_FMT, "masks"))]
    return trackfile.read_track_file(os.path.join(directory, TRACK_FILE), present)


def _check_events(directory, lineage):
    """Every event of a simulated tree names tracks that its lineage has alive then."""
    with open(os.path.join(directory, "events.txt")) as f:
        events = [[int(v) if v.isdigit() else v for v in line.split()] for line in f]
    alive = lambda tid, t: lineage.tracks[tid].birth <= t <= lineage.tracks[tid].end
    for t, kind, *ids in events:
        if kind == "MITOSIS":
            assert lineage.tracks[ids[0]].end == t - 1, (t, kind, ids)
            assert all((lineage.tracks[c].birth, lineage.tracks[c].parent) == (t, ids[0]) for c in ids[1:])
        else:
            assert all(alive(tid, t) for tid in ids), (t, kind, ids)
    dying = [ids[0] for _, kind, *ids in events if kind == "APOPTOSIS"]
    assert len(dying) == len(set(dying))


def test_pipeline_fuzz(tmp_path, capsys):
    rng = np.random.default_rng(5)
    codes = Counter()
    for case in range(100):
        work = tmp_path / str(case)
        work.mkdir()
        sim_cfg, track_cfg, sim = work / "sim.json", work / "track.json", str(work / "sim")
        sim_cfg.write_text(json.dumps(_fuzz_sim_doc(rng)))
        track_cfg.write_text(json.dumps(_fuzz_track_doc(rng)))
        codes["simulate", _run_checked(["simulate", "--config", str(sim_cfg), "--out", sim], capsys)] += 1
        if not os.path.isdir(sim):
            continue
        _check_events(sim, _checked_lineage(sim))
        for mode in ([], ["--baseline"]):
            out = str(work / ("track" + "".join(mode)))
            code = _run_checked(["track", "--in", sim, "--out", out, "--config", str(track_cfg)] + mode, capsys)
            codes["track", code] += 1
            if code:
                continue
            _checked_lineage(out)
            code = _run_checked(["evaluate", "--gt", sim, "--pred", out], capsys)
            codes["evaluate", code] += 1
            if code == 0:
                with open(os.path.join(out, "report.json")) as f:
                    assert list(json.load(f)) == REPORT_KEYS
            argv = ["overlay", "--in", sim, "--masks", out, "--out", out + "_overlay"]
            codes["overlay", _run_checked(argv, capsys)] += 1
    assert all(codes[cmd, code] for cmd in ("simulate", "track") for code in (0, 1)), codes
    assert codes["evaluate", 0] and codes["overlay", 0], codes


def test_simulate_newborns_sit_out_their_birth_frame(tmp_path, capsys):
    # daughters of a scripted mitosis are born at t=2; a random event on them
    # in that same frame would end their track before it began
    cfg, sim = tmp_path / "sim.json", str(tmp_path / "sim")
    cfg.write_text(json.dumps({"frames": 3, "mitosis_prob": 0.5, "mitosis_script": [[2, 1]]}))
    assert _run_checked(["simulate", "--seed", "0", "--config", str(cfg), "--out", sim], capsys) == 0
    _check_events(sim, _checked_lineage(sim))


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"].get("scripts")


def run_help(cmd):
    return subprocess.run(cmd + ["--help"], capture_output=True, text=True, timeout=120)


def test_console_script_installed():
    # The script is on PATH only after `pip install`; an uninstalled tree
    # checks the declared entry point and runs its target the way pip's
    # generated wrapper does.
    scripts = declared_scripts()
    assert scripts == {"lineage": "celllineage.cli:main"}

    module_name, attr = scripts["lineage"].split(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    wrapper = (
        "import sys\n"
        "from %s import %s\n"
        "sys.argv[0] = 'lineage'\n"
        "sys.exit(%s())\n" % (module_name, attr, attr)
    )
    proc = run_help([sys.executable, "-c", wrapper])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lineage")

    try:
        importlib.metadata.distribution("celllineage")
    except importlib.metadata.PackageNotFoundError:
        return
    exe = shutil.which("lineage")
    assert exe is not None
    proc = run_help([exe])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lineage")
