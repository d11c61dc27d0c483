import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from celllineage import pgm, trackfile
from celllineage.cli import PipelineConfig, build_parser, main
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


def test_overlay(sim_dir, tmp_path, capsys):
    out = tmp_path / "ov"
    assert run(["overlay", "--in", sim_dir, "--out", str(out)]) == 0
    files = sorted(os.listdir(str(out)))
    assert files == ["overlay%03d.ppm" % t for t in range(1, 9)]
    rgb = pgm.read_ppm(os.path.join(str(out), "overlay001.ppm"))
    assert rgb.shape == (128, 128, 3)
    # boundaries are colored: some pixel differs across channels
    assert np.any(rgb[:, :, 0] != rgb[:, :, 1])


def test_error_paths(tmp_path, capsys):
    missing = tmp_path / "nothing"
    missing.mkdir()
    assert run(["track", "--in", str(missing), "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["evaluate", "--gt", str(missing), "--pred", str(missing)]) == 1


def test_pipeline_config_from_json(tmp_path):
    doc = {
        "segmentation": "threshold",
        "threshold_method": "fixed",
        "threshold_level": 0.4,
        "tracker": {"search_size": 100},
        "rwalker": {"beta": 90.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = PipelineConfig.from_json(str(path))
    assert cfg.threshold_method == "fixed"
    assert cfg.tracker.search_size == 100
    assert cfg.rwalker.beta == 90.0


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("track", {"tracker": {"search_sise": 64}}, "search_sise"),
        ("track", {"rwalker": {"beta": 90.0, "betta": 1.0}}, "betta"),
        ("track", {"segmentaton": "masks"}, "segmentaton"),
        ("track", {"tracker": 64}, "tracker"),
        ("track", [1, 2], "cfg.json"),
        ("simulate", {"width": 64, "n_cells": 3}, "n_cells"),
        ("simulate", [64], "cfg.json"),
        ("track", {"tracker": {"search_size": "big"}}, "search_size: expected an integer"),
        ("track", {"tracker": {"search_size": True}}, "search_size: expected an integer"),
        ("track", {"rwalker": {"cg_tol": 1e-6}}, "rwalker: unknown key 'cg_tol'"),
        ("simulate", {"frames": "3"}, "frames: expected an integer"),
        ("simulate", {"radius_range": 5}, "radius_range: expected a list"),
    ],
)
def test_bad_config_is_an_error_message(command, doc, key, sim_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
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
    doc = {"threshold_level": 1, "enable_mitosis_detection": False, "rwalker": {"beta": 90}}
    path.write_text(json.dumps(doc))
    cfg = PipelineConfig.from_json(str(path))  # an integer is a number
    assert (cfg.threshold_level, cfg.enable_mitosis_detection, cfg.rwalker.beta) == (1, False, 90)
    for bad, expected in (
        ({"threshold_level": False}, "threshold_level: expected a number, got false"),
        ({"connectivity": 4.0}, "connectivity: expected an integer, got 4.0"),
        ({"enable_mitosis_detection": 0}, "enable_mitosis_detection: expected true or false, got 0"),
        ({"segmentation": ["masks"]}, 'segmentation: expected a string, got ["masks"]'),
        ({"rwalker": {"epsilon": "1e-6"}}, 'rwalker: epsilon: expected a number, got "1e-6"'),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(expected)):
            PipelineConfig.from_json(str(path))
    path.write_text(json.dumps({"radius_range": [4, 6], "collision_script": [[3, 1, 2]]}))
    sim = SimConfig.from_json(str(path))
    assert sim.radius_range == (4, 6) and sim.collision_script == ((3, 1, 2),)


def test_config_loaders_name_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tracker": {"search_sise": 64}}))
    with pytest.raises(ValueError, match="tracker: unknown key 'search_sise'"):
        PipelineConfig.from_json(str(path))
    path.write_text(json.dumps({"frames": 5, "fps": 3, "colour": 1}))
    with pytest.raises(ValueError, match="unknown key 'colour', 'fps'"):
        SimConfig.from_json(str(path))


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
        PipelineConfig.from_json(str(cfg_path))
        SimConfig.from_json(str(sim_path))
        ExternalTracker(forward_path=str(pred_path))
        del masks
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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
