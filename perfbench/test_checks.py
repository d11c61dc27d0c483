"""The benchmark's checkers accept honest trees and reject corrupted ones.

Run with: python3 -m pytest perfbench
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

import checks
import tracing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_pgm(path, array, maxval):
    array = np.asarray(array)
    h, w = array.shape
    raster = array.astype(np.uint8 if maxval == 255 else ">u2").tobytes()
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n%d\n" % (w, h, maxval) + raster)


def make_tree(directory, masks, tracks, frames=None, events=()):
    os.makedirs(directory, exist_ok=True)
    for t, mask in enumerate(masks, start=1):
        write_pgm(os.path.join(directory, checks.MASK_FMT % t), mask, 65535)
    for t, frame in enumerate(frames or (), start=1):
        write_pgm(os.path.join(directory, checks.FRAME_FMT % t), frame, 255)
    with open(os.path.join(directory, checks.TRACK_FILE), "w") as f:
        f.writelines("%d %d %d %d\n" % (label, b, e, p) for label, (b, e, p) in tracks.items())
    with open(os.path.join(directory, checks.EVENT_FILE), "w") as f:
        f.writelines("%d %s %s\n" % (t, kind, " ".join(map(str, ids))) for t, kind, ids in events)
    return str(directory)


def scene():
    """Three 32x32 frames: two 5x5 cells, and a 2-pixel speckle too small to keep."""
    frames, masks = [], []
    for t in range(3):
        frame = np.full((32, 32), 20, dtype=np.uint8)
        mask = np.zeros((32, 32), dtype=np.int64)
        frame[4:9, 4 + t : 9 + t] = 200
        mask[4:9, 4 + t : 9 + t] = 1
        frame[20:25, 20:25] = 180
        mask[20:25, 20:25] = 2
        frame[12, 28:30] = 220
        frames.append(frame)
        masks.append(mask)
    return frames, masks


TRACKS = {1: (1, 3, 0), 2: (1, 3, 0)}


def test_honest_scene_passes(tmp_path):
    frames, masks = scene()
    gt = make_tree(tmp_path / "gt", masks, TRACKS, frames, events=[(2, "COLLISION", (1, 2))])
    problems, cells = checks.check_gt_tree(gt, [(2, "COLLISION", 1)])
    assert problems == [] and cells == 6
    assert checks.check_track_tree(gt, gt) == []


def test_label_outside_its_track_is_rejected():
    _, masks = scene()
    assert checks.check_forest(masks, {1: (1, 3, 0), 2: (1, 2, 0)})
    assert checks.check_forest(masks, {1: (1, 3, 0)})


def test_parent_ending_at_wrong_frame_is_rejected():
    _, masks = scene()
    masks[2][masks[2] == 2] = 3
    assert checks.check_forest(masks, {1: (1, 3, 0), 2: (1, 2, 0), 3: (3, 3, 2)}) == []
    assert checks.check_forest(masks, {1: (1, 3, 0), 2: (1, 3, 0), 3: (3, 3, 2)})
    assert checks.check_forest(masks, {1: (1, 3, 0), 2: (1, 2, 0), 3: (3, 3, 9)})


def test_dropped_or_added_foreground_pixel_is_rejected():
    frames, masks = scene()
    assert checks.check_foreground(frames, masks) == []
    dropped = [m.copy() for m in masks]
    dropped[1][6, 6] = 0
    assert checks.check_foreground(frames, dropped)
    speckle = [m.copy() for m in masks]
    speckle[0][12, 28:30] = 4
    assert checks.check_foreground(frames, speckle)
    # re-partitioning a cell keeps the foreground
    split = [m.copy() for m in masks]
    split[2][4:6][split[2][4:6] == 1] = 5
    assert checks.check_foreground(frames, split) == []


def test_otsu_matches_direct_variance_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pixels = rng.integers(0, 256, size=(16, 16)) // rng.integers(1, 40)
        hist = np.bincount(pixels.ravel(), minlength=256).astype(float)
        levels = np.arange(256)
        best, best_k = -1.0, None
        for k in range(256):
            w0, w1 = hist[: k + 1].sum(), hist[k + 1 :].sum()
            if w0 and w1:
                m0 = (hist[: k + 1] * levels[: k + 1]).sum() / w0
                m1 = (hist[k + 1 :] * levels[k + 1 :]).sum() / w1
                var = w0 * w1 * (m0 - m1) ** 2
                if var > best * (1 + 1e-12):
                    best, best_k = var, k
        assert checks.otsu_level(pixels) == best_k
    assert checks.otsu_level(np.full((4, 4), 7)) is None


def honest_report(masks, tracks, pred):
    seg = checks.seg_score(masks, pred)
    nodes, edges = checks.gt_graph_size(masks, tracks)
    aogm0 = 10.0 * nodes + 1.5 * edges
    counts = {"NS": 0, "FN": 3, "FP": 0, "ED": 0, "EA": 2, "EC": 0}
    aogm = 10.0 * 3 + 1.5 * 2
    return {"seg": seg, "tra": 1 - aogm / aogm0, "aogm": aogm, "aogm0": aogm0, "counts": counts}


def test_report_checks():
    _, masks = scene()
    pred = [m.copy() for m in masks]
    pred[0][4:6, 4:9] = 0  # cell 1 of frame 1 loses 10 of 25 pixels: Jaccard 0.6
    report = honest_report(masks, TRACKS, pred)
    assert report["seg"] == pytest.approx((5 + 0.6) / 6)
    assert checks.check_report(report, masks, TRACKS, pred) == []
    for key, value in (("seg", report["seg"] + 1e-6), ("tra", report["tra"] - 0.01), ("aogm0", 1.0)):
        assert checks.check_report(dict(report, **{key: value}), masks, TRACKS, pred)
    assert checks.check_report(dict(report, counts=dict(report["counts"], FP=1)), masks, TRACKS, pred)
    assert checks.check_report(dict(report, tra=1.5), masks, TRACKS, pred)


def test_missing_scripted_event_or_bad_mitosis_is_rejected():
    tracks = {1: (1, 2, 0), 2: (3, 4, 1), 3: (3, 4, 1)}
    events = [(3, "MITOSIS", (1, 2, 3)), (2, "COLLISION", (2, 3))]
    assert checks.check_events(events, tracks, [(3, "MITOSIS", 1), (2, "COLLISION", 2)]) == []
    assert checks.check_events(events, tracks, [(4, "APOPTOSIS", 2)])
    assert checks.check_events([(3, "MITOSIS", (1, 2, 4))], tracks, [])


def test_ncc_oracle():
    rng = np.random.default_rng(0)
    window = rng.random((20, 24))
    template = window[5:11, 7:15].copy()
    r, c = 5, 7
    assert tracing.check_ncc_sample(window, template, (r, c, 1.0)) == []
    assert tracing.check_ncc_sample(window, template, (r, c + 1, 1.0))
    assert tracing.check_ncc_sample(window, template, (r, c, 0.99))
    # plateau: every placement of a constant window scores 0; the first wins
    flat = np.ones((10, 10))
    assert tracing.check_ncc_sample(flat, template[:3, :3], (0, 0, 0.0)) == []
    assert tracing.check_ncc_sample(flat, template[:3, :3], (0, 1, 0.0))


def test_reseg_oracle():
    lump = frozenset((r, c) for r in range(3) for c in range(4))
    left = frozenset(p for p in lump if p[1] < 2)
    right = lump - left
    assert tracing.check_reseg_sample(lump, 2, [left, right]) == []
    assert tracing.check_reseg_sample(lump, 3, [left, right])
    assert tracing.check_reseg_sample(lump, 2, [left, right | {(0, 0)}])
    assert tracing.check_reseg_sample(lump, 2, [left, right - {(0, 3)}])


@pytest.fixture(scope="module")
def program_trees(tmp_path_factory):
    """simulate -> track -> evaluate on a small sequence, run by the program."""
    sys.path.insert(0, SRC)
    from celllineage import cli

    root = tmp_path_factory.mktemp("program")
    sim = {"width": 96, "height": 96, "frames": 12, "n_init": 4, "collision_script": [[8, 1, 2]],
           "mitosis_script": [[10, 3]], "rng_seed": 5}
    (root / "sim.json").write_text(json.dumps(sim))
    (root / "track.json").write_text(json.dumps({"tracker": {"search_size": 40}}))
    gt, pred = str(root / "gt"), str(root / "pred")
    assert cli.main(["simulate", "--config", str(root / "sim.json"), "--out", gt]) == 0
    assert cli.main(["track", "--config", str(root / "track.json"), "--in", gt, "--out", pred]) == 0
    assert cli.main(["evaluate", "--gt", gt, "--pred", pred]) == 0
    return gt, pred, [(8, "COLLISION", 1), (10, "MITOSIS", 3)]


def test_program_output_passes(program_trees):
    gt, pred, scripted = program_trees
    assert checks.check_gt_tree(gt, scripted)[0] == []
    assert checks.check_track_tree(gt, pred) == []
    assert checks.check_evaluation(gt, pred)[0] == []


def test_corrupted_program_output_fails(program_trees, tmp_path):
    gt, pred, _ = program_trees
    bad = str(tmp_path / "bad")
    shutil.copytree(pred, bad)
    path = os.path.join(bad, checks.MASK_FMT % 5)
    mask = checks.read_pgm(path)
    rows, cols = np.nonzero(mask)
    mask[rows[0], cols[0]] = 0
    write_pgm(path, mask, 65535)
    assert checks.check_track_tree(gt, bad)
    assert checks.check_evaluation(gt, bad)[0]  # SEG in report.json no longer matches
