"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (pytest -v adds its own
verdict per test as well). Tolerances are pinned here and nowhere else.
"""

import dataclasses
import time

import numpy as np
import pytest

from celllineage import pgm
from celllineage.cli import PipelineConfig, _segment_sequence
from celllineage.imagecore import Frame, LabelMask, make_cell
from celllineage import kernels
from celllineage.linker import (
    Apoptosis,
    Continuation,
    LineageGraph,
    MatchSet,
    Mitosis,
    Track,
    classify_state,
    resolve_collisions,
    run_linker,
)
from celllineage.metrics import SegReport, census, compare_runs, seg_score, tra_score
from celllineage.rwalker import SeedSet, build_lattice, reseg_cell, solve_probabilities
from celllineage.simulator import script_collision_scenario, simulate
from celllineage.tracker import NCCTracker, TrackerConfig, TrackerPrediction, predict
from celllineage.trackfile import format_track_file, parse_track_file


def _run_pipeline(sequence, full):
    cfg = PipelineConfig()
    return run_linker(_segment_sequence(sequence, cfg), NCCTracker(TrackerConfig()), baseline=not full)


def test_criterion_01_directional_improvement():
    """Full pipeline beats baseline on mean SEG and mean TRA, seeds 1-20."""
    seg_full, seg_base, tra_full, tra_base = [], [], [], []
    for seed in range(1, 21):
        start = time.monotonic()
        sequence, gt = simulate(script_collision_scenario(seed=seed))
        kinds = [ev[1] for ev in gt.events]
        assert kinds.count("COLLISION") >= 1 and kinds.count("MITOSIS") >= 1
        for collision, seg_acc, tra_acc in (
            (True, seg_full, tra_full),
            (False, seg_base, tra_base),
        ):
            out_masks, graph, _ = _run_pipeline(sequence, collision)
            frame_census = census(gt.masks, out_masks)
            seg_acc.append(seg_score(frame_census).score)
            tra_acc.append(tra_score(gt.lineage, graph, frame_census).score)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, "scenario seed=%d took %.1f s" % (seed, elapsed)
    seg_delta = np.mean(seg_full) - np.mean(seg_base)
    tra_delta = np.mean(tra_full) - np.mean(tra_base)
    assert seg_delta > 0.0
    assert tra_delta > 0.0
    print(
        "PASS criterion 1: directional improvement over 20 seeds "
        "(mean SEG %+.3f, mean TRA %+.3f, each scenario < 30 s)" % (seg_delta, tra_delta)
    )


def test_criterion_02_state_rule_totality():
    """Match counts 0/1/2/5 map to Apoptosis/Continuation/Mitosis/Mitosis."""
    assert classify_state(MatchSet(1, ())) == Apoptosis()
    assert classify_state(MatchSet(1, (3,))) == Continuation(3)
    assert classify_state(MatchSet(1, (3, 4))) == Mitosis((3, 4))
    assert classify_state(MatchSet(1, (1, 2, 3, 4, 5))) == Mitosis((1, 2, 3, 4, 5))
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 10))
        ids = tuple(int(i) for i in rng.choice(50, size=n, replace=False))
        state = classify_state(MatchSet(1, ids))
        assert sum(isinstance(state, k) for k in (Apoptosis, Continuation, Mitosis)) == 1
    print("PASS criterion 2: state rule total over sizes 0/1/2/5 and 200 random match sets")


def test_criterion_03_random_walker_numerics():
    """50 random weighted lattices: normalization, range, harmonicity, dense solve."""
    rng = np.random.default_rng(1)
    for case in range(50):
        h = int(rng.integers(2, 21))
        w = int(rng.integers(2, 400 // h + 1))
        region = np.ones((h, w), dtype=bool)
        graph = build_lattice(np.zeros((h, w)), region)
        graph = dataclasses.replace(
            graph, weights=rng.uniform(0.05, 1.0, size=len(graph.weights))
        )
        n = len(graph.pixels)
        n_seeds = int(rng.integers(2, 5))
        picks = rng.choice(n, size=min(n_seeds, n), replace=False)
        seeds = SeedSet(tuple((tuple(graph.pixels[p].tolist()), k + 1) for k, p in enumerate(sorted(picks))))
        prob = solve_probabilities(graph, seeds).probabilities

        assert np.all(np.abs(prob.sum(axis=1) - 1.0) < 1e-6)
        assert prob.min() >= -1e-6 and prob.max() <= 1.0 + 1e-6

        # harmonicity at unseeded nodes
        adj = {}
        for (i, j), wt in zip(graph.edges, graph.weights):
            adj.setdefault(i, []).append((j, wt))
            adj.setdefault(j, []).append((i, wt))
        seeded = {graph.node[p] for p, _ in seeds.seeds}
        for i in range(n):
            if i in seeded:
                continue
            wsum = sum(wt for _, wt in adj[i])
            for lab in range(prob.shape[1]):
                avg = sum(wt * prob[j, lab] for j, wt in adj[i]) / wsum
                assert abs(prob[i, lab] - avg) < 1e-6

        # dense direct solve oracle
        lap = np.zeros((n, n))
        for (i, j), wt in zip(graph.edges, graph.weights):
            lap[i, j] -= wt
            lap[j, i] -= wt
            lap[i, i] += wt
            lap[j, j] += wt
        seed_label = {graph.node[p]: lab for p, lab in seeds.seeds}
        free = [i for i in range(n) if i not in seed_label]
        want = np.zeros_like(prob)
        for i, lab in seed_label.items():
            want[i, lab - 1] = 1.0
        if free:
            a = lap[np.ix_(free, free)]
            for lab in range(1, prob.shape[1] + 1):
                b = np.zeros(len(free))
                for fi, i in enumerate(free):
                    for j, jl in seed_label.items():
                        if jl == lab:
                            b[fi] -= lap[i, j]
                want[free, lab - 1] = np.linalg.solve(a, b)
        assert np.abs(prob - want).max() < 1e-6

    # uniform path graphs: linear interpolation to 1e-8
    for length in (2, 3, 5, 10, 30):
        region = np.ones((1, length), dtype=bool)
        graph = build_lattice(np.zeros((1, length)), region)
        seeds = SeedSet((((0, 0), 1), ((0, length - 1), 2)))
        prob = solve_probabilities(graph, seeds).probabilities
        order = [graph.node[(0, c)] for c in range(length)]
        want = 1.0 - np.arange(length) / (length - 1.0)
        assert np.abs(prob[order, 0] - want).max() < 1e-8
    print("PASS criterion 3: random-walker numerics on 50 lattices and path graphs")


def test_criterion_04_resegmentation_partition():
    """100 random lumps split into exact partitions; simulator lumps >= 90% right."""
    rng = np.random.default_rng(2)
    done = 0
    while done < 100:
        h, w = 20, 20
        img = (128 + rng.integers(-20, 21, size=(h, w))).astype(np.uint8)
        top, left = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        bh, bw = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        pts = [(top + r, left + c) for r in range(bh) for c in range(bw)]
        lump = make_cell(1, pts)
        n = int(rng.integers(2, 4))
        cents = []
        for _ in range(n):
            cents.append(
                (top + float(rng.uniform(0, bh - 1)), left + float(rng.uniform(0, bw - 1)))
            )
        if len({(int(round(r)), int(round(c))) for r, c in cents}) < n:
            continue  # seed clash by construction, not a valid instance
        cells = reseg_cell(Frame(1, img), lump, cents, (0.0, 0.0))
        assert len(cells) == n
        union = set()
        for cell in cells:
            assert not union & cell.pixels
            union |= cell.pixels
        assert union == lump.pixels
        done += 1

    # simulator collision lump at the contact frame
    agreements = []
    for seed in range(3):
        sequence, gt = simulate(script_collision_scenario(seed=seed))
        contact_t = next(ev[0] for ev in gt.events if ev[1] == "COLLISION")
        mask = gt.masks[contact_t - 1].labels
        prev_mask = gt.masks[contact_t - 2].labels
        lump_pts = [tuple(p) for p in np.argwhere((mask == 1) | (mask == 2))]
        lump = make_cell(1, lump_pts)
        cents = [tuple(np.argwhere(prev_mask == lab).mean(axis=0)) for lab in (1, 2)]
        cells = reseg_cell(sequence[contact_t - 1], lump, cents, (0.0, 0.0))
        agree = sum(
            1
            for cell, lab in zip(cells, (1, 2))
            for p in cell.pixels
            if mask[p] == lab
        )
        agreements.append(agree / len(lump_pts))
    assert min(agreements) >= 0.90
    print(
        "PASS criterion 4: 100 exact partitions; simulator lump agreement >= %.1f%%"
        % (100 * min(agreements))
    )


def test_criterion_05_collision_loop_termination():
    """200 fuzzed scenarios terminate within bounds and conserve pixels."""
    rng = np.random.default_rng(3)
    for case in range(200):
        h = w = int(rng.integers(16, 33))
        img = (128 + rng.integers(-25, 26, size=(h, w))).astype(np.uint8)
        frame = Frame(2, img)
        used = np.zeros((h, w), dtype=bool)
        cur = []
        for _ in range(int(rng.integers(1, 5))):
            top = int(rng.integers(0, h - 7))
            left = int(rng.integers(0, w - 7))
            size = int(rng.integers(2, 7))
            pts = [(top + r, left + c) for r in range(size) for c in range(size)]
            if any(used[p] for p in pts):
                continue
            for p in pts:
                used[p] = True
            cur.append(pts)
        cur = [make_cell(i, pts) for i, pts in enumerate(sorted(cur, key=min), start=1)]
        prev = [
            make_cell(
                pid,
                [
                    (int(rng.integers(0, h - 3)) + r, int(rng.integers(0, w - 3)) + c)
                    for r in range(3)
                    for c in range(3)
                ],
            )
            for pid in range(1, int(rng.integers(1, 7)) + 1)
        ]
        preds = {}
        for c in cur:
            grow = int(rng.integers(0, 10))
            region = (
                max(0, c.bbox[0] - grow),
                max(0, c.bbox[1] - grow),
                min(h - 1, c.bbox[2] + grow),
                min(w - 1, c.bbox[3] + grow),
            )
            preds[c.id] = TrackerPrediction(region, 0.9, bool(rng.integers(0, 2)))

        def predict_backward(cell, parents):
            return TrackerPrediction(cell.bbox, 0.9, True)

        before = sum(len(c.pixels) for c in cur)
        out, report = resolve_collisions(frame, cur, prev, preds, predict_backward)
        assert report.iterations <= max(1, len(prev))
        assert sum(len(c.pixels) for c in out) == before
        union = set()
        for c in out:
            assert not union & c.pixels
            union |= c.pixels
    print("PASS criterion 5: 200 fuzzed collision loops terminate and conserve pixels")


def test_criterion_06_metric_oracles():
    """SEG/TRA match brute force; perfect = 1, empty = 0; published deltas."""
    from tests.test_metrics import brute_seg, brute_tra, lineage, mask, micro_dataset

    # hand-built micro-datasets (<= 3 frames, <= 6 cells)
    datasets = []
    lg, masks = micro_dataset()
    datasets.append((lg, masks, lg, masks))
    # shifted prediction
    shifted = []
    for m in masks:
        arr = np.zeros_like(m.labels)
        arr[:, 1:] = m.labels[:, :-1]
        shifted.append(mask(arr))
    datasets.append((lg, masks, lg, shifted))
    # three frames, one track, prediction loses the middle frame
    m = np.zeros((6, 6), dtype=np.int32)
    m[2:4, 2:4] = 1
    g3 = lineage([(1, 1, 3, 0)])
    p3 = lineage([(1, 1, 3, 0)])
    gt3 = [mask(m), mask(m.copy()), mask(m.copy())]
    pr3 = [mask(m.copy()), mask(np.zeros_like(m)), mask(m.copy())]
    datasets.append((g3, gt3, p3, pr3))

    for gt_lg, gt_masks, pr_lg, pr_masks in datasets:
        frame_census = census(gt_masks, pr_masks)
        assert seg_score(frame_census).score == pytest.approx(brute_seg(gt_masks, pr_masks))
        got = tra_score(gt_lg, pr_lg, frame_census).score
        assert got == pytest.approx(brute_tra(gt_lg, gt_masks, pr_lg, pr_masks))

    lg, masks = micro_dataset()
    assert seg_score(census(masks, masks)).score == 1.0
    assert tra_score(lg, lg, census(masks, masks)).score == 1.0

    empty = [mask(np.zeros((8, 8))) for _ in masks]
    assert seg_score(census(masks, empty)).score == 0.0
    assert tra_score(lg, LineageGraph(), census(masks, empty)).score == 0.0

    fp = "shared"
    seg_delta = compare_runs(SegReport(0.800, [], fp), SegReport(0.838, [], fp))["score"]
    tra_delta = compare_runs(SegReport(0.922, [], fp), SegReport(0.956, [], fp))["score"]
    assert seg_delta == pytest.approx(0.038)
    assert tra_delta == pytest.approx(0.034)
    print("PASS criterion 6: metric oracles agree; deltas +0.038 SEG / +0.034 TRA reproduced")


def test_criterion_07_tracker_correctness():
    """100 exact translated-blob offsets in the 150x150 window; affine to 1e-9."""
    rng = np.random.default_rng(4)
    shape = (220, 220)
    rr, cc = np.indices(shape)

    def blob(center):
        d2 = (rr - center[0]) ** 2 + (cc - center[1]) ** 2
        return Frame(1, np.round(230 * np.exp(-d2 / 72.0)).astype(np.uint8))

    f1 = blob((110, 110))
    cell = make_cell(1, [tuple(p) for p in np.argwhere(f1.pixels > 100)])
    for _ in range(100):
        dr = int(rng.integers(-65, 66))
        dc = int(rng.integers(-65, 66))
        f2 = Frame(2, blob((110 + dr, 110 + dc)).pixels)
        pred = predict(f1, f2, cell)
        assert pred.valid
        assert pred.region[0] - (cell.bbox[0] - 2) == dr
        assert pred.region[1] - (cell.bbox[1] - 2) == dc

    # exhaustive-NCC oracle agreement on random intensity fields
    for _ in range(5):
        win = rng.random((40, 40))
        tpl = rng.random((7, 7))
        scores = kernels.ncc_map(win, tpl)
        best = None
        for r in range(scores.shape[0]):
            for c in range(scores.shape[1]):
                t0 = tpl - tpl.mean()
                p = win[r : r + 7, c : c + 7]
                p0 = p - p.mean()
                denom = np.sqrt((p0 * p0).sum() * (t0 * t0).sum())
                s = 0.0 if denom <= 1e-12 else float((p0 * t0).sum() / denom)
                assert abs(scores[r, c] - s) < 1e-9
                if best is None or s > best[0] + 1e-12:
                    best = (s, r, c)
        br, bc, _ = kernels.ncc_best(win, tpl)
        assert (br, bc) == (best[1], best[2])

    # affine invariance of the score
    from celllineage.tracker import ncc_score

    for _ in range(50):
        a, b = rng.random((6, 8)), rng.random((6, 8))
        scale = float(rng.uniform(0.05, 10.0))
        shift = float(rng.uniform(-5.0, 5.0))
        assert abs(ncc_score(scale * a + shift, b) - ncc_score(a, b)) < 1e-9
    print("PASS criterion 7: 100 exact offsets; NCC oracle and affine invariance to 1e-9")


def test_criterion_08_determinism(tmp_path):
    """simulate and track produce byte-identical trees on rerun."""
    import os

    from celllineage.cli import main

    def tree_bytes(root):
        out = {}
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as f:
                out[name] = f.read()
        return out

    sim_a, sim_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    assert main(["simulate", "--out", sim_a, "--seed", "11"]) == 0
    assert main(["simulate", "--out", sim_b, "--seed", "11"]) == 0
    assert tree_bytes(sim_a) == tree_bytes(sim_b)

    trk_a, trk_b = str(tmp_path / "ta"), str(tmp_path / "tb")
    assert main(["track", "--in", sim_a, "--out", trk_a]) == 0
    assert main(["track", "--in", sim_a, "--out", trk_b]) == 0
    assert tree_bytes(trk_a) == tree_bytes(trk_b)
    print("PASS criterion 8: simulate and track reruns are byte-identical")


def test_criterion_09_format_round_trips(tmp_path):
    """100 random PGM masks and track files survive write-read-write."""
    rng = np.random.default_rng(5)
    for k in range(100):
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        labels = rng.integers(0, 2000, size=(h, w)).astype(np.int32)
        path = str(tmp_path / ("m%03d.pgm" % k))
        pgm.write_pgm16(path, labels)
        with open(path, "rb") as f:
            first = f.read()
        back = pgm.read_pgm16(path)
        assert np.array_equal(back, labels.astype(np.uint16))
        pgm.write_pgm16(path, back.astype(np.int32))
        with open(path, "rb") as f:
            assert f.read() == first

    for k in range(100):
        n = int(rng.integers(1, 12))
        graph = LineageGraph()
        for label in range(1, n + 1):
            birth = int(rng.integers(1, 12))
            end = birth + int(rng.integers(0, 12))
            parent = 0
            candidates = [r.id for r in graph.tracks.values() if r.end == birth - 1]
            if candidates and rng.random() < 0.5:
                parent = int(rng.choice(candidates))
            graph.tracks[label] = Track(label, birth, end, parent)
        text = format_track_file(graph)
        assert format_track_file(parse_track_file(text)) == text
    print("PASS criterion 9: 100 PGM and res_track.txt round-trips byte-identical")
