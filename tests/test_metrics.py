import hashlib

import numpy as np
import pytest

from celllineage.imagecore import LabelMask
from celllineage.linker import LineageGraph, Track
from celllineage.metrics import (
    DEFAULT_WEIGHTS,
    MetricsError,
    SegReport,
    census,
    compare_runs,
    seg_score,
    tra_score,
)
from celllineage.simulator import SimConfig, simulate


def mask(arr):
    return LabelMask(np.asarray(arr, dtype=np.int32))


def lineage(tracks, assignments=None):
    g = LineageGraph()
    for tid, birth, end, parent in tracks:
        g.tracks[tid] = Track(tid, birth, end, parent)
    g.assignments = assignments or {}
    return g


def brute_seg(gt_masks, pred_masks):
    """Direct per-cell recount of the SEG definition, no shared helpers."""
    scores = []
    for gt, pred in zip(gt_masks, pred_masks):
        for g in sorted(set(gt.labels.ravel().tolist()) - {0}):
            region = gt.labels == g
            best = 0.0
            for p in sorted(set(pred.labels[region].ravel().tolist()) - {0}):
                inter = np.count_nonzero(region & (pred.labels == p))
                if 2 * inter > np.count_nonzero(region):
                    union = np.count_nonzero(region | (pred.labels == p))
                    best = inter / union
            scores.append(best)
    return sum(scores) / len(scores)


def brute_tra(gt_lineage, gt_masks, pred_lineage, pred_masks):
    """Constructive recount of AOGM: enumerate nodes, edges and matches."""
    w = DEFAULT_WEIGHTS

    def collect(lg, masks):
        nodes = set()
        for t, m in enumerate(masks, start=1):
            for lab in set(m.labels.ravel().tolist()) - {0}:
                nodes.add((t, lab))
        edges = {}
        for tr in lg.tracks.values():
            for t in range(tr.birth, tr.end):
                if (t, tr.id) in nodes and (t + 1, tr.id) in nodes:
                    edges[((t, tr.id), (t + 1, tr.id))] = "track"
            if tr.parent:
                a = (lg.tracks[tr.parent].end, tr.parent)
                b = (tr.birth, tr.id)
                if a in nodes and b in nodes:
                    edges[(a, b)] = "parent"
        return nodes, edges

    gt_nodes, gt_edges = collect(gt_lineage, gt_masks)
    pr_nodes, pr_edges = collect(pred_lineage, pred_masks)

    match = {}
    for t, (gm, pm) in enumerate(zip(gt_masks, pred_masks), start=1):
        for g in set(gm.labels.ravel().tolist()) - {0}:
            region = gm.labels == g
            size = np.count_nonzero(region)
            for p in set(pm.labels[region].ravel().tolist()) - {0}:
                if 2 * np.count_nonzero(region & (pm.labels == p)) > size:
                    match[(t, g)] = (t, p)
    per_pred = {}
    for g, p in match.items():
        per_pred.setdefault(p, []).append(g)

    fn = len([g for g in gt_nodes if g not in match])
    fp = len([p for p in pr_nodes if p not in per_pred])
    ns = sum(len(v) - 1 for v in per_pred.values())
    uniq = {p: v[0] for p, v in per_pred.items() if len(v) == 1}
    ed = ec = 0
    realized = set()
    for (a, b), kind in pr_edges.items():
        ga, gb = uniq.get(a), uniq.get(b)
        if ga is not None and gb is not None and (ga, gb) in gt_edges:
            realized.add((ga, gb))
            if gt_edges[(ga, gb)] != kind:
                ec += 1
        else:
            ed += 1
    ea = len([e for e in gt_edges if e not in realized])
    aogm = w["NS"] * ns + w["FN"] * fn + w["FP"] * fp + w["ED"] * ed + w["EA"] * ea + w["EC"] * ec
    aogm0 = w["FN"] * len(gt_nodes) + w["EA"] * len(gt_edges)
    return 1.0 - min(aogm, aogm0) / aogm0


def test_seg_perfect_match():
    m = mask([[0, 1, 1], [2, 2, 0]])
    report = seg_score(census([m], [mask(m.labels.copy())]))
    assert report.score == 1.0
    assert all(j == 1.0 for (_, _, _, j) in report.rows)


def test_seg_empty_prediction_scores_zero():
    gt = mask([[1, 1], [2, 2]])
    report = seg_score(census([gt], [mask([[0, 0], [0, 0]])]))
    assert report.score == 0.0


def test_seg_half_overlap_not_matched():
    # exactly half is not "more than half": no match
    gt = mask([[1, 1, 1, 1]])
    pred = mask([[5, 5, 0, 0]])
    assert seg_score(census([gt], [pred])).score == 0.0


def test_seg_majority_overlap_jaccard():
    gt = mask([[1, 1, 1, 1]])
    pred = mask([[5, 5, 5, 0]])
    assert seg_score(census([gt], [pred])).score == pytest.approx(0.75)


def test_seg_requires_cells_and_same_shape():
    with pytest.raises(MetricsError):
        seg_score(census([mask([[0]])], [mask([[0]])]))
    with pytest.raises(MetricsError):
        seg_score(census([mask([[1]])], [mask([[1, 0]])]))
    with pytest.raises(MetricsError):
        seg_score(census([mask([[1]])], []))


def test_seg_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(15):
        gt = mask(rng.integers(0, 4, size=(12, 12)))
        if not np.any(gt.labels > 0):
            continue
        pred = mask(rng.integers(0, 4, size=(12, 12)))
        assert seg_score(census([gt], [pred])).score == pytest.approx(brute_seg([gt], [pred]))


def micro_dataset():
    """2 frames, one continuing cell + one dividing: returns (lineage, masks)."""
    m1 = np.zeros((8, 8), dtype=np.int32)
    m1[1:3, 1:3] = 1
    m1[5:7, 5:7] = 2
    m2 = np.zeros((8, 8), dtype=np.int32)
    m2[1:3, 1:3] = 1
    m2[4:6, 4:6] = 3
    m2[6:8, 6:8] = 4
    lg = lineage([(1, 1, 2, 0), (2, 1, 1, 0), (3, 2, 2, 2), (4, 2, 2, 2)])
    return lg, [mask(m1), mask(m2)]


def test_tra_perfect_prediction():
    lg, masks = micro_dataset()
    report = tra_score(lg, lg, census(masks, masks))
    assert report.score == 1.0
    assert report.aogm == 0.0
    assert all(v == 0 for v in report.counts.values())


def test_tra_empty_prediction():
    lg, masks = micro_dataset()
    empty = [mask(np.zeros((8, 8))), mask(np.zeros((8, 8)))]
    report = tra_score(lg, LineageGraph(), census(masks, empty))
    assert report.score == 0.0
    assert report.aogm == report.aogm0
    # 5 nodes, 1 track edge + 2 parent edges
    assert report.aogm0 == 10.0 * 5 + 1.5 * 3


def test_tra_requires_ground_truth_cells():
    empty = [mask(np.zeros((4, 4))), mask(np.zeros((4, 4)))]
    pred = [mask(np.ones((4, 4))), mask(np.zeros((4, 4)))]
    with pytest.raises(MetricsError, match="ground truth contains no cells"):
        tra_score(LineageGraph(), lineage([(1, 1, 1, 0)], {1: {1: 1}}), census(empty, pred))


def test_tra_missing_node_costs_fn_and_ea():
    lg, masks = micro_dataset()
    pred = [mask(masks[0].labels.copy()), mask(masks[1].labels.copy())]
    arr = pred[1].labels.copy()
    arr[arr == 4] = 0  # drop one daughter in frame 2
    pred[1] = mask(arr)
    plg = lineage([(1, 1, 2, 0), (2, 1, 1, 0), (3, 2, 2, 2)])
    report = tra_score(lg, plg, census(masks, pred))
    assert report.counts["FN"] == 1
    assert report.counts["EA"] == 1  # the parent edge to the lost daughter
    assert report.aogm == 10.0 + 1.5


def test_tra_split_error_costs_ns():
    lg, masks = micro_dataset()
    # prediction merges both frame-2 daughters into one label
    arr = masks[1].labels.copy()
    arr[arr == 4] = 3
    plg = lineage([(1, 1, 2, 0), (2, 1, 1, 0), (3, 2, 2, 2)])
    report = tra_score(lg, plg, census(masks, [masks[0], mask(arr)]))
    assert report.counts["NS"] == 1


def test_tra_edge_semantics_change():
    # GT: one track over 2 frames. Pred: same pixels but split into
    # parent/child tracks, so the track edge comes back as a parent edge.
    m1 = np.zeros((4, 4), dtype=np.int32)
    m1[1:3, 1:3] = 1
    gt_lg = lineage([(1, 1, 2, 0)])
    gt_masks = [mask(m1), mask(m1.copy())]
    pm2 = m1.copy()
    pm2[pm2 == 1] = 2
    pred_lg = lineage([(1, 1, 1, 0), (2, 2, 2, 1)])
    report = tra_score(gt_lg, pred_lg, census(gt_masks, [mask(m1), mask(pm2)]))
    assert report.counts["EC"] == 1
    assert report.counts["ED"] == 0 and report.counts["EA"] == 0


def test_tra_matches_brute_force_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        # random 2-frame micro-world with up to 3 GT and 3 pred cells
        def random_world():
            masks = []
            for _ in range(2):
                arr = np.zeros((10, 10), dtype=np.int32)
                for lab in range(1, int(rng.integers(1, 4)) + 1):
                    r, c = int(rng.integers(0, 7)), int(rng.integers(0, 7))
                    arr[r : r + 3, c : c + 3] = lab
                masks.append(mask(arr))
            labs1 = set(masks[0].labels.ravel().tolist()) - {0}
            labs2 = set(masks[1].labels.ravel().tolist()) - {0}
            tracks = []
            for lab in labs1 | labs2:
                birth = 1 if lab in labs1 else 2
                end = 2 if lab in labs2 else 1
                tracks.append((lab, birth, end, 0))
            return lineage(tracks), masks

        gt_lg, gt_masks = random_world()
        pr_lg, pr_masks = random_world()
        got = tra_score(gt_lg, pr_lg, census(gt_masks, pr_masks)).score
        want = brute_tra(gt_lg, gt_masks, pr_lg, pr_masks)
        assert got == pytest.approx(want)


def test_compare_runs_requires_same_ground_truth():
    a = SegReport(score=0.5, rows=[], gt_fingerprint="aaaa")
    b = SegReport(score=0.6, rows=[], gt_fingerprint="bbbb")
    with pytest.raises(MetricsError):
        compare_runs(a, b)


def test_compare_runs_paper_table_values():
    fp = "same"
    seg = compare_runs(
        SegReport(0.800, [], fp), SegReport(0.838, [], fp)
    )
    tra = compare_runs(
        SegReport(0.922, [], fp), SegReport(0.956, [], fp)
    )
    assert seg["score"] == pytest.approx(0.038)
    assert tra["score"] == pytest.approx(0.034)


def fingerprint(masks):
    return census(masks, masks).gt_fingerprint


def test_masks_fingerprint_sensitivity():
    a = [mask([[1, 0], [0, 2]])]
    b = [mask([[1, 0], [0, 3]])]
    assert fingerprint(a) == fingerprint([mask(a[0].labels.copy())])
    assert fingerprint(a) != fingerprint(b)


def test_masks_fingerprint_hashes_16_bit_labels():
    labels = [[[0, 1, 2], [300, 65535, 0]], [[7, 0, 0], [0, 0, 9]]]
    h = hashlib.sha256()
    for arr in labels:
        h.update(np.array(arr, dtype="<u2").tobytes() + b"|")
    assert fingerprint([mask(arr) for arr in labels]) == h.hexdigest()[:16]


def test_masks_fingerprint_ignores_dtype():
    arr = [[0, 1, 2], [300, 65535, 0]]
    wide = [LabelMask(np.array(arr, dtype=np.int32))]
    narrow = [LabelMask(np.array(arr, dtype=np.uint16))]
    assert fingerprint(wide) == fingerprint(narrow)


def test_masks_fingerprint_rejects_labels_above_16_bits():
    with pytest.raises(MetricsError, match="frame 2: label 65536"):
        fingerprint([mask([[1, 0]]), mask([[0, 65536]])])


def simulated_stacks():
    """A simulated ground-truth stack, and the same masks shifted 2 px right."""
    _, gt = simulate(SimConfig(width=96, height=96, frames=6, n_init=4, radius_range=(6.0, 8.0), rng_seed=3))
    return gt.masks, [LabelMask(np.roll(m.labels, 2, axis=1)) for m in gt.masks]


def test_census_over_generators_equals_census_over_lists():
    gt_masks, pred_masks = simulated_stacks()
    want = census(gt_masks, pred_masks)
    got = census((m for m in gt_masks), (m for m in pred_masks))
    assert got.frames == want.frames and len(got.frames) == 6
    assert got.gt_fingerprint == want.gt_fingerprint


@pytest.mark.parametrize("short", ["gt", "pred"])
def test_census_generator_stack_one_frame_short_is_an_error(short):
    stacks = dict(zip(("gt", "pred"), simulated_stacks()))
    stacks[short] = stacks[short][:-1]
    with pytest.raises(MetricsError, match="frame count mismatch"):
        census((m for m in stacks["gt"]), (m for m in stacks["pred"]))
