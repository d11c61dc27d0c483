import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from celllineage.imagecore import Frame, LabelMask, cells_from_labelmask, make_cell
from celllineage.linker import (
    Apoptosis,
    CollisionReport,
    Continuation,
    LineageGraph,
    MatchSet,
    Mitosis,
    Track,
    _bbox_center,
    classify_state,
    detect_collisions,
    match_forward,
    resolve_collisions,
    run_linker,
    update_lineage,
)
from celllineage import kernels, linker
from celllineage import tracker as tracker_module
from celllineage.cli import PipelineConfig, _segment_sequence, main
from celllineage.jsonconfig import from_doc
from celllineage.rwalker import ResegFailure, reseg_cell
from celllineage.simulator import SimConfig, script_collision_scenario, simulate
from celllineage.tracker import ExternalTracker, NCCTracker, TrackerConfig, TrackerPrediction
from test_golden import COLLISIONS_SIM, COLLISIONS_TRACK, CROWDED_SIM


def pred(region, score=0.9, valid=True):
    return TrackerPrediction(region, score, valid)


def square_cell(cid, top, left, size=4):
    return make_cell(cid, [(top + r, left + c) for r in range(size) for c in range(size)])


def grown(bbox, by, h, w):
    """`bbox` widened by `by` pixels on each side, clipped to an h x w frame."""
    top, left, bottom, right = bbox
    return (max(0, top - by), max(0, left - by), min(h - 1, bottom + by), min(w - 1, right + by))


class StationaryTracker:
    """Stub tracker: every prediction is the cell's own bbox, score 1."""

    def predict(self, frame_src, frame_dst, cell):
        return TrackerPrediction(cell.bbox, 1.0, True)

    def reach(self, cell, shape):
        return (0, 0, shape[0] - 1, shape[1] - 1), tuple(shape)


def test_classify_state_exhaustive_sizes():
    assert classify_state(MatchSet(1, ())) == Apoptosis()
    assert classify_state(MatchSet(1, (4,))) == Continuation(4)
    assert classify_state(MatchSet(1, (4, 7))) == Mitosis((4, 7))
    assert classify_state(MatchSet(1, (1, 2, 3, 4, 5))) == Mitosis((1, 2, 3, 4, 5))


def test_classify_state_total_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(0, 8))
        ids = tuple(int(i) for i in rng.choice(100, size=n, replace=False))
        state = classify_state(MatchSet(1, ids))
        kinds = [isinstance(state, k) for k in (Apoptosis, Continuation, Mitosis)]
        assert sum(kinds) == 1


def test_detect_collisions_basic():
    prev = [square_cell(1, 10, 10), square_cell(2, 10, 20), square_cell(3, 30, 30)]
    cur = [square_cell(1, 10, 10, size=14), square_cell(2, 30, 30)]
    preds = {1: pred((8, 8, 25, 25)), 2: pred((28, 28, 35, 35))}
    flagged = detect_collisions(prev, cur, preds)
    assert flagged == [(1, [1, 2])]


def test_detect_collisions_skips_invalid_predictions():
    prev = [square_cell(1, 10, 10), square_cell(2, 10, 20)]
    cur = [square_cell(1, 10, 10, size=14)]
    preds = {1: pred((8, 8, 25, 25), valid=False)}
    assert detect_collisions(prev, cur, preds) == []


def test_detect_collisions_single_centroid_not_flagged():
    prev = [square_cell(1, 10, 10)]
    cur = [square_cell(1, 10, 10)]
    preds = {1: pred((8, 8, 16, 16))}
    assert detect_collisions(prev, cur, preds) == []


def test_match_forward_rules():
    prev = [square_cell(1, 10, 10), square_cell(2, 30, 30), square_cell(3, 50, 50)]
    cur = [square_cell(1, 10, 10), square_cell(2, 30, 36)]
    preds = {
        1: pred((9, 9, 14, 14)),  # contains cur cell 1 centroid
        2: pred((30, 34, 33, 41)),  # center pixel (32,38) in cur cell 2
        3: pred((50, 50, 55, 55), valid=False),
    }
    sets = match_forward(prev, cur, preds)
    assert sets[0] == MatchSet(1, (1,))
    assert sets[1].matches == (2,)
    assert sets[2].matches == ()


def test_match_forward_multiple_matches():
    prev = [square_cell(1, 10, 10)]
    cur = [square_cell(1, 8, 8), square_cell(2, 8, 16)]
    preds = {1: pred((6, 6, 23, 23))}
    assert match_forward(prev, cur, preds)[0].matches == (1, 2)


def _reference_bbox_contains(bbox, point):
    top, left, bottom, right = bbox
    r, c = point
    return top <= r <= bottom and left <= c <= right


def reference_detect_collisions(cells_prev, cells_cur, backward_preds):
    """Reference for `detect_collisions`: a Python loop over every pair of cells.

    Returns [(current cell id, [previous cell ids])] in current-cell order.
    """
    flagged = []
    for cell in cells_cur:
        pred = backward_preds.get(cell.id)
        if pred is None or not pred.valid:
            continue
        inside = [p.id for p in cells_prev if _reference_bbox_contains(pred.region, p.centroid)]
        if len(inside) >= 2:
            flagged.append((cell.id, inside))
    return flagged


def reference_match_forward(cells_prev, cells_cur, forward_preds):
    """Reference for `match_forward`: a Python loop over every pair of cells.

    A current cell matches when its centroid falls in the predicted region
    bbox (inclusive), or the region's center pixel lies in the cell. Invalid
    predictions yield empty match sets.
    """
    out = []
    for prev in cells_prev:
        pred = forward_preds.get(prev.id)
        matches = []
        if pred is not None and pred.valid:
            fr, fc = _bbox_center(pred.region)
            center_px = (int(round(fr)), int(round(fc)))
            for cur in cells_cur:
                if _reference_bbox_contains(pred.region, cur.centroid) or cur.contains(center_px):
                    matches.append(cur.id)
        out.append(MatchSet(source=prev.id, matches=tuple(matches)))
    return out


def _fuzz_cells(rng, h, w):
    """Cells of a raster painted with random rectangles of random labels:
    irregular, touching and split regions, and none at all."""
    labels = np.zeros((h, w), dtype=np.int32)
    for _ in range(int(rng.integers(0, 12))):
        r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
        dr, dc = (int(v) for v in rng.integers(1, 9, size=2))
        labels[r : r + dr, c : c + dc] = rng.integers(0, 6)
    return cells_from_labelmask(LabelMask(labels), int(rng.choice([4, 8])))


def _fuzz_preds(rng, cells, h, w):
    """Per cell: no entry, None, an invalid prediction, or a region around,
    beside or half off the frame, clipped to the frame edge half the time."""
    preds = {}
    for c in cells:
        kind = rng.random()
        if kind < 0.1:
            continue
        if kind < 0.2:
            preds[c.id] = None
            continue
        top, left = (int(v) for v in rng.integers(-4, (h + 2, w + 2)))
        region = (top, left, top + int(rng.integers(0, 12)), left + int(rng.integers(0, 12)))
        if rng.random() < 0.5:
            region = (max(0, region[0]), max(0, region[1]), min(h - 1, region[2]), min(w - 1, region[3]))
        if rng.random() < 0.3:
            region = grown(c.bbox, int(rng.integers(0, 6)), h, w)
        preds[c.id] = pred(region, valid=bool(rng.random() < 0.85))
    return preds


def test_box_tables_match_reference_loops():
    rng = np.random.default_rng(14)
    flagged = matched = center_only = split = empty = 0
    for case in range(1500):
        h, w = (int(v) for v in rng.integers(6, 33, size=2))
        prev, cur = _fuzz_cells(rng, h, w), _fuzz_cells(rng, h, w)
        back, fwd = _fuzz_preds(rng, cur, h, w), _fuzz_preds(rng, prev, h, w)
        if cur and rng.random() < 0.3:
            # pieces split off by resolve_collisions, renumbered in scan order
            frame = Frame(2, rng.integers(0, 256, size=(h, w)).astype(np.uint8))
            repredict = lambda c, parents: pred(grown(c.bbox, 2, h, w))
            cur, report = resolve_collisions(frame, cur, prev, back, repredict)
            back = _fuzz_preds(rng, cur, h, w)
            split += bool(report.splits)
        want = reference_detect_collisions(prev, cur, back)
        assert detect_collisions(prev, cur, back) == want, case
        flagged += bool(want)
        want = reference_match_forward(prev, cur, fwd)
        assert match_forward(prev, cur, fwd) == want, case
        matched += any(ms.matches for ms in want)
        empty += not prev or not cur
        for ms in want:
            p = fwd.get(ms.source)
            center_only += any(
                not _reference_bbox_contains(p.region, c.centroid) for c in cur if c.id in ms.matches
            )
    assert flagged and matched and center_only and split and empty


def test_lineage_validate_rejects_bad_graphs():
    g = LineageGraph()
    g.tracks[1] = Track(1, 5, 3, 0)
    with pytest.raises(ValueError):
        g.validate()
    g.tracks[1] = Track(1, 1, 3, 9)
    with pytest.raises(ValueError):
        g.validate()
    g.tracks = {1: Track(1, 1, 3, 0), 2: Track(2, 5, 6, 1)}
    with pytest.raises(ValueError):
        g.validate()  # parent ends at 3, child born at 5
    g.tracks = {1: Track(1, 1, 2, 0)}
    g.assignments = {5: {1: 1}}
    with pytest.raises(ValueError):
        g.validate()  # assignment outside the track span


def test_update_lineage_continuation_and_apoptosis():
    g = LineageGraph()
    t1 = g.new_track(1)
    t2 = g.new_track(1)
    g.assignments[1] = {1: t1, 2: t2}
    events = update_lineage(g, 2, {1: Continuation(1), 2: Apoptosis()}, [square_cell(1, 0, 0)])
    assert g.tracks[t1].end == 2 and g.tracks[t2].end == 1
    assert (2, "APOPTOSIS", (t2,)) in events
    g.validate()


def test_update_lineage_mitosis():
    g = LineageGraph()
    t1 = g.new_track(1)
    g.assignments[1] = {1: t1}
    cur = [square_cell(1, 0, 0), square_cell(2, 10, 10)]
    events = update_lineage(g, 2, {1: Mitosis((1, 2))}, cur)
    children = [tr for tr in g.tracks.values() if tr.parent == t1]
    assert len(children) == 2
    assert all(tr.birth == 2 for tr in children)
    assert g.tracks[t1].end == 1
    assert any(ev[1] == "MITOSIS" for ev in events)
    g.validate()


def test_update_lineage_merge_conflict_lower_track_wins():
    g = LineageGraph()
    t1 = g.new_track(1)
    t2 = g.new_track(1)
    g.assignments[1] = {1: t1, 2: t2}
    cur = [square_cell(1, 0, 0)]
    events = update_lineage(g, 2, {1: Continuation(1), 2: Continuation(1)}, cur)
    assert g.assignments[2] == {1: t1}
    assert g.tracks[t1].end == 2 and g.tracks[t2].end == 1
    assert (2, "MERGE_UNRESOLVED", (t2, t1)) in events


def test_update_lineage_new_track_for_unmatched_cell():
    g = LineageGraph()
    t1 = g.new_track(1)
    g.assignments[1] = {1: t1}
    cur = [square_cell(1, 0, 0), square_cell(2, 20, 20)]
    events = update_lineage(g, 2, {1: Continuation(1)}, cur)
    assert len(g.assignments[2]) == 2
    assert any(ev[1] == "NEW" and ev[0] == 2 for ev in events)


def test_update_lineage_state_bookkeeping_errors():
    g = LineageGraph()
    t1 = g.new_track(1)
    g.assignments[1] = {1: t1}
    with pytest.raises(ValueError):
        update_lineage(g, 2, {}, [])
    with pytest.raises(ValueError):
        update_lineage(g, 2, {1: Apoptosis(), 9: Apoptosis()}, [])


def two_blob_frame():
    img = np.full((30, 40), 25, dtype=np.uint8)
    rr, cc = np.indices(img.shape)
    for (r0, c0) in ((15, 12), (15, 26)):
        d2 = (rr - r0) ** 2 + (cc - c0) ** 2
        img = np.maximum(img, np.round(200 * np.exp(-d2 / 50.0)).astype(np.uint8))
    return Frame(2, img)


def test_resolve_collisions_splits_lump():
    frame = two_blob_frame()
    lump_pixels = [tuple(p) for p in np.argwhere(frame.pixels > 60)]
    lump = make_cell(1, lump_pixels)
    prev = [square_cell(1, 13, 10), square_cell(2, 13, 24)]
    preds = {1: pred(lump.bbox)}

    def predict_backward(cell, parents):
        return pred(cell.bbox)

    cells, report = resolve_collisions(frame, [lump], prev, preds, predict_backward)
    assert len(cells) == 2
    assert [c.id for c in cells] == [1, 2]
    assert cells[0].pixels | cells[1].pixels == lump.pixels
    assert report.iterations == 1
    assert report.splits == [(1, [1, 2], [2, 3])]


def test_resolve_collisions_unresolved_on_reseg_failure():
    img = np.full((10, 10), 128, dtype=np.uint8)
    frame = Frame(2, img)
    lump = make_cell(1, [(5, 5)])  # single pixel: seeds must clash
    prev = [square_cell(1, 4, 4, size=2), square_cell(2, 5, 6, size=2)]
    preds = {1: pred((3, 3, 7, 7))}
    cells, report = resolve_collisions(frame, [lump], prev, preds, lambda c, parents: pred(c.bbox))
    assert len(cells) == 1 and cells[0].pixels == lump.pixels
    assert report.unresolved and report.splits == []


def test_resolve_collisions_conserves_pixels_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h, w = 24, 24
        img = (128 + rng.integers(-20, 21, size=(h, w))).astype(np.uint8)
        frame = Frame(2, img)
        cur, prev = [], []
        used = np.zeros((h, w), dtype=bool)
        for cid in range(1, int(rng.integers(1, 4)) + 1):
            top = int(rng.integers(0, h - 6))
            left = int(rng.integers(0, w - 6))
            size = int(rng.integers(2, 6))
            cell = square_cell(cid, top, left, size)
            if any(used[r, c] for r, c in cell.pixels):
                continue
            for r, c in cell.pixels:
                used[r, c] = True
            cur.append(cell)
        for pid in range(1, int(rng.integers(1, 6)) + 1):
            prev.append(square_cell(pid, int(rng.integers(0, h - 3)), int(rng.integers(0, w - 3)), 3))
        cur = [make_cell(i, c.pixels) for i, c in enumerate(sorted(cur, key=lambda c: min(c.pixels)), 1)]
        preds = {}
        for c in cur:
            grow = int(rng.integers(0, 8))
            region = (
                max(0, c.bbox[0] - grow),
                max(0, c.bbox[1] - grow),
                min(h - 1, c.bbox[2] + grow),
                min(w - 1, c.bbox[3] + grow),
            )
            preds[c.id] = pred(region, valid=bool(rng.integers(0, 2)))
        before = sum(len(c.pixels) for c in cur)
        out, report = resolve_collisions(frame, cur, prev, preds, lambda c, parents: pred(c.bbox))
        assert sum(len(c.pixels) for c in out) == before
        assert report.iterations <= max(1, len(prev))
        union = set()
        for c in out:
            assert not union & c.pixels
            union |= c.pixels


def reference_resolve_collisions(frame_cur, cells_cur, cells_prev, backward_preds, predict_backward):
    """Reference for `resolve_collisions`: a loop that re-detects every cell
    on each pass, guarded by `dead` and `seen` sets and an iteration cap.

    Iteratively split flagged lumps until detection comes up empty.

    `predict_backward(cell, parents)` recomputes a backward prediction for a
    freshly split cell. A lump whose re-segmentation fails, or that
    reappears unchanged with the same parent set, is kept whole and reported
    unresolved. Cell ids are renumbered densely (row-major) before returning.
    """
    report = CollisionReport()
    cells = {c.id: c for c in cells_cur}
    preds = dict(backward_preds)
    prev_centroid = {c.id: c.centroid for c in cells_prev}
    next_id = max(cells, default=0) + 1
    dead = set()  # region keys of lumps given up on
    seen = set()  # (region key, parent set) pairs from earlier iterations
    origin = {}  # cell id -> parent set whose split produced it
    max_iters = max(1, len(cells_prev))

    for _ in range(max_iters):
        ordered = sorted(cells.values(), key=lambda c: c.first)
        flagged = detect_collisions(cells_prev, ordered, preds)
        actionable = []
        for lump_id, parents in flagged:
            sig = cells[lump_id].key
            if sig in dead:
                continue
            parent_set = frozenset(parents)
            if parent_set <= origin.get(lump_id, frozenset()):
                # this cell already came out of a split against these
                # parents; splitting again cannot improve the matching
                dead.add(sig)
                continue
            key = (sig, parent_set)
            if key in seen:
                # same lump, same parents as a previous round: no improvement
                dead.add(sig)
                report.unresolved.append((lump_id, parents, "no improvement"))
                continue
            seen.add(key)
            actionable.append((lump_id, parents))
        if not actionable:
            break
        report.iterations += 1
        for lump_id, parents in actionable:
            lump = cells[lump_id]
            pred = preds[lump_id]
            lr, lc = _bbox_center(lump.bbox)
            br, bc = _bbox_center(pred.region)
            displacement = (lr - br, lc - bc)
            try:
                segments = reseg_cell(frame_cur, lump, [prev_centroid[p] for p in parents], displacement)
            except ResegFailure as exc:
                dead.add(lump.key)
                report.unresolved.append((lump_id, parents, str(exc)))
                continue
            del cells[lump_id]
            del preds[lump_id]
            inherited = origin.pop(lump_id, frozenset()) | frozenset(parents)
            new_ids = []
            for seg in segments:
                cell = replace(seg, id=next_id)
                cells[next_id] = cell
                preds[next_id] = predict_backward(cell, inherited)
                origin[next_id] = inherited
                new_ids.append(next_id)
                next_id += 1
            report.splits.append((lump_id, parents, new_ids))

    # renumber densely in row-major first-pixel order
    ordered = sorted(cells.values(), key=lambda c: c.first)
    out = [replace(c, id=i) for i, c in enumerate(ordered, start=1)]
    return out, report


def fuzzed_lumps(n=1000, h=24, w=24):
    """(frame, current cells, previous cells, backward predictions, grow) per
    case: disjoint squares, tiny previous cells around them, and regions
    that pieces get by growing their box `grow` pixels."""
    rng = np.random.default_rng(7)
    for _ in range(n):
        frame = Frame(2, (128 + rng.integers(-40, 41, size=(h, w))).astype(np.uint8))
        used = np.zeros((h, w), dtype=bool)
        cur = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, 9))
            top, left = int(rng.integers(0, h - size)), int(rng.integers(0, w - size))
            if not used[top : top + size, left : left + size].any():
                used[top : top + size, left : left + size] = True
                cur.append(square_cell(0, top, left, size))
        cur = [replace(c, id=i) for i, c in enumerate(sorted(cur, key=lambda c: c.first), 1)]
        prev = [
            square_cell(pid, int(rng.integers(0, h - 2)), int(rng.integers(0, w - 2)), 2)
            for pid in range(1, int(rng.integers(1, 10)) + 1)
        ]
        preds = {}
        for c in cur:
            region = grown(c.bbox, int(rng.integers(0, 8)), h, w)
            preds[c.id] = pred(region, valid=bool(rng.random() < 0.8))
        yield frame, cur, prev, preds, int(rng.integers(0, 6))


def test_resolve_collisions_matches_reference_loop():
    h, w = 24, 24
    rounds2 = splits = unresolved = 0
    for case, (frame, cur, prev, preds, grow) in enumerate(fuzzed_lumps(h=h, w=w)):

        def predict_backward(cell, parents):
            return pred(grown(cell.bbox, grow, h, w))

        got = resolve_collisions(frame, cur, prev, preds, predict_backward)
        want = reference_resolve_collisions(frame, cur, prev, preds, predict_backward)
        assert got == want, case
        assert got[1].iterations <= max(1, len(prev))
        rounds2 += got[1].iterations >= 2
        splits += bool(got[1].splits)
        unresolved += bool(got[1].unresolved)
    assert rounds2 and splits and unresolved


class GrowingTracker:
    """Backward regions are the cell's box grown `grow` pixels; the reach
    is the box grown `grow + slack`, so every region lies in it, and its
    size is the region's."""

    def __init__(self, grow, slack):
        self.grow, self.slack, self.calls = grow, slack, 0

    def predict(self, frame_src, frame_dst, cell):
        self.calls += 1
        return pred(grown(cell.bbox, self.grow, *frame_src.pixels.shape))

    def reach(self, cell, shape):
        top, left, bottom, right = grown(cell.bbox, self.grow, *shape)
        return grown(cell.bbox, self.grow + self.slack, *shape), (bottom - top + 1, right - left + 1)


def unpruned_predictor(frame_prev, frame_cur, cells_prev, tracker):
    """The backward predictor before pieces were pruned by their parent set:
    None only when the reach holds fewer than two previous centroids."""

    def predict_backward(cell, parents=frozenset()):
        (top, left, bottom, right), _ = tracker.reach(cell, frame_cur.pixels.shape)
        inside = [p for p in cells_prev if top <= p.centroid[0] <= bottom and left <= p.centroid[1] <= right]
        if len(inside) < 2:
            return None
        return tracker.predict(frame_cur, frame_prev, cell)

    return predict_backward


def test_parent_set_prune_changes_nothing():
    """On the fuzzed lumps, pieces whose reach holds only centroids of their
    parent set are not predicted, and the cells and report stay those of the
    unpruned rule."""
    slack = np.random.default_rng(8)
    frame_prev = Frame(1, np.zeros((24, 24), dtype=np.uint8))
    pruned_cases = calls = unpruned_calls = 0
    for case, (frame, cur, prev, preds, grow) in enumerate(fuzzed_lumps()):
        reach_slack = int(slack.integers(0, 4))
        pruned, unpruned = GrowingTracker(grow, reach_slack), GrowingTracker(grow, reach_slack)
        got = resolve_collisions(frame, cur, prev, preds, linker._backward_predictor(frame_prev, frame, prev, pruned))
        want = resolve_collisions(frame, cur, prev, preds, unpruned_predictor(frame_prev, frame, prev, unpruned))
        assert got == want, case  # the cells and the report
        assert pruned.calls <= unpruned.calls, case
        pruned_cases += pruned.calls < unpruned.calls
        calls += pruned.calls
        unpruned_calls += unpruned.calls
    assert pruned_cases > 0 and calls < unpruned_calls


def sweep_finds_a_box(reach, size, centroids, ids, parents):
    """Brute force: some size box inside the reach holds two centroids, one
    of them outside `parents`. Every placement is swept."""
    (top, left, bottom, right), (h, w) = reach, size
    tops, lefts = np.meshgrid(np.arange(top, bottom - h + 2), np.arange(left, right - w + 2), indexing="ij")
    tops, lefts = tops.reshape(-1, 1), lefts.reshape(-1, 1)
    rows, cols = centroids
    held = (tops <= rows) & (rows <= tops + h - 1) & (lefts <= cols) & (cols <= lefts + w - 1)
    outside = np.array([i not in parents for i in ids], dtype=bool)
    return bool(((held.sum(axis=1) >= 2) & (held & outside).any(axis=1)).any())


class SlidingTracker(GrowingTracker):
    """A GrowingTracker whose regions are slid by an offset fixed per cell
    to anywhere in the reach, as an NCC search lands anywhere in its
    window."""

    def predict(self, frame_src, frame_dst, cell):
        self.calls += 1
        (top, left, bottom, right), (h, w) = self.reach(cell, frame_src.pixels.shape)
        r = top + (7 * cell.bbox[0] + 3 * cell.bbox[1]) % (bottom - top + 2 - h)
        c = left + (5 * cell.bbox[1] + cell.bbox[0]) % (right - left + 2 - w)
        return pred((r, c, r + h - 1, c + w - 1))


def test_region_size_prune_changes_nothing():
    """A cell or piece is searched backward exactly when some box of its
    largest region size inside its reach holds two previous centroids, one
    outside its parent set; and the prune leaves resolve_collisions' cells
    and report as the unpruned rule gives them."""
    rng = np.random.default_rng(29)
    seen = Counter()
    for case in range(600):
        h, w = (int(v) for v in rng.integers(6, 64, size=2))
        frame = Frame(2, rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        # single pixels have integer centroids, dominoes and 2x2 squares half-integer ones
        prev = []
        for pid in range(1, int(rng.integers(2, 9)) + 1):
            r, c = int(rng.integers(0, h - 1)), int(rng.integers(0, w - 1))
            dr, dc = [(0, 0), (0, 1), (1, 0), (1, 1)][int(rng.integers(0, 4))]
            prev.append(make_cell(pid, {(r, c), (r + dr, c + dc)}))
        ch, cw = int(rng.integers(1, h // 2 + 1)), int(rng.integers(1, w // 2 + 1))
        top = [0, int(rng.integers(0, h - ch + 1)), h - ch][int(rng.integers(0, 3))]
        left = [0, int(rng.integers(0, w - cw + 1)), w - cw][int(rng.integers(0, 3))]
        cell = make_cell(1, [(top + r, left + c) for r in range(ch) for c in range(cw)])
        if rng.random() < 0.15:
            tracker = ExternalTracker()  # reach and size: the whole frame
        else:
            # a search_size under the template's side makes the window the template box
            tracker = NCCTracker(TrackerConfig(search_size=int(rng.integers(1, 40))))
        ids = [p.id for p in prev]
        parents = frozenset(i for i in ids if rng.random() < 0.3)
        reach, size = tracker.reach(cell, (h, w))
        got = linker._backward_predictor(Frame(1, frame.pixels), frame, prev, tracker)(cell, parents) is not None
        want = sweep_finds_a_box(reach, size, linker._centroids(prev), ids, parents)
        assert got == want, case
        in_reach = [p.id for p in prev if linker._in_box(reach, *p.centroid)]
        seen["searched"] += got
        seen["pruned by size"] += not got and len(in_reach) >= 2 and not parents.issuperset(in_reach)
        seen["size fills reach"] += size == (reach[2] - reach[0] + 1, reach[3] - reach[1] + 1)
        clipped = (reach[0] == 0, reach[1] == 0, reach[2] == h - 1, reach[3] == w - 1)
        seen.update(border for border, hit in zip(("top", "left", "bottom", "right"), clipped) if hit)
        seen["clear of the borders"] += not any(clipped)
    assert len(seen) == 8 and min(seen.values()) >= 10, seen

    pruned_cases = 0
    frame_prev = Frame(1, np.zeros((24, 24), dtype=np.uint8))
    for case, (frame, cur, prev, preds, grow) in enumerate(fuzzed_lumps()):
        slack = case % 4
        pruned, unpruned = SlidingTracker(grow, slack), SlidingTracker(grow, slack)
        got = resolve_collisions(frame, cur, prev, preds, linker._backward_predictor(frame_prev, frame, prev, pruned))
        want = resolve_collisions(frame, cur, prev, preds, unpruned_predictor(frame_prev, frame, prev, unpruned))
        assert got == want, case  # the cells and the report
        pruned_cases += pruned.calls < unpruned.calls
    assert pruned_cases > 0


def steps(images, *labels):
    """run_linker's input: each image as frame t, with the cells of label raster t."""
    pairs = zip(images, labels, strict=True)
    return [(Frame(t, img), cells_from_labelmask(LabelMask(m))) for t, (img, m) in enumerate(pairs, start=1)]


def test_run_linker_simple_continuation():
    img = np.zeros((20, 20), dtype=np.uint8)
    img[5:9, 5:9] = 200
    mask = np.zeros((20, 20), dtype=np.int32)
    mask[5:9, 5:9] = 1
    out, graph, events = run_linker(steps([img, img.copy(), img.copy()], mask, mask, mask), StationaryTracker())
    assert len(graph.tracks) == 1
    tr = graph.tracks[1]
    assert (tr.birth, tr.end, tr.parent) == (1, 3, 0)
    out = list(out)
    assert len(out) == 3
    assert all(np.array_equal(m.labels, mask) for m in out)
    assert events == []


def test_run_linker_apoptosis_and_new():
    img1 = np.zeros((20, 20), dtype=np.uint8)
    img1[5:9, 5:9] = 200
    img2 = np.zeros((20, 20), dtype=np.uint8)
    img2[12:16, 12:16] = 200
    m1 = np.zeros((20, 20), dtype=np.int32)
    m1[5:9, 5:9] = 1
    m2 = np.zeros((20, 20), dtype=np.int32)
    m2[12:16, 12:16] = 1
    out, graph, events = run_linker(steps([img1, img2], m1, m2), StationaryTracker())
    assert len(list(out)) == 2
    kinds = sorted(ev[1] for ev in events)
    assert kinds == ["APOPTOSIS", "NEW"]
    assert len(graph.tracks) == 2
    assert graph.tracks[1].end == 1 and graph.tracks[2].birth == 2


def test_run_linker_mitosis_toggle():
    img1 = np.zeros((20, 30), dtype=np.uint8)
    img1[8:12, 13:17] = 200
    img2 = np.zeros((20, 30), dtype=np.uint8)
    img2[8:12, 8:12] = 200
    img2[8:12, 18:22] = 200
    m1 = np.zeros((20, 30), dtype=np.int32)
    m1[8:12, 13:17] = 1
    m2 = np.zeros((20, 30), dtype=np.int32)
    m2[8:12, 8:12] = 1
    m2[8:12, 18:22] = 2

    class WideTracker(StationaryTracker):
        def predict(self, frame_src, frame_dst, cell):
            if frame_dst.index > frame_src.index:  # forward
                top, left, bottom, right = cell.bbox
                return TrackerPrediction((top, max(0, left - 8), bottom, right + 8), 1.0, True)
            return super().predict(frame_src, frame_dst, cell)

    out, graph, events = run_linker(steps([img1, img2], m1, m2), WideTracker())
    assert len(list(out)) == 2
    assert any(ev[1] == "MITOSIS" for ev in events)
    children = [tr for tr in graph.tracks.values() if tr.parent == 1]
    assert len(children) == 2

    out, graph, events = run_linker(steps([img1, img2], m1, m2), WideTracker(), baseline=True)
    assert len(list(out)) == 2
    assert not any(ev[1] == "MITOSIS" for ev in events)
    assert all(tr.parent == 0 for tr in graph.tracks.values())


def test_run_linker_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="no frames to link"):
        run_linker(iter(()), StationaryTracker())


def test_run_linker_output_masks_use_track_ids():
    img = np.zeros((20, 20), dtype=np.uint8)
    img[2:5, 2:5] = 200
    img[10:13, 10:13] = 180
    m = np.zeros((20, 20), dtype=np.int32)
    m[2:5, 2:5] = 7
    m[10:13, 10:13] = 3
    out, graph, events = run_linker(steps([img, img.copy()], m, m), StationaryTracker())
    out = list(out)
    assert len(out) == 2
    for om in out:
        assert set(np.unique(om.labels)) == {0, 1, 2}


class CountingTracker:
    """An NCCTracker that counts its backward predictions; with `whole_frame`
    its reach is the whole frame, so run_linker prunes no backward search."""

    def __init__(self, config, whole_frame):
        self.inner = NCCTracker(config)
        self.whole_frame = whole_frame
        self.backward_calls = 0

    def predict(self, frame_src, frame_dst, cell):
        self.backward_calls += frame_dst.index < frame_src.index
        return self.inner.predict(frame_src, frame_dst, cell)

    def reach(self, cell, shape):
        if self.whole_frame:
            return (0, 0, shape[0] - 1, shape[1] - 1), tuple(shape)
        return self.inner.reach(cell, shape)


@pytest.mark.parametrize(
    "sim, search_size",
    [
        (COLLISIONS_SIM, 64),  # the collision golden: many lumps split and re-predicted
        (CROWDED_SIM, 64),  # dense 512x512 field with random mitoses
        (dict(CROWDED_SIM, rng_seed=5), 64),
        (script_collision_scenario(seed=2), 150),
    ],
    ids=["collisions-golden", "crowded-1", "crowded-5", "canonical-2"],
)
def test_run_linker_pruned_backward_search_changes_nothing(sim, search_size):
    cfg = sim if isinstance(sim, SimConfig) else from_doc(SimConfig, sim, "sim")
    frames, _ = simulate(cfg)
    pairs = list(_segment_sequence(frames, PipelineConfig()))
    runs = []
    for whole_frame in (True, False):
        tracker = CountingTracker(TrackerConfig(search_size=search_size), whole_frame)
        out, graph, events = run_linker(pairs, tracker)
        runs.append((tracker.backward_calls, list(out), graph, events))
    (calls_all, out_all, graph_all, events_all), (calls, out, graph, events) = runs
    assert len(out) == len(out_all) == len(frames)
    assert all(np.array_equal(a.labels, b.labels) for a, b in zip(out, out_all))
    assert graph == graph_all
    assert events == events_all
    assert calls < calls_all
    assert any(kind == "COLLISION" for _, kind, _ in events)


def test_run_linker_step_records(monkeypatch):
    """One record per frame step; its counts on the collision golden's run
    are those the traced benchmark reads off the linker's functions."""
    frames, _ = simulate(from_doc(SimConfig, COLLISIONS_SIM, "sim"))
    records, step = [], linker._link_step

    def spy(*args):
        records.append(step(*args))
        return records[-1]

    monkeypatch.setattr(linker, "_link_step", spy)
    pairs = _segment_sequence(frames, PipelineConfig())
    _, _, events = run_linker(pairs, NCCTracker(TrackerConfig(search_size=64)))
    assert len(records) == len(frames) - 1 == 19
    flagged = sum(len(r.flagged) for r in records)
    splits = sum(len(r.report.splits) for r in records)
    unresolved = sum(len(r.report.unresolved) for r in records)
    pieces = sum(len(new_ids) for r in records for _, _, new_ids in r.report.splits)
    assert (flagged, splits, unresolved, pieces) == (41, 41, 0, 82)
    assert flagged == sum(kind == "COLLISION" for _, kind, _ in events)
    assert all(len(parents) >= 2 for r in records for _, parents, _ in r.report.splits)


def test_track_work_counts(tmp_path, monkeypatch, capsys):
    """`lineage track` of the collision golden's sequence labels each frame
    once and each split once, and predicts backward only the cells and
    pieces that detection could act on. A second labelling pass or an
    unpruned prediction changes these counts."""
    for name, doc in (("sim.json", COLLISIONS_SIM), ("track.json", COLLISIONS_TRACK)):
        (tmp_path / name).write_text(json.dumps(doc))
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", sim]) == 0
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key(args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ndimage, "label", counted(lambda args: "label", ndimage.label))
    order = lambda args: "backward" if args[1].index < args[0].index else "forward"
    monkeypatch.setattr(tracker_module, "predict", counted(order, tracker_module.predict))
    monkeypatch.setattr(kernels, "ncc_best", counted(lambda args: "ncc_best", kernels.ncc_best))
    argv = ["track", "--config", str(tmp_path / "track.json"), "--in", sim, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    frames, splits = 20, 41  # the splits of test_run_linker_step_records
    assert counts["label"] == frames + splits == 61
    assert (counts["backward"], counts["forward"], counts["ncc_best"]) == (47, 230, 277)

