"""Frame-to-frame linking: collision repair, state classification, lineage.

Per frame step: backward predictions flag under-segmented lumps (two or more
previous centroids inside one backward-tracked region), which are split by
seeded random-walker re-segmentation until no lump remains or splitting
stops improving. Forward predictions then match previous cells to current
ones and each previous cell is classified as apoptosis, continuation or
mitosis by its match count.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import tracker as trk
from .imagecore import cells_from_labelmask, mask_from_cells
from .rwalker import ResegFailure, RWConfig, reseg_cell


@dataclass(frozen=True)
class Apoptosis:
    pass


@dataclass(frozen=True)
class Continuation:
    target: int


@dataclass(frozen=True)
class Mitosis:
    children: tuple  # >= 2 cell ids


@dataclass(frozen=True)
class MatchSet:
    source: int
    matches: tuple  # distinct current-frame cell ids, detection order


@dataclass
class Track:
    id: int
    birth: int
    end: int
    parent: int  # 0 = none


@dataclass
class LineageGraph:
    tracks: dict = field(default_factory=dict)  # track id -> Track
    assignments: dict = field(default_factory=dict)  # frame -> {cell id: track id}

    def new_track(self, birth, parent=0):
        tid = max(self.tracks, default=0) + 1
        self.tracks[tid] = Track(tid, birth, birth, parent)
        return tid

    def validate(self):
        for tr in self.tracks.values():
            if tr.birth > tr.end:
                raise ValueError("track %d has empty interval" % tr.id)
            if tr.parent:
                parent = self.tracks.get(tr.parent)
                if parent is None:
                    raise ValueError("track %d has dangling parent %d" % (tr.id, tr.parent))
                if parent.end != tr.birth - 1:
                    raise ValueError(
                        "track %d born at %d but parent %d ends at %d"
                        % (tr.id, tr.birth, tr.parent, parent.end)
                    )
        for t, assign in self.assignments.items():
            for cell_id, tid in assign.items():
                tr = self.tracks.get(tid)
                if tr is None or not tr.birth <= t <= tr.end:
                    raise ValueError(
                        "frame %d cell %d assigned to track %r outside its span" % (t, cell_id, tid)
                    )


def _bbox_contains(bbox, point):
    top, left, bottom, right = bbox
    r, c = point
    return top <= r <= bottom and left <= c <= right


def _bbox_center(bbox):
    top, left, bottom, right = bbox
    return ((top + bottom) / 2.0, (left + right) / 2.0)


def detect_collisions(cells_prev, cells_cur, backward_preds):
    """Current cells whose backward region holds >= 2 previous centroids.

    Returns [(current cell id, [previous cell ids])] in current-cell order.
    """
    flagged = []
    for cell in cells_cur:
        pred = backward_preds.get(cell.id)
        if pred is None or not pred.valid:
            continue
        inside = [p.id for p in cells_prev if _bbox_contains(pred.region, p.centroid)]
        if len(inside) >= 2:
            flagged.append((cell.id, inside))
    return flagged


@dataclass
class CollisionReport:
    iterations: int = 0
    splits: list = field(default_factory=list)  # (lump id, parent ids, new ids)
    unresolved: list = field(default_factory=list)  # (lump id, parent ids, reason)


def resolve_collisions(
    frame_cur,
    cells_cur,
    cells_prev,
    backward_preds,
    predict_backward,
    rw_config=RWConfig(),
):
    """Iteratively split flagged lumps until detection comes up empty.

    `predict_backward` recomputes a backward prediction for a freshly split
    cell. A lump whose re-segmentation fails, or that reappears unchanged
    with the same parent set, is kept whole and reported unresolved. Cell
    ids are renumbered densely (row-major) before returning.
    """
    report = CollisionReport()
    cells = {c.id: c for c in cells_cur}
    preds = dict(backward_preds)
    prev_centroid = {c.id: c.centroid for c in cells_prev}
    next_id = max(cells, default=0) + 1
    dead = set()  # pixel-set signatures of lumps given up on
    seen = set()  # (pixel-set, parent-set) signatures from earlier iterations
    origin = {}  # cell id -> parent set whose split produced it
    max_iters = max(1, len(cells_prev))

    for _ in range(max_iters):
        ordered = sorted(cells.values(), key=lambda c: min(c.pixels))
        flagged = detect_collisions(cells_prev, ordered, preds)
        actionable = []
        for lump_id, parents in flagged:
            sig = cells[lump_id].pixels
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
                segments = reseg_cell(
                    frame_cur,
                    lump,
                    [prev_centroid[p] for p in parents],
                    displacement,
                    rw_config,
                )
            except ResegFailure as exc:
                dead.add(lump.pixels)
                report.unresolved.append((lump_id, parents, str(exc)))
                continue
            del cells[lump_id]
            del preds[lump_id]
            inherited = origin.pop(lump_id, frozenset()) | frozenset(parents)
            new_ids = []
            for seg in segments:
                cell = replace(seg, id=next_id)
                cells[next_id] = cell
                preds[next_id] = predict_backward(cell)
                origin[next_id] = inherited
                new_ids.append(next_id)
                next_id += 1
            report.splits.append((lump_id, parents, new_ids))

    # renumber densely in row-major first-pixel order
    ordered = sorted(cells.values(), key=lambda c: min(c.pixels))
    out = [replace(c, id=i) for i, c in enumerate(ordered, start=1)]
    return out, report


def match_forward(cells_prev, cells_cur, forward_preds):
    """Candidate continuations per previous cell via its forward region.

    A current cell matches when its centroid falls in the predicted region
    bbox (inclusive), or the region's center pixel belongs to the cell's
    pixel set. Invalid predictions yield empty match sets.
    """
    out = []
    for prev in cells_prev:
        pred = forward_preds.get(prev.id)
        matches = []
        if pred is not None and pred.valid:
            fr, fc = _bbox_center(pred.region)
            center_px = (int(round(fr)), int(round(fc)))
            for cur in cells_cur:
                if _bbox_contains(pred.region, cur.centroid) or center_px in cur.pixels:
                    matches.append(cur.id)
        out.append(MatchSet(source=prev.id, matches=tuple(matches)))
    return out


def classify_state(match_set):
    """Total state rule: 0 matches = apoptosis, 1 = continuation, else mitosis."""
    n = len(match_set.matches)
    if n == 0:
        return Apoptosis()
    if n == 1:
        return Continuation(match_set.matches[0])
    return Mitosis(match_set.matches)


def update_lineage(graph, t, states, cells_cur, events=None):
    """Apply per-cell states for the t-1 -> t transition.

    `states` maps every previous-frame cell id to its CellState. Conflicting
    continuations resolve in favor of the lower track id; unmatched current
    cells open parentless tracks. Appends (t, kind, track ids) to `events`.
    """
    prev_assign = graph.assignments.get(t - 1, {})
    missing = set(states) - set(prev_assign)
    if missing:
        raise ValueError("states given for unassigned previous cells %s" % sorted(missing))
    if set(prev_assign) - set(states):
        raise ValueError("states missing for previous cells %s" % sorted(set(prev_assign) - set(states)))
    if events is None:
        events = []
    assigned = {}
    for prev_id in sorted(states, key=lambda i: prev_assign[i]):
        tid = prev_assign[prev_id]
        track = graph.tracks[tid]
        state = states[prev_id]
        merged_away = False
        if isinstance(state, Continuation) and state.target in assigned:
            events.append((t, "MERGE_UNRESOLVED", (tid, assigned[state.target])))
            state = Apoptosis()
            merged_away = True
        if isinstance(state, Mitosis):
            avail = tuple(j for j in state.children if j not in assigned)
            if len(avail) == 1:
                state = Continuation(avail[0])
            elif not avail:
                events.append((t, "MERGE_UNRESOLVED", (tid,)))
                state = Apoptosis()
                merged_away = True
            else:
                state = Mitosis(avail)
        if isinstance(state, Apoptosis):
            if not merged_away:
                events.append((t, "APOPTOSIS", (tid,)))
        elif isinstance(state, Continuation):
            assigned[state.target] = tid
            track.end = t
        else:
            child_tids = []
            for j in state.children:
                child = graph.new_track(t, parent=tid)
                assigned[j] = child
                child_tids.append(child)
            events.append((t, "MITOSIS", (tid, *child_tids)))
    for cell in cells_cur:
        if cell.id not in assigned:
            tid = graph.new_track(t)
            assigned[cell.id] = tid
            events.append((t, "NEW", (tid,)))
    graph.assignments[t] = assigned
    return events


@dataclass(frozen=True)
class LinkerConfig:
    enable_collision_resolution: bool = True
    enable_mitosis_detection: bool = True
    connectivity: int = 4
    rw_config: RWConfig = RWConfig()


def run_linker(sequence, masks, tracker, config=LinkerConfig()):
    """Process a whole sequence: returns (corrected masks, lineage, events).

    `masks` is one LabelMask per frame; the returned masks are relabeled to
    track ids. With collision resolution off, masks pass through unchanged;
    with mitosis detection off, multi-match cells continue into their first
    match and parent links are never created.
    """
    if len(masks) != len(sequence):
        raise ValueError("expected %d masks, got %d" % (len(sequence), len(masks)))
    for t in range(1, len(sequence) + 1):
        if masks[t - 1].labels.shape != sequence[t].pixels.shape:
            raise ValueError("frame %d: mask dimensions do not match the frame" % t)

    graph = LineageGraph()
    events = []
    cells_by_frame = {1: cells_from_labelmask(masks[0], config.connectivity)}
    graph.assignments[1] = {}
    for cell in cells_by_frame[1]:
        graph.assignments[1][cell.id] = graph.new_track(1)

    for t in range(2, len(sequence) + 1):
        frame_prev, frame_cur = sequence[t - 1], sequence[t]
        cells_prev = cells_by_frame[t - 1]
        cells_cur = cells_from_labelmask(masks[t - 1], config.connectivity)

        if config.enable_collision_resolution:
            backward_preds = {
                c.id: tracker.predict(frame_cur, frame_prev, c, trk.BACKWARD) for c in cells_cur
            }
            flagged = detect_collisions(cells_prev, cells_cur, backward_preds)
            if flagged:
                prev_assign = graph.assignments[t - 1]
                for _, parents in flagged:
                    events.append((t, "COLLISION", tuple(prev_assign[p] for p in parents)))
                cells_cur, _ = resolve_collisions(
                    frame_cur,
                    cells_cur,
                    cells_prev,
                    backward_preds,
                    lambda c: tracker.predict(frame_cur, frame_prev, c, trk.BACKWARD),
                    config.rw_config,
                )

        forward_preds = {
            c.id: tracker.predict(frame_prev, frame_cur, c, trk.FORWARD) for c in cells_prev
        }
        match_sets = match_forward(cells_prev, cells_cur, forward_preds)
        states = {}
        for ms in match_sets:
            state = classify_state(ms)
            if isinstance(state, Mitosis) and not config.enable_mitosis_detection:
                state = Continuation(state.children[0])
            states[ms.source] = state
        update_lineage(graph, t, states, cells_cur, events)
        cells_by_frame[t] = cells_cur

    out_masks = []
    for t in range(1, len(sequence) + 1):
        assign = graph.assignments[t]
        relabeled = [replace(c, id=assign[c.id]) for c in cells_by_frame[t]]
        h, w = sequence[t].pixels.shape
        out_masks.append(mask_from_cells(relabeled, h, w))
    graph.validate()
    return out_masks, graph, events
