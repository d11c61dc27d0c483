"""Frame-to-frame linking: collision repair, state classification, lineage.

Per frame step t-1 -> t: backward predictions, each current cell located in
frame t-1, flag under-segmented lumps (two or more previous centroids inside
one backward-tracked region). A cell is predicted backward only when a
box of the largest region size inside the tracker's reach for it, the box
every prediction lies in, can hold two previous centroids. Flagged lumps
are split by seeded random-walker re-segmentation. The pieces of each split
are checked again, round by round, until no piece is flagged with a
previous centroid that its earlier splits did not use; a piece is predicted
backward only when such a box can hold two centroids, one of them outside
its parent set. Forward predictions, each previous cell located in frame
t, then match previous cells to current ones and each previous cell is
classified as apoptosis, continuation or mitosis by its match count.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .imagecore import in_scan_order, mask_from_cells
from .rwalker import ResegFailure, reseg_cell


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


def _in_box(box, rows, cols):
    """Inclusive box test. One box against n points gives n answers; a
    (4, k, 1) stack of boxes against n points gives a k x n table."""
    top, left, bottom, right = box
    return (top <= rows) & (rows <= bottom) & (left <= cols) & (cols <= right)


def _centroids(cells):
    """The cells' centroid rows and columns, as two arrays."""
    return np.array([c.centroid for c in cells], dtype=float).reshape(-1, 2).T


def _stack(boxes):
    """Inclusive boxes as the (4, k, 1) stack that `_in_box` tables."""
    return np.array(boxes).reshape(-1, 4).T[:, :, None]


def _bbox_center(bbox):
    top, left, bottom, right = bbox
    return ((top + bottom) / 2.0, (left + right) / 2.0)


def detect_collisions(cells_prev, cells_cur, backward_preds):
    """Current cells whose backward region holds >= 2 previous centroids.

    Returns [(current cell id, [previous cell ids])] in current-cell order.
    """
    preds = [backward_preds.get(c.id) for c in cells_cur]
    lumps = [(c.id, p.region) for c, p in zip(cells_cur, preds) if p is not None and p.valid]
    inside = {}  # lump index -> previous ids whose centroid its region holds
    table = _in_box(_stack([region for _, region in lumps]), *_centroids(cells_prev))
    for k, j in np.argwhere(table).tolist():
        inside.setdefault(k, []).append(cells_prev[j].id)
    return [(lumps[k][0], ids) for k, ids in inside.items() if len(ids) >= 2]


@dataclass
class CollisionReport:
    """`splits` and `unresolved` name cells by the loop's working ids, not
    the returned ones."""

    iterations: int = 0
    splits: list = field(default_factory=list)  # (lump id, parent ids, new ids)
    unresolved: list = field(default_factory=list)  # (lump id, parent ids, reason)


def resolve_collisions(frame_cur, cells_cur, cells_prev, backward_preds, predict_backward):
    """Split flagged lumps in rounds until a round has nothing left to split.

    Round 1 checks every current cell. Each later round checks only the
    cells that the previous round's splits made, in row-major first-pixel
    order: an unsplit cell keeps its backward prediction, so detection would
    give it the same parents again. A piece whose parents all lie in the
    parent sets it was split against is kept, so every re-split adds a
    parent and the rounds end within len(cells_prev). A lump whose
    re-segmentation fails is kept whole and reported unresolved.
    `predict_backward(cell, parents)` recomputes a backward prediction for
    a freshly split cell, given the previous ids its splits used, or returns
    None for a cell that cannot be flagged with a previous cell outside
    them. Cell ids are renumbered densely (row-major) before returning.
    """
    report = CollisionReport()
    cells = {c.id: c for c in cells_cur}
    preds = dict(backward_preds)
    prev_centroid = {c.id: c.centroid for c in cells_prev}
    next_id = max(cells, default=0) + 1
    origin = {}  # cell id -> parent set whose split produced it
    fresh = cells_cur

    while True:
        fresh = sorted(fresh, key=lambda c: c.first)
        actionable = [
            (lump_id, parents)
            for lump_id, parents in detect_collisions(cells_prev, fresh, preds)
            if not frozenset(parents) <= origin.get(lump_id, frozenset())
        ]
        if not actionable:
            break
        report.iterations += 1
        fresh = []
        for lump_id, parents in actionable:
            lump = cells[lump_id]
            pred = preds[lump_id]
            lr, lc = _bbox_center(lump.bbox)
            br, bc = _bbox_center(pred.region)
            displacement = (lr - br, lc - bc)
            try:
                segments = reseg_cell(frame_cur, lump, [prev_centroid[p] for p in parents], displacement)
            except ResegFailure as exc:
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
                fresh.append(cell)
                next_id += 1
            report.splits.append((lump_id, parents, new_ids))

    return in_scan_order(cells.values()), report


def match_forward(cells_prev, cells_cur, forward_preds):
    """Candidate continuations per previous cell via its forward region.

    A current cell matches when its centroid falls in the predicted region
    bbox (inclusive), or the region's center pixel lies in the cell. Invalid
    predictions yield empty match sets.
    """
    preds = [forward_preds.get(c.id) for c in cells_prev]
    sources = [k for k, p in enumerate(preds) if p is not None and p.valid]
    regions = _stack([preds[k].region for k in sources])
    # centroid in region; else the cell's box holds the region's center pixel
    match = _in_box(regions, *_centroids(cells_cur))
    centers = np.round((regions[:2, :, 0] + regions[2:, :, 0]) / 2.0).astype(int)
    maybe = _in_box(_stack([c.bbox for c in cells_cur]), *centers).T & ~match
    for k, i in np.argwhere(maybe).tolist():
        match[k, i] = cells_cur[i].contains(centers[:, k])
    matches = [[] for _ in cells_prev]
    for k, i in np.argwhere(match).tolist():
        matches[sources[k]].append(cells_cur[i].id)
    return [MatchSet(source=p.id, matches=tuple(m)) for p, m in zip(cells_prev, matches)]


def classify_state(match_set):
    """Total state rule: 0 matches = apoptosis, 1 = continuation, else mitosis."""
    n = len(match_set.matches)
    if n == 0:
        return Apoptosis()
    if n == 1:
        return Continuation(match_set.matches[0])
    return Mitosis(match_set.matches)


def update_lineage(graph, t, states, cells_cur):
    """Apply per-cell states for the t-1 -> t transition; returns the step's
    events, a list of (t, kind, track ids).

    `states` maps every previous-frame cell id to its Apoptosis, Continuation
    or Mitosis. Conflicting continuations resolve in favor of the lower track
    id; unmatched current cells open parentless tracks.
    """
    prev_assign = graph.assignments.get(t - 1, {})
    missing = set(states) - set(prev_assign)
    if missing:
        raise ValueError("states given for unassigned previous cells %s" % sorted(missing))
    if set(prev_assign) - set(states):
        raise ValueError("states missing for previous cells %s" % sorted(set(prev_assign) - set(states)))
    events = []
    assigned = {}
    for prev_id in sorted(states, key=lambda i: prev_assign[i]):
        tid = prev_assign[prev_id]
        state = states[prev_id]
        if isinstance(state, Continuation) and state.target in assigned:
            events.append((t, "MERGE_UNRESOLVED", (tid, assigned[state.target])))
            continue
        if isinstance(state, Mitosis):
            avail = tuple(j for j in state.children if j not in assigned)
            if not avail:
                events.append((t, "MERGE_UNRESOLVED", (tid,)))
                continue
            state = Continuation(avail[0]) if len(avail) == 1 else Mitosis(avail)
        if isinstance(state, Apoptosis):
            events.append((t, "APOPTOSIS", (tid,)))
        elif isinstance(state, Continuation):
            assigned[state.target] = tid
            graph.tracks[tid].end = t
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
class StepRecord:
    """What one t-1 -> t step decided."""

    cells: list  # the current cells, after collision repair
    flagged: list  # the first detection's [(current cell id, [previous ids])]
    report: CollisionReport
    states: dict  # previous cell id -> Apoptosis, Continuation or Mitosis


def _fits(ceil, floor, lo, hi, size):
    """k x k table, one axis: some span [s, s + size - 1] of integer s,
    inside the inclusive [lo, hi], holds coordinates a and b. A span holds
    the real x when ceil(x) - size + 1 <= s <= floor(x)."""
    first = np.maximum(np.maximum.outer(ceil, ceil) - size + 1, lo)
    last = np.minimum(np.minimum.outer(floor, floor), hi - size + 1)
    return first <= last


def _backward_predictor(frame_prev, frame_cur, cells_prev, tracker):
    """`predict_backward(cell, parents=frozenset())` for one frame step.

    Every region lies in the box of the tracker's reach and is no larger
    than its size, and detection only counts the previous centroids in the
    region. So a cell is flagged only if some box of that size inside the
    reach holds two previous centroids, and a piece is acted on only if such
    a box holds two of which one lies outside its parent set. Any other
    cell or piece gets None.
    """
    centroids = _centroids(cells_prev)
    ceil, floor = np.ceil(centroids).astype(int), np.floor(centroids).astype(int)
    ids = np.array([c.id for c in cells_prev], dtype=int)

    def predict_backward(cell, parents=frozenset()):
        (top, left, bottom, right), (height, width) = tracker.reach(cell, frame_cur.pixels.shape)
        k = np.flatnonzero(_in_box((top, left, bottom, right), *centroids))
        if len(k) < 2:
            return None
        pairs = _fits(ceil[0, k], floor[0, k], top, bottom, height)
        pairs &= _fits(ceil[1, k], floor[1, k], left, right, width)
        np.fill_diagonal(pairs, False)
        outside = np.array([i not in parents for i in ids[k].tolist()])
        if not pairs[outside].any():
            return None
        return tracker.predict(frame_cur, frame_prev, cell)

    return predict_backward


def _link_step(frame_prev, frame_cur, cells_prev, cells_cur, tracker, baseline):
    """Repair the current cells' collisions, unless `baseline`, then classify
    each previous cell. Private, so a tracer that wraps public functions sees `run_linker` call
    `detect_collisions`."""
    flagged, report = [], CollisionReport()
    if not baseline:
        predict_backward = _backward_predictor(frame_prev, frame_cur, cells_prev, tracker)
        backward_preds = {c.id: predict_backward(c) for c in cells_cur}
        flagged = detect_collisions(cells_prev, cells_cur, backward_preds)
        if flagged:
            cells_cur, report = resolve_collisions(frame_cur, cells_cur, cells_prev, backward_preds, predict_backward)

    forward_preds = {c.id: tracker.predict(frame_prev, frame_cur, c) for c in cells_prev}
    states = {}
    for ms in match_forward(cells_prev, cells_cur, forward_preds):
        state = classify_state(ms)
        if isinstance(state, Mitosis) and baseline:
            state = Continuation(state.children[0])
        states[ms.source] = state
    return StepRecord(cells_cur, flagged, report, states)


def run_linker(steps, tracker, baseline=False):
    """Link a stream of frames: returns (corrected masks, lineage, events).

    `steps` yields (frame, cells) for t = 1..T, one pair at a time: frame t
    and its disjoint cells, with ids 1..K in row-major first-pixel order, as
    `connected_components` and `cells_from_labelmask` give them. Only the
    previous frame is kept, and each frame's repaired cells; an empty
    stream is a ValueError. The lineage is complete and validated on
    return. The masks, labelled with track ids, are a generator: frame t's
    mask is rendered when iteration reaches it, once. `tracker` provides
    `predict(frame_src, frame_dst, cell)`, the cell of frame_src located in
    frame_dst (t -> t-1 backward, t-1 -> t forward), and `reach(cell,
    shape)`, `(box, (height, width))`: every region it predicts for the
    cell lies in the inclusive box and is at most height x width, which
    fits in the box. The `baseline` run repairs no collision, so cells pass
    through unchanged, and detects no mitosis: a multi-match cell continues
    into its first match and no parent link is made.
    """
    steps = iter(steps)
    try:
        frame_prev, cells = next(steps)
    except StopIteration:
        raise ValueError("no frames to link") from None
    graph = LineageGraph()
    events = []
    graph.assignments[1] = {cell.id: graph.new_track(1) for cell in cells}
    cells_by_frame = [cells]

    for t, (frame, cells) in enumerate(steps, start=2):
        record = _link_step(frame_prev, frame, cells_by_frame[-1], cells, tracker, baseline)
        prev_assign = graph.assignments[t - 1]
        for _, parents in record.flagged:
            events.append((t, "COLLISION", tuple(prev_assign[p] for p in parents)))
        events += update_lineage(graph, t, record.states, record.cells)
        cells_by_frame.append(record.cells)
        frame_prev = frame
    graph.validate()

    h, w = frame_prev.pixels.shape
    masks = (
        mask_from_cells([replace(c, id=graph.assignments[t][c.id]) for c in cells], h, w)
        for t, cells in enumerate(cells_by_frame, start=1)
    )
    return masks, graph, events
