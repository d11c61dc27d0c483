"""Segmentation (SEG) and tracking (TRA/AOGM) accuracy scoring.

SEG is the mean Jaccard overlap between each ground-truth cell and its
matched prediction, where a prediction matches iff it covers more than half
of the ground-truth cell (at most one prediction can). TRA is one minus the
normalized weighted cost of the graph edit operations turning the predicted
track forest into the ground-truth one.
"""

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

# graph edit operation weights (node split, false negative, false positive,
# edge delete, edge add, edge semantics change)
DEFAULT_WEIGHTS = {"NS": 5.0, "FN": 10.0, "FP": 1.0, "ED": 1.0, "EA": 1.5, "EC": 1.0}


class MetricsError(ValueError):
    pass


@dataclass
class SegReport:
    score: float
    rows: list  # (frame, gt label, matched pred label or None, jaccard)
    gt_fingerprint: str = ""


@dataclass
class TraReport:
    score: float
    aogm: float
    aogm0: float
    counts: dict = field(default_factory=dict)  # op name -> count
    gt_fingerprint: str = ""


@dataclass
class Census:
    frames: list  # per frame t = 1..T: (gt_sizes, pred_sizes, overlaps, match)
    gt_fingerprint: str


def census(gt_masks, pred_masks):
    """Per-frame GT -> pred matching by the majority-overlap rule, and the
    ground truth's fingerprint, from one pass over the two mask stacks.

    `gt_masks` and `pred_masks` are any iterables of LabelMask, walked in
    step, so a caller that reads masks as they are asked for holds only a
    few at a time; a stack that ends before the other is an error.

    For each frame t = 1..T, gt_sizes and pred_sizes map the labels present
    to their pixel counts, overlaps maps (gt, pred) label pairs to
    intersection size and match maps each gt label to the unique pred label
    covering > half of it (if any). All four come from one count of the
    (gt, pred) label pairs of the frame's foreground pixels: a label's size
    is the sum of its pairs' counts.

    gt_fingerprint, a stable hash used to pair reports over one ground
    truth, is the first 16 hex digits of the SHA-256 of each ground-truth
    mask's labels as little-endian unsigned 16-bit integers, the width of a
    mask file, each mask followed by b"|". Equal label values hash equal
    whatever the array's dtype; a label above 65535 is an error, since
    wrapping it would let two different stacks share a fingerprint.
    """
    frames = []
    h = hashlib.sha256()
    for t, (gt, pred) in enumerate(itertools.zip_longest(gt_masks, pred_masks), start=1):
        if gt is None or pred is None:
            short = "ground-truth" if gt is None else "predicted"
            raise MetricsError("frame count mismatch: the %s stack ends after frame %d" % (short, t - 1))
        if gt.labels.shape != pred.labels.shape:
            raise MetricsError("frame %d: mask dimensions differ" % t)
        if not np.can_cast(gt.labels.dtype, np.uint16) and gt.labels.max() > 65535:
            raise MetricsError("frame %d: label %d does not fit in 16 bits" % (t, gt.labels.max()))
        h.update(np.ascontiguousarray(gt.labels, dtype="<u2"))
        h.update(b"|")
        fg = (gt.labels | pred.labels) != 0  # labels are non-negative
        stride = int(pred.labels.max()) + 1
        pairs = gt.labels[fg].astype(np.int64) * stride + pred.labels[fg]
        pairs, counts = np.unique(pairs, return_counts=True)
        gt_sizes, pred_sizes, overlaps = {}, {}, {}
        for pair, cnt in zip(pairs.tolist(), counts.tolist()):
            g, p = divmod(pair, stride)
            if g:
                gt_sizes[g] = gt_sizes.get(g, 0) + cnt
            if p:
                pred_sizes[p] = pred_sizes.get(p, 0) + cnt
            if g and p:
                overlaps[(g, p)] = cnt
        match = {g: p for (g, p), cnt in overlaps.items() if 2 * cnt > gt_sizes[g]}
        frames.append((gt_sizes, pred_sizes, overlaps, match))
    return Census(frames=frames, gt_fingerprint=h.hexdigest()[:16])


def seg_score(census):
    """Mean Jaccard of matched GT cells over all frames; unmatched count 0."""
    rows = []
    total = 0.0
    n = 0
    for t, (gt_sizes, pred_sizes, overlaps, match) in enumerate(census.frames, start=1):
        for g in sorted(gt_sizes):
            p = match.get(g)
            if p is None:
                rows.append((t, g, None, 0.0))
            else:
                inter = overlaps[(g, p)]
                jac = inter / float(gt_sizes[g] + pred_sizes[p] - inter)
                rows.append((t, g, p, jac))
                total += jac
            n += 1
    if n == 0:
        raise MetricsError("ground truth contains no cells")
    return SegReport(score=total / n, rows=rows, gt_fingerprint=census.gt_fingerprint)


def _lineage_edges(lineage, nodes):
    """Edges between `nodes` (t, label), each of kind 'track' or 'parent'."""
    edges = {}
    for tr in lineage.tracks.values():
        for t in range(tr.birth, tr.end):
            if (t, tr.id) in nodes and (t + 1, tr.id) in nodes:
                edges[((t, tr.id), (t + 1, tr.id))] = "track"
        if tr.parent:
            parent = lineage.tracks[tr.parent]
            a, b = (parent.end, tr.parent), (tr.birth, tr.id)
            if a in nodes and b in nodes:
                edges[(a, b)] = "parent"
    return edges


def tra_score(gt_lineage, pred_lineage, census):
    """AOGM-based tracking accuracy of a predicted track forest."""
    gt_lineage.validate()
    pred_lineage.validate()
    w = DEFAULT_WEIGHTS

    gt_nodes, pred_nodes = set(), set()
    node_match = {}  # gt node -> pred node
    for t, (gt_sizes, pred_sizes, _, match) in enumerate(census.frames, start=1):
        gt_nodes.update((t, g) for g in gt_sizes)
        pred_nodes.update((t, p) for p in pred_sizes)
        for g, p in match.items():
            node_match[(t, g)] = (t, p)
    gt_edges = _lineage_edges(gt_lineage, gt_nodes)
    pred_edges = _lineage_edges(pred_lineage, pred_nodes)

    matched_per_pred = {}
    for g, p in node_match.items():
        matched_per_pred.setdefault(p, []).append(g)

    counts = {"NS": 0, "FN": 0, "FP": 0, "ED": 0, "EA": 0, "EC": 0}
    counts["FN"] = sum(1 for g in gt_nodes if g not in node_match)
    counts["FP"] = sum(1 for p in pred_nodes if p not in matched_per_pred)
    counts["NS"] = sum(len(gs) - 1 for gs in matched_per_pred.values())

    unique_pred_to_gt = {
        p: gs[0] for p, gs in matched_per_pred.items() if len(gs) == 1
    }
    realized = set()
    for (a, b), kind in pred_edges.items():
        ga = unique_pred_to_gt.get(a)
        gb = unique_pred_to_gt.get(b)
        if ga is not None and gb is not None and (ga, gb) in gt_edges:
            realized.add((ga, gb))
            if gt_edges[(ga, gb)] != kind:
                counts["EC"] += 1
        else:
            counts["ED"] += 1
    counts["EA"] = sum(1 for e in gt_edges if e not in realized)

    if not gt_nodes:
        raise MetricsError("ground truth contains no cells")
    aogm = sum(w[k] * counts[k] for k in counts)
    aogm0 = w["FN"] * len(gt_nodes) + w["EA"] * len(gt_edges)
    score = 1.0 - min(aogm, aogm0) / aogm0
    return TraReport(score=score, aogm=aogm, aogm0=aogm0, counts=counts, gt_fingerprint=census.gt_fingerprint)


def compare_runs(report_a, report_b):
    """Per-metric deltas (b - a) for two runs over the same ground truth."""
    if report_a.gt_fingerprint != report_b.gt_fingerprint:
        raise MetricsError(
            "reports cover different ground truths: %r vs %r"
            % (report_a.gt_fingerprint, report_b.gt_fingerprint)
        )
    return {"score": report_b.score - report_a.score}
