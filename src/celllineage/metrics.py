"""Segmentation (SEG) and tracking (TRA/AOGM) accuracy scoring.

SEG is the mean Jaccard overlap between each ground-truth cell and its
matched prediction, where a prediction matches iff it covers more than half
of the ground-truth cell (at most one prediction can). TRA is one minus the
normalized weighted cost of the graph edit operations turning the predicted
track forest into the ground-truth one.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

# graph edit operation weights (node split, false negative, false positive,
# edge delete, edge add, edge semantics change)
DEFAULT_WEIGHTS = {"NS": 5.0, "FN": 10.0, "FP": 1.0, "ED": 1.0, "EA": 1.5, "EC": 1.0}


class MetricsError(ValueError):
    pass


def masks_fingerprint(masks):
    """Stable hash of a mask stack, used to pair reports over one ground truth."""
    h = hashlib.sha256()
    for mask in masks:
        h.update(np.ascontiguousarray(mask.labels, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


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


def _frame_matching(gt_labels, pred_labels):
    """Per-frame GT -> pred matching by the majority-overlap rule.

    Returns (gt_sizes, pred_sizes, overlaps, match) where overlaps maps
    (gt, pred) label pairs to intersection size and match maps each gt label
    to the unique pred label covering > half of it (if any).
    """
    gt = np.asarray(gt_labels).ravel()
    pred = np.asarray(pred_labels).ravel()
    gt_ids, gt_counts = np.unique(gt[gt > 0], return_counts=True)
    pred_ids, pred_counts = np.unique(pred[pred > 0], return_counts=True)
    gt_sizes = dict(zip(gt_ids.tolist(), gt_counts.tolist()))
    pred_sizes = dict(zip(pred_ids.tolist(), pred_counts.tolist()))
    both = (gt > 0) & (pred > 0)
    overlaps = {}
    if both.any():
        stride = int(pred.max()) + 1
        pairs = gt[both].astype(np.int64) * stride + pred[both]
        ids, counts = np.unique(pairs, return_counts=True)
        for pid, cnt in zip(ids.tolist(), counts.tolist()):
            overlaps[(pid // stride, pid % stride)] = cnt
    match = {}
    for (g, p), cnt in overlaps.items():
        if 2 * cnt > gt_sizes[g]:
            match[g] = p
    return gt_sizes, pred_sizes, overlaps, match


def seg_score(gt_masks, pred_masks):
    """Mean Jaccard of matched GT cells over all frames; unmatched count 0."""
    if len(gt_masks) != len(pred_masks):
        raise MetricsError("frame count mismatch: %d vs %d" % (len(gt_masks), len(pred_masks)))
    rows = []
    total = 0.0
    n = 0
    for t, (gt, pred) in enumerate(zip(gt_masks, pred_masks), start=1):
        if gt.labels.shape != pred.labels.shape:
            raise MetricsError("frame %d: mask dimensions differ" % t)
        gt_sizes, pred_sizes, overlaps, match = _frame_matching(gt.labels, pred.labels)
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
    return SegReport(score=total / n, rows=rows, gt_fingerprint=masks_fingerprint(gt_masks))


def _lineage_nodes_edges(lineage, masks):
    """Nodes (t, label) present in the masks; edges with 'track'/'parent' kind."""
    nodes = set()
    for t, mask in enumerate(masks, start=1):
        for lab in np.unique(mask.labels):
            if lab > 0:
                nodes.add((t, int(lab)))
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
    return nodes, edges


def tra_score(gt_lineage, gt_masks, pred_lineage, pred_masks, weights=None):
    """AOGM-based tracking accuracy of a predicted track forest."""
    if len(gt_masks) != len(pred_masks):
        raise MetricsError("frame count mismatch: %d vs %d" % (len(gt_masks), len(pred_masks)))
    gt_lineage.validate()
    pred_lineage.validate()
    w = dict(DEFAULT_WEIGHTS)
    if weights:
        w.update(weights)

    gt_nodes, gt_edges = _lineage_nodes_edges(gt_lineage, gt_masks)
    pred_nodes, pred_edges = _lineage_nodes_edges(pred_lineage, pred_masks)

    node_match = {}  # gt node -> pred node
    for t, (gt, pred) in enumerate(zip(gt_masks, pred_masks), start=1):
        if gt.labels.shape != pred.labels.shape:
            raise MetricsError("frame %d: mask dimensions differ" % t)
        _, _, _, match = _frame_matching(gt.labels, pred.labels)
        for g, p in match.items():
            node_match[(t, g)] = (t, p)

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
    return TraReport(
        score=score,
        aogm=aogm,
        aogm0=aogm0,
        counts=counts,
        gt_fingerprint=masks_fingerprint(gt_masks),
    )


def compare_runs(report_a, report_b):
    """Per-metric deltas (b - a) for two runs over the same ground truth."""
    if report_a.gt_fingerprint != report_b.gt_fingerprint:
        raise MetricsError(
            "reports cover different ground truths: %r vs %r"
            % (report_a.gt_fingerprint, report_b.gt_fingerprint)
        )
    return {"score": report_b.score - report_a.score}
