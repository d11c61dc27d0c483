"""Output checks computed by the benchmark itself, not by the program.

Every check returns a list of problems; an empty list means the tree
passed.  The readers and scorers here are independent re-implementations
of the file formats and definitions in the project README.
"""

import json
import os

import numpy as np
from scipy import ndimage

FRAME_FMT = "t%03d.pgm"
MASK_FMT = "mask%03d.pgm"
TRACK_FILE = "res_track.txt"
EVENT_FILE = "events.txt"
REPORT_FILE = "report.json"

# AOGM operation weights of the Cell Tracking Challenge TRA measure
# (Matula et al., PLoS ONE 2015).
AOGM_WEIGHTS = {"NS": 5.0, "FN": 10.0, "FP": 1.0, "ED": 1.0, "EA": 1.5, "EC": 1.0}
SCORE_TOL = 1e-9


class CheckError(Exception):
    """A tree that cannot even be read."""


def read_pgm(path):
    """Binary PGM (P5), 8- or 16-bit big-endian, as a numpy array."""
    with open(path, "rb") as f:
        data = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        if end == pos:
            raise CheckError("%s: truncated header" % path)
        fields.append(data[pos:end])
        pos = end
    if fields[0] != b"P5":
        raise CheckError("%s: not a binary PGM" % path)
    width, height, maxval = (int(v) for v in fields[1:])
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    raster = data[pos + 1 :]
    expected = width * height * np.dtype(dtype).itemsize
    if len(raster) != expected:
        raise CheckError("%s: raster has %d bytes, expected %d" % (path, len(raster), expected))
    return np.frombuffer(raster, dtype=dtype).reshape(height, width).astype(np.int64)


def read_stack(directory, fmt):
    """Images fmt % 1, fmt % 2, ... until the first missing one."""
    out = []
    while os.path.exists(os.path.join(directory, fmt % (len(out) + 1))):
        out.append(read_pgm(os.path.join(directory, fmt % (len(out) + 1))))
    return out


def read_tracks(path):
    """res_track.txt as {label: (birth, end, parent)}."""
    tracks = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise CheckError("%s: bad line %r" % (path, line))
            label, birth, end, parent = (int(p) for p in parts)
            if label in tracks:
                raise CheckError("%s: duplicate track %d" % (path, label))
            tracks[label] = (birth, end, parent)
    return tracks


def read_events(path):
    """events.txt as [(t, kind, (ids...))]."""
    events = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if parts:
                events.append((int(parts[0]), parts[1], tuple(int(p) for p in parts[2:])))
    return events


def check_forest(masks, tracks):
    """Each label in frame t has a track with B <= t <= E; each child's
    parent exists and ends at B - 1."""
    problems = []
    for label, (birth, end, parent) in sorted(tracks.items()):
        if birth > end:
            problems.append("track %d: B %d > E %d" % (label, birth, end))
        if parent:
            if parent not in tracks:
                problems.append("track %d: parent %d missing" % (label, parent))
            elif tracks[parent][1] != birth - 1:
                problems.append(
                    "track %d born at %d, parent %d ends at %d" % (label, birth, parent, tracks[parent][1])
                )
    for t, mask in enumerate(masks, start=1):
        for label in np.unique(mask[mask > 0]).tolist():
            span = tracks.get(label)
            if span is None or not span[0] <= t <= span[1]:
                problems.append("frame %d: label %d outside its track %r" % (t, label, span))
    return problems


def otsu_level(pixels):
    """8-bit Otsu threshold in exact integer arithmetic; None if constant.

    Maximises the between-class variance, proportional to
    (S n0 - s0 N)^2 / (n0 n1), over levels k with classes <= k and > k;
    ties go to the lowest level.
    """
    hist = np.bincount(np.asarray(pixels).ravel(), minlength=256).tolist()
    total_n = sum(hist)
    total_s = sum(i * h for i, h in enumerate(hist))
    best, best_num, best_den = None, 0, 1
    n0 = s0 = 0
    for k in range(256):
        n0 += hist[k]
        s0 += k * hist[k]
        n1 = total_n - n0
        if n0 == 0 or n1 == 0:
            continue
        num = (total_s * n0 - s0 * total_n) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best, best_num, best_den = k, num, den
    return best


def expected_foreground(frame, min_size=5, connectivity=4):
    """Otsu foreground minus connected components smaller than min_size."""
    level = otsu_level(frame)
    if level is None:
        return np.zeros(frame.shape, dtype=bool)
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    labels, _ = ndimage.label(frame > level, structure=structure)
    sizes = np.bincount(labels.ravel())
    keep = sizes >= min_size
    keep[0] = False
    return keep[labels]


def check_foreground(frames, masks, min_size=5, connectivity=4):
    """Tracking only re-partitions pixels: each output foreground equals the
    input's thresholded foreground."""
    if len(frames) != len(masks):
        return ["%d frames but %d masks" % (len(frames), len(masks))]
    problems = []
    for t, (frame, mask) in enumerate(zip(frames, masks), start=1):
        diff = int(np.count_nonzero(expected_foreground(frame, min_size, connectivity) != (mask > 0)))
        if diff:
            problems.append("frame %d: %d pixels differ from the thresholded foreground" % (t, diff))
    return problems


def seg_score(gt_masks, pred_masks):
    """Mean Jaccard over GT cells; a GT cell matches the prediction covering
    more than half of it, unmatched cells score 0."""
    total, n = 0.0, 0
    for gt, pred in zip(gt_masks, pred_masks):
        for g in np.unique(gt[gt > 0]).tolist():
            inside = gt == g
            labels, counts = np.unique(pred[inside], return_counts=True)
            n += 1
            for p, overlap in zip(labels.tolist(), counts.tolist()):
                if p and 2 * overlap > int(inside.sum()):
                    union = int(np.count_nonzero(inside | (pred == p)))
                    total += overlap / union
    return total / n


def gt_graph_size(masks, tracks):
    """(nodes, edges) of a lineage forest, counting only cells in the masks."""
    nodes = set()
    for t, mask in enumerate(masks, start=1):
        nodes.update((t, label) for label in np.unique(mask[mask > 0]).tolist())
    edges = 0
    for label, (birth, end, parent) in tracks.items():
        edges += sum((t, label) in nodes and (t + 1, label) in nodes for t in range(birth, end))
        if parent and (tracks[parent][1], parent) in nodes and (birth, label) in nodes:
            edges += 1
    return len(nodes), edges


def check_report(report, gt_masks, gt_tracks, pred_masks):
    """SEG recomputed from the masks, and TRA from the reported AOGM
    operation counts, agree with report.json."""
    problems = []
    seg = seg_score(gt_masks, pred_masks)
    if abs(seg - report["seg"]) > SCORE_TOL:
        problems.append("SEG %.12f in report, %.12f recomputed" % (report["seg"], seg))
    tra = report["tra"]
    if not 0.0 <= tra <= 1.0:
        problems.append("TRA %r outside [0, 1]" % tra)
    aogm = sum(AOGM_WEIGHTS[op] * report["counts"][op] for op in AOGM_WEIGHTS)
    if abs(aogm - report["aogm"]) > SCORE_TOL:
        problems.append("AOGM %r in report, %r from its operation counts" % (report["aogm"], aogm))
    nodes, edges = gt_graph_size(gt_masks, gt_tracks)
    aogm0 = AOGM_WEIGHTS["FN"] * nodes + AOGM_WEIGHTS["EA"] * edges
    if abs(aogm0 - report["aogm0"]) > SCORE_TOL:
        problems.append("AOGM0 %r in report, %r from the ground truth" % (report["aogm0"], aogm0))
    expected = 1.0 - min(aogm, aogm0) / aogm0
    if abs(tra - expected) > SCORE_TOL:
        problems.append("TRA %.12f in report, %.12f from AOGM" % (tra, expected))
    return problems


def check_events(events, tracks, scripted):
    """Every scripted (t, kind, first id) is logged, and every logged
    mitosis matches the lineage: children born at t with that parent."""
    problems = []
    logged = {(t, kind, ids[0]) for t, kind, ids in events if ids}
    problems += ["scripted %s of %d at t=%d not in events" % (k, a, t) for t, k, a in scripted if (t, k, a) not in logged]
    for t, kind, ids in events:
        if kind == "MITOSIS":
            for child in ids[1:]:
                if tracks.get(child, (None, None, None))[::2] != (t, ids[0]):
                    problems.append("mitosis at t=%d: track %d is not a child of %d born then" % (t, child, ids[0]))
    return problems


def check_gt_tree(directory, scripted):
    """Checks on one simulated input tree; returns (problems, GT cell count)."""
    frames = read_stack(directory, FRAME_FMT)
    masks = read_stack(directory, MASK_FMT)
    tracks = read_tracks(os.path.join(directory, TRACK_FILE))
    problems = [] if len(frames) == len(masks) else ["%d frames but %d masks" % (len(frames), len(masks))]
    problems += check_forest(masks, tracks)
    problems += check_events(read_events(os.path.join(directory, EVENT_FILE)), tracks, scripted)
    return problems, gt_graph_size(masks, tracks)[0]


def check_track_tree(gt_dir, pred_dir, min_size=5, connectivity=4):
    """Checks on one `lineage track` output tree."""
    frames = read_stack(gt_dir, FRAME_FMT)
    masks = read_stack(pred_dir, MASK_FMT)
    problems = check_forest(masks, read_tracks(os.path.join(pred_dir, TRACK_FILE)))
    return problems + check_foreground(frames, masks, min_size, connectivity)


def check_evaluation(gt_dir, pred_dir):
    """Checks on one `lineage evaluate` report; returns (problems, seg, tra)."""
    with open(os.path.join(pred_dir, REPORT_FILE)) as f:
        report = json.load(f)
    gt_masks = read_stack(gt_dir, MASK_FMT)
    gt_tracks = read_tracks(os.path.join(gt_dir, TRACK_FILE))
    pred_masks = read_stack(pred_dir, MASK_FMT)
    return check_report(report, gt_masks, gt_tracks, pred_masks), report["seg"], report["tra"]
