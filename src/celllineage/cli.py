"""`lineage` command line: simulate, track, evaluate, overlay."""

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import jsonconfig, metrics, pgm, simulator, trackfile
from .imagecore import (
    Frame,
    LabelMask,
    Sequence,
    connected_components,
    mask_from_cells,
    threshold_segment,
)
from .linker import LinkerConfig, run_linker
from .rwalker import RWConfig
from .tracker import ExternalTracker, NCCTracker, TrackerConfig

log = logging.getLogger("lineage")

FRAME_FMT = "t%03d.pgm"
MASK_FMT = "mask%03d.pgm"
TRACK_FILE = "res_track.txt"
EVENT_FILE = "events.txt"


class CliError(Exception):
    pass


@dataclass
class PipelineConfig:
    input_dir: str = "."
    output_dir: str = "out"
    segmentation: str = "threshold"  # "threshold" or "masks"
    threshold_method: str = "otsu"
    threshold_level: float = 0.5
    min_cell_size: int = 5  # drop noise speckles below this pixel count
    connectivity: int = 4
    enable_collision_resolution: bool = True
    enable_mitosis_detection: bool = True
    tracker: TrackerConfig = TrackerConfig()
    external_forward: str = ""  # prediction files replace the built-in tracker
    external_backward: str = ""
    rwalker: RWConfig = RWConfig()

    @classmethod
    def from_json(cls, path):
        return jsonconfig.load(cls, path)


def _load_frames(directory):
    frames = []
    t = 1
    while True:
        path = os.path.join(directory, FRAME_FMT % t)
        if not os.path.exists(path):
            break
        frames.append(Frame(index=t, pixels=pgm.read_pgm8(path)))
        t += 1
    if not frames:
        raise CliError("no frames (%s) found in %s" % (FRAME_FMT % 1, directory))
    return Sequence(frames=tuple(frames))


def _load_masks(directory, count=None):
    masks = []
    t = 1
    while True:
        path = os.path.join(directory, MASK_FMT % t)
        if not os.path.exists(path):
            break
        masks.append(LabelMask(labels=pgm.read_pgm16(path).astype(np.int32)))
        t += 1
    if not masks:
        raise CliError("no masks (%s) found in %s" % (MASK_FMT % 1, directory))
    if count is not None and len(masks) != count:
        raise CliError(
            "%s: found %d masks, expected %d (%s missing?)"
            % (directory, len(masks), count, MASK_FMT % (len(masks) + 1))
        )
    return masks


def _write_events(path, events):
    with open(path, "w", newline="\n") as f:
        for t, kind, ids in events:
            f.write("%d %s %s\n" % (t, kind, " ".join(str(i) for i in ids)))


def cmd_simulate(args):
    if args.config:
        cfg = simulator.SimConfig.from_json(args.config)
    else:
        cfg = simulator.script_collision_scenario()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    sequence, gt = simulator.simulate(cfg)
    os.makedirs(args.out, exist_ok=True)
    for t in range(1, len(sequence) + 1):
        pgm.write_pgm8(os.path.join(args.out, FRAME_FMT % t), sequence[t].pixels)
        pgm.write_pgm16(os.path.join(args.out, MASK_FMT % t), gt.masks[t - 1].labels)
    trackfile.write_track_file(os.path.join(args.out, TRACK_FILE), gt.lineage)
    _write_events(os.path.join(args.out, EVENT_FILE), gt.events)
    kinds = [e[1] for e in gt.events]
    print(
        "simulated %d frames, %d tracks, %d collisions, %d mitoses, %d apoptoses"
        % (
            len(sequence),
            len(gt.lineage.tracks),
            kinds.count("COLLISION"),
            kinds.count("MITOSIS"),
            kinds.count("APOPTOSIS"),
        )
    )
    return 0


def _segment_sequence(sequence, cfg):
    masks = []
    for t in range(1, len(sequence) + 1):
        result = threshold_segment(
            sequence[t],
            cfg.threshold_method,
            cfg.threshold_level if cfg.threshold_method == "fixed" else None,
        )
        mask, cells = connected_components(result.mask, cfg.connectivity)
        if cfg.min_cell_size > 1:
            kept = [c for c in cells if c.size >= cfg.min_cell_size]
            relabeled = [replace(c, id=i) for i, c in enumerate(kept, start=1)]
            mask = mask_from_cells(relabeled, *mask.labels.shape)
        masks.append(mask)
    return masks


def cmd_track(args):
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    if args.input:
        cfg.input_dir = args.input
    if args.out:
        cfg.output_dir = args.out
    if args.baseline:
        cfg.enable_collision_resolution = False
        cfg.enable_mitosis_detection = False

    sequence = _load_frames(cfg.input_dir)
    if cfg.segmentation == "masks":
        masks = _load_masks(cfg.input_dir, count=len(sequence))
    elif cfg.segmentation == "threshold":
        masks = _segment_sequence(sequence, cfg)
    else:
        raise CliError("unknown segmentation source %r" % cfg.segmentation)

    if cfg.external_forward or cfg.external_backward:
        tracker = ExternalTracker(
            cfg.external_forward or None,
            cfg.external_backward or None,
            frame_shape=sequence[1].pixels.shape,
        )
    else:
        tracker = NCCTracker(cfg.tracker)
    linker_cfg = LinkerConfig(
        enable_collision_resolution=cfg.enable_collision_resolution,
        enable_mitosis_detection=cfg.enable_mitosis_detection,
        connectivity=cfg.connectivity,
        rw_config=cfg.rwalker,
    )
    out_masks, graph, events = run_linker(sequence, masks, tracker, linker_cfg)

    os.makedirs(cfg.output_dir, exist_ok=True)
    for t, mask in enumerate(out_masks, start=1):
        pgm.write_pgm16(os.path.join(cfg.output_dir, MASK_FMT % t), mask.labels)
    trackfile.write_track_file(os.path.join(cfg.output_dir, TRACK_FILE), graph)
    _write_events(os.path.join(cfg.output_dir, EVENT_FILE), events)
    print("tracked %d frames into %d tracks (%d events)" % (len(sequence), len(graph.tracks), len(events)))
    return 0


def cmd_evaluate(args):
    gt_masks = _load_masks(args.gt)
    pred_masks = _load_masks(args.pred, count=len(gt_masks))
    gt_lineage = trackfile.read_track_file(os.path.join(args.gt, TRACK_FILE), gt_masks)
    pred_lineage = trackfile.read_track_file(os.path.join(args.pred, TRACK_FILE), pred_masks)
    seg = metrics.seg_score(gt_masks, pred_masks)
    tra = metrics.tra_score(gt_lineage, gt_masks, pred_lineage, pred_masks)
    print("SEG %.6f" % seg.score)
    print("TRA %.6f" % tra.score)
    report = {
        "seg": seg.score,
        "tra": tra.score,
        "aogm": tra.aogm,
        "aogm0": tra.aogm0,
        "counts": tra.counts,
        "gt_fingerprint": seg.gt_fingerprint,
        "seg_rows": [
            {"t": t, "gt": g, "pred": p, "jaccard": j} for t, g, p, j in seg.rows
        ],
    }
    out = args.out or args.pred
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


def _palette_color(track_id):
    """Fixed hue-stepped palette; the same id maps to the same color."""
    hue = (track_id * 0.61803398875) % 1.0
    i = int(hue * 6.0)
    f = hue * 6.0 - i
    q, t = 1.0 - f, f
    rgb = [(1, t, 0), (q, 1, 0), (0, 1, t), (0, q, 1), (t, 0, 1), (1, 0, q)][i % 6]
    return tuple(int(round(255 * v)) for v in rgb)


def _boundary(labels):
    """4-connected boundary: labeled pixels with a differing 4-neighbor."""
    padded = np.pad(labels, 1, mode="edge")
    core = padded[1:-1, 1:-1]
    diff = np.zeros_like(core, dtype=bool)
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        diff |= core != padded[1 + dr : padded.shape[0] - 1 + dr, 1 + dc : padded.shape[1] - 1 + dc]
    return (core > 0) & diff


def cmd_overlay(args):
    frames = _load_frames(args.input)
    masks = _load_masks(args.masks or args.input, count=len(frames))
    track_path = args.tracks or os.path.join(args.masks or args.input, TRACK_FILE)
    lineage = trackfile.read_track_file(track_path, masks)
    mitosis_frames = {}  # (t, track id) -> children present
    for tr in lineage.tracks.values():
        if tr.parent:
            mitosis_frames.setdefault((tr.birth, tr.id), True)
            mitosis_frames.setdefault((tr.birth - 1, tr.parent), True)

    os.makedirs(args.out, exist_ok=True)
    for t in range(1, len(frames) + 1):
        gray = frames[t].pixels
        rgb = np.repeat(gray[:, :, None], 3, axis=2).astype(np.uint8)
        labels = masks[t - 1].labels
        boundary = _boundary(labels)
        for lab in np.unique(labels):
            if lab == 0:
                continue
            color = _palette_color(int(lab))
            sel = boundary & (labels == lab)
            rgb[sel] = color
            if (t, int(lab)) in mitosis_frames:
                rows, cols = np.nonzero(labels == lab)
                r0, c0 = rows.min(), cols.min()
                rgb[r0 : r0 + 3, c0 : c0 + 3] = color
        pgm.write_ppm(os.path.join(args.out, "overlay%03d.ppm" % t), rgb)
    print("wrote %d overlays to %s" % (len(frames), args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lineage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sequence with ground truth")
    p.add_argument("--config", help="SimConfig JSON (default: canonical scenario)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="segment/ingest masks and link cells over time")
    p.add_argument("--config", help="PipelineConfig JSON")
    p.add_argument("--in", dest="input", help="input directory (overrides config)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--baseline", action="store_true", help="disable collision and mitosis handling")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score predicted masks+tracks against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth directory")
    p.add_argument("--pred", required=True, help="prediction directory")
    p.add_argument("--out", help="report directory (default: prediction directory)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("overlay", help="render track-colored boundary overlays")
    p.add_argument("--in", dest="input", required=True, help="frames directory")
    p.add_argument("--masks", help="masks directory (default: frames directory)")
    p.add_argument("--tracks", help="track file (default: masks dir res_track.txt)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_overlay)
    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("LINEAGE_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print("lineage: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
