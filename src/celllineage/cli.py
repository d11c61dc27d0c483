"""`lineage` command line: simulate, track, evaluate, overlay."""

import argparse
import colorsys
import json
import logging
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from . import jsonconfig, metrics, pgm, simulator, trackfile
from .imagecore import Frame, LabelMask, cells_from_labelmask, connected_components, threshold_segment
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

    def __post_init__(self):
        if self.segmentation not in ("threshold", "masks"):
            raise ValueError("segmentation must be 'threshold' or 'masks', got %r" % self.segmentation)
        if self.threshold_method not in ("otsu", "fixed"):
            raise ValueError("threshold_method must be 'otsu' or 'fixed', got %r" % self.threshold_method)
        if self.threshold_method == "fixed" and not 0.0 <= self.threshold_level <= 1.0:
            raise ValueError("threshold_level must be in [0, 1] for the fixed method")
        if self.min_cell_size < 1:
            raise ValueError("min_cell_size must be >= 1")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")


def _stack_paths(directory, fmt, noun, count=None):
    """The files fmt % 1, fmt % 2, ... in `directory`, up to the first
    missing one; `count`, when given, is the number of files expected."""
    paths = []
    path = os.path.join(directory, fmt % 1)
    while os.path.exists(path):
        paths.append(path)
        path = os.path.join(directory, fmt % (len(paths) + 1))
    if not paths:
        raise CliError("no %s (%s) found in %s" % (noun, fmt % 1, directory))
    if count is not None and len(paths) != count:
        if len(paths) < count:
            hint = "%s missing?" % (fmt % (len(paths) + 1))
        else:
            hint = "%s is past the last frame" % (fmt % (count + 1))
        raise CliError("%s: found %d %s, expected %d (%s)" % (directory, len(paths), noun, count, hint))
    return paths


def _read_frames(paths):
    """Frame t from the t-th of `paths`, read as it is asked for; every
    frame must have frame 1's dimensions."""
    shape = None
    for t, path in enumerate(paths, start=1):
        frame = Frame(index=t, pixels=pgm.read_pgm8(path))
        shape = shape or frame.pixels.shape
        if frame.pixels.shape != shape:
            raise CliError("frame %d: all frames must share dimensions" % t)
        yield frame


def _read_masks(paths):
    """The mask in each of `paths`, read as it is asked for."""
    return (LabelMask(labels=pgm.read_pgm16(path)) for path in paths)


def _with_masks(frames, paths):
    """Each of `frames` paired with the mask read from its entry of `paths`,
    read as it is asked for and checked against its frame's shape."""
    for frame, mask in zip(frames, _read_masks(paths)):
        if mask.labels.shape != frame.pixels.shape:
            raise CliError("frame %d: mask dimensions do not match the frame" % frame.index)
        yield frame, mask


def _write_events(path, events):
    with open(path, "w", newline="\n") as f:
        for t, kind, ids in events:
            f.write("%d %s %s\n" % (t, kind, " ".join(str(i) for i in ids)))


def cmd_simulate(args):
    if args.config:
        cfg = jsonconfig.load(simulator.SimConfig, args.config)
    else:
        cfg = simulator.script_collision_scenario()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    frames, gt = simulator.simulate(cfg)
    os.makedirs(args.out, exist_ok=True)
    for frame, mask in zip(frames, gt.masks):
        pgm.write_pgm8(os.path.join(args.out, FRAME_FMT % frame.index), frame.pixels)
        pgm.write_pgm16(os.path.join(args.out, MASK_FMT % frame.index), mask.labels)
    trackfile.write_track_file(os.path.join(args.out, TRACK_FILE), gt.lineage)
    _write_events(os.path.join(args.out, EVENT_FILE), gt.events)
    kinds = [e[1] for e in gt.events]
    print(
        "simulated %d frames, %d tracks, %d collisions, %d mitoses, %d apoptoses"
        % (
            len(frames),
            len(gt.lineage.tracks),
            kinds.count("COLLISION"),
            kinds.count("MITOSIS"),
            kinds.count("APOPTOSIS"),
        )
    )
    return 0


def _segment_sequence(frames, cfg):
    """Each frame with its cells, from one labelling pass of its thresholded
    foreground, made as it is asked for."""
    level = cfg.threshold_level if cfg.threshold_method == "fixed" else None
    for frame in frames:
        foreground = threshold_segment(frame, level)
        yield frame, connected_components(foreground, cfg.connectivity, cfg.min_cell_size)


def cmd_track(args):
    cfg = jsonconfig.load(PipelineConfig, args.config) if args.config else PipelineConfig()
    if args.baseline:
        cfg.enable_collision_resolution = False
        cfg.enable_mitosis_detection = False

    paths = _stack_paths(args.input, FRAME_FMT, "frames")
    frames = _read_frames(paths)
    if cfg.segmentation == "masks":
        masks = _with_masks(frames, _stack_paths(args.input, MASK_FMT, "masks", count=len(paths)))
        steps = ((frame, cells_from_labelmask(mask, cfg.connectivity)) for frame, mask in masks)
    else:
        steps = _segment_sequence(frames, cfg)

    if cfg.external_forward or cfg.external_backward:
        tracker = ExternalTracker(
            cfg.external_forward or None,
            cfg.external_backward or None,
            frame_shape=pgm.read_pgm8(paths[0]).shape,
        )
    else:
        tracker = NCCTracker(cfg.tracker)
    linker_cfg = LinkerConfig(
        enable_collision_resolution=cfg.enable_collision_resolution,
        enable_mitosis_detection=cfg.enable_mitosis_detection,
        rw_config=cfg.rwalker,
    )
    out_masks, graph, events = run_linker(steps, tracker, linker_cfg)

    os.makedirs(args.out, exist_ok=True)
    for t, mask in enumerate(out_masks, start=1):
        pgm.write_pgm16(os.path.join(args.out, MASK_FMT % t), mask.labels)
    trackfile.write_track_file(os.path.join(args.out, TRACK_FILE), graph)
    _write_events(os.path.join(args.out, EVENT_FILE), events)
    print("tracked %d frames into %d tracks (%d events)" % (len(paths), len(graph.tracks), len(events)))
    return 0


def cmd_evaluate(args):
    gt_paths = _stack_paths(args.gt, MASK_FMT, "masks")
    pred_paths = _stack_paths(args.pred, MASK_FMT, "masks", count=len(gt_paths))
    census = metrics.census(_read_masks(gt_paths), _read_masks(pred_paths))
    gt_labels = [gt_sizes for gt_sizes, _, _, _ in census.frames]
    pred_labels = [pred_sizes for _, pred_sizes, _, _ in census.frames]
    gt_lineage = trackfile.read_track_file(os.path.join(args.gt, TRACK_FILE), gt_labels)
    pred_lineage = trackfile.read_track_file(os.path.join(args.pred, TRACK_FILE), pred_labels)
    seg = metrics.seg_score(census)
    tra = metrics.tra_score(gt_lineage, pred_lineage, census)
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
        f.write(json.dumps(report, indent=2) + "\n")
    return 0


def _palette_color(track_id):
    """Fixed hue-stepped palette; the same id maps to the same color."""
    rgb = colorsys.hsv_to_rgb((track_id * 0.61803398875) % 1.0, 1.0, 1.0)
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
    paths = _stack_paths(args.input, FRAME_FMT, "frames")
    mask_paths = _stack_paths(args.masks or args.input, MASK_FMT, "masks", count=len(paths))
    pairs = list(_with_masks(_read_frames(paths), mask_paths))
    track_path = args.tracks or os.path.join(args.masks or args.input, TRACK_FILE)
    boxes = [ndimage.find_objects(mask.labels) for _, mask in pairs]  # label - 1 -> box or None
    present = [[lab for lab, box in enumerate(frame_boxes, start=1) if box] for frame_boxes in boxes]
    lineage = trackfile.read_track_file(track_path, present)
    mitosis_marks = set()  # (t, track id): a dividing cell's last frame, its children's first
    for tr in lineage.tracks.values():
        if tr.parent:
            mitosis_marks.update({(tr.birth, tr.id), (tr.birth - 1, tr.parent)})

    os.makedirs(args.out, exist_ok=True)
    for (frame, mask), frame_boxes in zip(pairs, boxes):
        t, labels = frame.index, mask.labels
        rgb = np.repeat(frame.pixels[:, :, None], 3, axis=2).astype(np.uint8)
        boundary = _boundary(labels)
        for lab, box in enumerate(frame_boxes, start=1):
            if box is None:
                continue
            color = _palette_color(lab)
            rgb[box][boundary[box] & (labels[box] == lab)] = color
            if (t, lab) in mitosis_marks:
                r0, c0 = box[0].start, box[1].start  # the label's first row and column
                rgb[r0 : r0 + 3, c0 : c0 + 3] = color
        pgm.write_ppm(os.path.join(args.out, "overlay%03d.ppm" % t), rgb)
    print("wrote %d overlays to %s" % (len(pairs), args.out))
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
    p.add_argument("--in", dest="input", default=".", help="input directory (default: .)")
    p.add_argument("--out", default="out", help="output directory (default: out)")
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
    args = build_parser().parse_args(argv)
    try:
        # basicConfig ignores `level` once the root logger has handlers
        level = os.environ.get("LINEAGE_LOG") or "WARNING"
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise CliError("LINEAGE_LOG: unknown level %r" % level)
        logging.basicConfig(level=level.upper())
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print("lineage: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
