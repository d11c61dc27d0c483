"""Synthetic cell-sequence generator with exact ground truth.

Cells are additive Gaussian intensity blobs drifting with Brownian motion.
Mitosis, apoptosis (a linear fade-out) and cell-cell collisions can occur
at random or on a deterministic script; the generator emits the frames, the
per-frame ground-truth masks (labels = track ids), the lineage and an event
log. Everything is a pure function of the config and seed.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import jsonconfig
from .imagecore import Frame, LabelMask, Sequence
from .linker import LineageGraph, Track

# blob sigma such that the rendered intensity drops to half-peak exactly at
# the nominal radius: exp(-r^2 / (2 sigma^2)) = 1/2  =>  sigma = r / sqrt(2 ln 2)
_SIGMA_PER_RADIUS = 1.0 / math.sqrt(2.0 * math.log(2.0))

PEAK = 0.8
BACKGROUND = 0.1

# scripted collision phases, in frames
_APPROACH = 6
_CONTACT = 3
_SEPARATE = 4
_CONTACT_GAP = 0.75  # center distance at contact, in units of (ra + rb)
_START_GAP = 2.8  # partner pre-positioning distance, same units


@dataclass(frozen=True)
class SimConfig:
    width: int = 256
    height: int = 256
    frames: int = 20
    n_init: int = 5
    radius_range: tuple = (9.0, 12.0)
    drift_sigma: float = 1.0
    mitosis_prob: float = 0.0
    apoptosis_prob: float = 0.0
    collision_script: tuple = ()  # (t, cell_a, cell_b)
    mitosis_script: tuple = ()  # (t, cell)
    apoptosis_script: tuple = ()  # (t, cell)
    fade_frames: int = 4
    noise_sigma: float = 0.02
    rng_seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if not 0 <= self.mitosis_prob <= 1 or not 0 <= self.apoptosis_prob <= 1:
            raise ValueError("event probabilities must lie in [0, 1]")
        rmin, rmax = self.radius_range
        if rmin <= 0 or rmax < rmin or 2 * rmax >= min(self.width, self.height):
            raise ValueError("radius_range must be positive and fit the image")

    @classmethod
    def from_json(cls, path):
        return jsonconfig.load(cls, path)

    def to_json(self, path):
        doc = asdict(self)
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


@dataclass
class GroundTruth:
    masks: list  # LabelMask per frame
    lineage: LineageGraph
    events: list  # (t, kind, track ids)


class SimError(ValueError):
    pass


@dataclass
class _CellState:
    track: int
    pos: np.ndarray  # (row, col) float
    radius: float
    amp: float = 1.0  # fade factor in (0, 1]
    fade_left: int = -1  # frames of fading remaining; -1 = not fading
    scripted_until: int = 0  # frame index through which motion is scripted
    path: dict = field(default_factory=dict)  # scripted frame -> position


def _reflect(x, lo, hi):
    if hi <= lo:
        return lo
    span = hi - lo
    x = (x - lo) % (2 * span)
    return lo + (span - abs(x - span) if x > span else x)


def _initial_positions(cfg, rng):
    margin = cfg.radius_range[1] + 4.0
    positions = []
    radii = []
    for _ in range(cfg.n_init):
        radius = rng.uniform(*cfg.radius_range)
        for _attempt in range(200):
            pos = np.array(
                [rng.uniform(margin, cfg.height - margin), rng.uniform(margin, cfg.width - margin)]
            )
            if all(
                np.linalg.norm(pos - q) > 2.2 * (radius + rq) for q, rq in zip(positions, radii)
            ):
                break
        positions.append(pos)
        radii.append(radius)
    return positions, radii


def _preposition_partner(cells, a, b, cfg):
    """Move cell b near cell a so a scripted approach stays slow.

    The per-frame approach step must stay well below the tracker's reach,
    so partners start at most _START_GAP * (ra + rb) apart.
    """
    ca, cb = cells[a], cells[b]
    target = _START_GAP * (ca.radius + cb.radius)
    delta = cb.pos - ca.pos
    dist = np.linalg.norm(delta)
    if dist <= target:
        return
    u0 = delta / dist
    margin = cb.radius + 2.0
    others = [c for tid, c in cells.items() if tid not in (a, b)]
    best = None
    for k in range(16):
        angle = 2.0 * math.pi * k / 16.0
        rot = np.array(
            [
                [math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)],
            ]
        )
        pos = ca.pos + target * (rot @ u0)
        pos = np.array(
            [
                min(max(pos[0], margin), cfg.height - 1 - margin),
                min(max(pos[1], margin), cfg.width - 1 - margin),
            ]
        )
        clearance = min(
            (np.linalg.norm(pos - c.pos) - 2.0 * (cb.radius + c.radius) for c in others),
            default=1.0,
        )
        if best is None or clearance > best[0]:
            best = (clearance, pos)
        if clearance >= 0:
            break
    cb.pos = best[1]


def _plan_collision(cells, t, a, b):
    """Write a deterministic approach/contact/separate path for cells a, b."""
    ca, cb = cells[a], cells[b]
    p_a, p_b = ca.pos.copy(), cb.pos.copy()
    delta = p_b - p_a
    dist = np.linalg.norm(delta)
    u = delta / dist if dist > 1e-9 else np.array([0.0, 1.0])
    mid = (p_a + p_b) / 2.0
    gap = _CONTACT_GAP * (ca.radius + cb.radius)
    q_a, q_b = mid - 0.5 * gap * u, mid + 0.5 * gap * u
    out = 1.8 * (ca.radius + cb.radius)
    e_a, e_b = mid - 0.5 * out * u, mid + 0.5 * out * u
    start = t - _APPROACH
    for cell, p0, q, e in ((ca, p_a, q_a, e_a), (cb, p_b, q_b, e_b)):
        for k in range(1, _APPROACH + 1):
            cell.path[start + k] = p0 + (q - p0) * (k / _APPROACH)
        # contact spans frames t .. t + _CONTACT - 1 (frame t ends the approach)
        for k in range(1, _CONTACT):
            cell.path[t + k] = q.copy()
        for k in range(1, _SEPARATE + 1):
            cell.path[t + _CONTACT - 1 + k] = q + (e - q) * (k / _SEPARATE)
        cell.scripted_until = t + _CONTACT - 1 + _SEPARATE


def _render(cells, cfg, rng):
    """Render one frame and its ground-truth mask from live cell states."""
    h, w = cfg.height, cfg.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    img = np.full((h, w), BACKGROUND)
    best_d2 = np.full((h, w), np.inf)
    labels = np.zeros((h, w), dtype=np.int32)
    for cell in cells:
        sigma = cell.radius * _SIGMA_PER_RADIUS
        d2 = (rows - cell.pos[0]) ** 2 + (cols - cell.pos[1]) ** 2
        img += cell.amp * (PEAK - BACKGROUND) * np.exp(-d2 / (2.0 * sigma * sigma))
        # ownership: inside the half-peak disc and nearer than any other owner
        inside = d2 <= cell.radius * cell.radius
        take = inside & (d2 < best_d2)
        labels[take] = cell.track
        best_d2[take] = d2[take]
    img = np.clip(img, 0.0, 1.0)
    if cfg.noise_sigma > 0:
        img = np.clip(img + rng.normal(0.0, cfg.noise_sigma, size=(h, w)), 0.0, 1.0)
    pixels = np.round(img * 255.0).astype(np.uint8)
    return pixels, LabelMask(labels=labels)


def simulate(cfg):
    """Generate (Sequence, GroundTruth); bit-deterministic per (config, seed)."""
    rng = np.random.default_rng(cfg.rng_seed)
    graph = LineageGraph()
    events = []

    positions, radii = _initial_positions(cfg, rng)
    cells = {}
    for k in range(cfg.n_init):
        tid = graph.new_track(1)
        cells[tid] = _CellState(track=tid, pos=positions[k], radius=radii[k])
    for t, a, b in cfg.collision_script:
        if a in cells and b in cells:
            _preposition_partner(cells, a, b, cfg)

    # collision scripts activate _APPROACH frames before contact
    col_by_frame = {}
    for t, a, b in cfg.collision_script:
        col_by_frame.setdefault(max(2, t - _APPROACH), []).append((t, a, b))
    mit_by_frame = {}
    for t, a in cfg.mitosis_script:
        mit_by_frame.setdefault(t, []).append(a)
    apo_by_frame = {}
    for t, a in cfg.apoptosis_script:
        apo_by_frame.setdefault(t, []).append(a)

    frames = []
    gt_masks = []
    for t in range(1, cfg.frames + 1):
        # scripted events entering effect at frame t
        for contact_t, a, b in col_by_frame.get(t, []):
            if a not in cells or b not in cells:
                raise SimError(
                    "collision scripted at t=%d involves a dead cell (%d, %d)" % (contact_t, a, b)
                )
            _plan_collision(cells, contact_t, a, b)
            events.append((contact_t, "COLLISION", (a, b)))
        for a in mit_by_frame.get(t, []):
            if a not in cells:
                raise SimError("mitosis scripted at t=%d for dead cell %d" % (t, a))
            children = _divide(cells, graph, a, t, rng, cfg)
            events.append((t, "MITOSIS", (a, *children)))
        for a in apo_by_frame.get(t, []):
            if a not in cells:
                raise SimError("apoptosis scripted at t=%d for dead cell %d" % (t, a))
            cells[a].fade_left = cfg.fade_frames
            events.append((t, "APOPTOSIS", (a,)))

        # random events (skipped for cells under a collision script)
        for tid in sorted(cells):
            cell = cells[tid]
            if t <= cell.scripted_until or cell.fade_left >= 0 or t == 1:
                continue
            if cfg.mitosis_prob > 0 and rng.random() < cfg.mitosis_prob:
                children = _divide(cells, graph, tid, t, rng, cfg)
                events.append((t, "MITOSIS", (tid, *children)))
            elif cfg.apoptosis_prob > 0 and rng.random() < cfg.apoptosis_prob:
                cell.fade_left = cfg.fade_frames
                events.append((t, "APOPTOSIS", (tid,)))

        # advance fading, drop finished cells before rendering
        for tid in sorted(cells):
            cell = cells[tid]
            if cell.fade_left >= 0:
                cell.amp = cell.fade_left / float(cfg.fade_frames)
                cell.fade_left -= 1
                if cell.amp <= 0.0:
                    del cells[tid]
                    continue
            graph.tracks[tid].end = t

        pixels, mask = _render(list(cells.values()), cfg, rng)
        frames.append(Frame(index=t, pixels=pixels))
        gt_masks.append(mask)
        assign = {}
        for tid in sorted(cells):
            if np.any(mask.labels == tid):
                assign[tid] = tid
        graph.assignments[t] = assign

        # motion update for the next frame
        for tid in sorted(cells):
            cell = cells[tid]
            scripted = cell.path.get(t + 1)
            if scripted is not None:
                cell.pos = scripted.copy()
            else:
                step = rng.normal(0.0, cfg.drift_sigma, size=2)
                lo = cell.radius + 1.0
                cell.pos = np.array(
                    [
                        _reflect(cell.pos[0] + step[0], lo, cfg.height - 1 - lo),
                        _reflect(cell.pos[1] + step[1], lo, cfg.width - 1 - lo),
                    ]
                )

    graph.validate()
    for t, mask in enumerate(gt_masks, start=1):
        for lab in np.unique(mask.labels):
            if lab == 0:
                continue
            tr = graph.tracks.get(int(lab))
            assert tr is not None and tr.birth <= t <= tr.end, (
                "mask label %d at frame %d outside its track span" % (lab, t)
            )
    sequence = Sequence(frames=tuple(frames))
    return sequence, GroundTruth(masks=gt_masks, lineage=graph, events=events)


def _divide(cells, graph, tid, t, rng, cfg):
    """Replace a cell with two half-radius daughters displaced by +/- radius."""
    cell = cells.pop(tid)
    graph.tracks[tid].end = t - 1
    theta = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.sin(theta), math.cos(theta)])
    children = []
    for sign in (1.0, -1.0):
        child = graph.new_track(t, parent=tid)
        pos = cell.pos + sign * cell.radius * u
        lo = cell.radius / 2.0 + 1.0
        pos[0] = _reflect(pos[0], lo, cfg.height - 1 - lo)
        pos[1] = _reflect(pos[1], lo, cfg.width - 1 - lo)
        cells[child] = _CellState(track=child, pos=pos, radius=cell.radius / 2.0)
        children.append(child)
    return children


def script_collision_scenario(seed=0):
    """Canonical regression scenario: one collision, one mitosis, one apoptosis."""
    return SimConfig(
        width=256,
        height=256,
        frames=20,
        n_init=5,
        radius_range=(9.0, 12.0),
        drift_sigma=1.0,
        collision_script=((8, 1, 2),),
        mitosis_script=((12, 3),),
        apoptosis_script=((14, 4),),
        fade_frames=4,
        noise_sigma=0.02,
        rng_seed=seed,
    )
