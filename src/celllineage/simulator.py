"""Synthetic cell-sequence generator with exact ground truth.

Cells are additive Gaussian intensity blobs drifting with Brownian motion.
Mitosis, apoptosis (a linear fade-out) and cell-cell collisions can occur
at random or on a deterministic script; the generator emits the frames, the
per-frame ground-truth masks (labels = track ids), the lineage and an event
log. Everything is a pure function of the config and seed.
"""

import logging
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .imagecore import Frame, LabelMask
from .linker import LineageGraph

log = logging.getLogger("lineage")

# blob sigma such that the rendered intensity drops to half-peak exactly at
# the nominal radius: exp(-r^2 / (2 sigma^2)) = 1/2  =>  sigma = r / sqrt(2 ln 2)
_SIGMA_PER_RADIUS = 1.0 / math.sqrt(2.0 * math.log(2.0))

PEAK = 0.8
BACKGROUND = 0.1
# beyond _REACH sigmas a blob adds under 2^-60, below half an ulp of BACKGROUND
# (2^-57); no pixel sum falls below BACKGROUND, so such a term changes no pixel
_REACH = math.sqrt(2.0 * math.log((PEAK - BACKGROUND) * 2.0**60))

# scripted collision phases, in frames
_APPROACH = 6
_CONTACT = 3
_SEPARATE = 4
_CONTACT_GAP = 0.75  # center distance at contact, in units of (ra + rb)
_START_GAP = 2.8  # partner pre-positioning distance, same units


def _is_number(value, kind=Real):
    return isinstance(value, kind) and not isinstance(value, bool)  # true/false is not a number


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
        if len(self.radius_range) != 2 or not all(map(_is_number, self.radius_range)):
            raise ValueError("radius_range must be two numbers, got %r" % (self.radius_range,))
        for key in ("n_init", "drift_sigma", "noise_sigma"):
            if getattr(self, key) < 0:
                raise ValueError("%s must be >= 0, got %r" % (key, getattr(self, key)))
        # (key, entry length, earliest time): a mitosis at t ends the parent's track at t - 1
        scripts = (("collision_script", 3, 1), ("mitosis_script", 2, 2), ("apoptosis_script", 2, 1))
        for key, size, first in scripts:
            for entry in getattr(self, key):
                ints = isinstance(entry, (tuple, list)) and all(_is_number(v, Integral) for v in entry)
                if not ints or len(entry) != size:
                    raise ValueError("%s: entries must be lists of %d integers, got %r" % (key, size, entry))
                if not first <= entry[0] <= self.frames:
                    raise ValueError("%s: time %d outside %d..%d" % (key, entry[0], first, self.frames))
        for t, a, b in self.collision_script:
            if a == b:
                raise ValueError("collision_script: cell %d cannot collide with itself" % a)
            if t < 3:  # an approach is planned at frame 2 at the earliest and moves cells from frame 3
                raise ValueError("collision_script: time %d is before 3, the first frame of contact" % t)
        if self.fade_frames < 1:
            raise ValueError("fade_frames must be >= 1, got %r" % (self.fade_frames,))
        rmin, rmax = self.radius_range
        side = min(self.width, self.height)  # _initial_positions keeps centres rmax + 4 from each border
        if rmin <= 0 or rmax < rmin or 2 * (rmax + 4) > side:
            raise ValueError("radius_range must be positive, ascending and leave a 4 px margin:"
                             " 2 * (rmax + 4) <= min(width, height) = %d, got %r" % (side, self.radius_range))


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


def _scripted_cell(cells, a, t, event):
    """Cell a, which a scripted event at frame t changes; SimError when it is
    dead, fading, or moved by a collision plan after frame t."""
    cell = cells.get(a)
    if cell is None:
        raise SimError("%s: cell %d is dead" % (event, a))
    if cell.fade_left >= 0:
        raise SimError("%s: cell %d is fading" % (event, a))
    if t < cell.scripted_until:
        raise SimError("%s: cell %d is under a collision plan through frame %d" % (event, a, cell.scripted_until))
    return cell


def _reflect(x, lo, hi):
    if hi <= lo:
        return lo
    span = hi - lo
    x = (x - lo) % (2 * span)
    return lo + (span - abs(x - span) if x > span else x)


def _reflect_into(pos, lo, cfg):
    """`pos` reflected at the frame's borders to lie at least `lo` from each."""
    return np.array([_reflect(pos[0], lo, cfg.height - 1 - lo), _reflect(pos[1], lo, cfg.width - 1 - lo)])


def _clearance(pos, radius, centres, radii, factor):
    """Smallest gap from a cell at `pos` to the cells at `centres`, less
    `factor` times each radius sum; inf when there are none."""
    d = pos - centres
    # vecdot sums as np.linalg.norm does, so the distances equal its bit for bit
    return np.min(np.sqrt(np.vecdot(d, d)) - factor * (radius + radii), initial=math.inf)


def _initial_positions(cfg, rng):
    """Up to 200 random draws per cell; the first that clears every earlier
    cell by 2.2 radius sums is kept, else the draw with the largest
    clearance, with a warning."""
    margin = cfg.radius_range[1] + 4.0
    positions = np.empty((cfg.n_init, 2))
    radii = np.empty(cfg.n_init)
    for k in range(cfg.n_init):
        radius = rng.uniform(*cfg.radius_range)
        best = None
        for _attempt in range(200):
            pos = np.array(
                [rng.uniform(margin, cfg.height - margin), rng.uniform(margin, cfg.width - margin)]
            )
            clearance = _clearance(pos, radius, positions[:k], radii[:k], 2.2)
            if best is None or clearance > best[0]:
                best = (clearance, pos)
            if clearance > 0:
                break
        else:
            log.warning(
                "simulate: no clear spot for cell %d in 200 draws; placed with clearance %.2f px",
                k + 1,
                best[0],
            )
        positions[k], radii[k] = best[1], radius
    return list(positions), radii.tolist()


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
    centres = np.reshape([c.pos for c in others], (-1, 2))
    radii = np.array([c.radius for c in others])
    best = None
    for k in range(16):
        angle = 2.0 * math.pi * k / 16.0
        rot = np.array(
            [
                [math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)],
            ]
        )
        pos = np.clip(ca.pos + target * (rot @ u0), margin, (cfg.height - 1 - margin, cfg.width - 1 - margin))
        clearance = _clearance(pos, cb.radius, centres, radii, 2.0)
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


def _span(center, half, size):
    """[lo, hi) of the pixel indices within `half` of `center`, clipped to [0, size)."""
    return max(0, math.floor(center - half)), min(size, math.ceil(center + half) + 1)


def _render(cells, cfg, rng):
    """Render one frame, its ground-truth mask and the ascending tracks present.

    A cell's Gaussian is evaluated only in its _REACH window, its ownership test in its disc's box."""
    h, w = cfg.height, cfg.width
    img = np.full((h, w), BACKGROUND)
    best_d2 = np.full((h, w), np.inf)
    labels = np.zeros((h, w), dtype=np.int32)
    discs = []
    for cell in cells:
        sigma = cell.radius * _SIGMA_PER_RADIUS
        (r0, r1), (c0, c1) = (_span(p, sigma * _REACH + 1.0, n) for p, n in zip(cell.pos, (h, w)))
        rows, cols = np.ogrid[r0:r1, c0:c1]
        d2 = (rows - cell.pos[0]) ** 2 + (cols - cell.pos[1]) ** 2
        img[r0:r1, c0:c1] += cell.amp * (PEAK - BACKGROUND) * np.exp(-d2 / (2.0 * sigma * sigma))
        # ownership: inside the half-peak disc and nearer than any other owner
        (a0, a1), (b0, b1) = (_span(p, cell.radius, n) for p, n in zip(cell.pos, (h, w)))
        d2, disc = d2[a0 - r0 : a1 - r0, b0 - c0 : b1 - c0], np.s_[a0:a1, b0:b1]
        take = (d2 <= cell.radius * cell.radius) & (d2 < best_d2[disc])
        labels[disc][take] = cell.track
        best_d2[disc][take] = d2[take]
        discs.append((cell.track, labels[disc]))
    img = np.clip(img, 0.0, 1.0)
    if cfg.noise_sigma > 0:
        img = np.clip(img + rng.normal(0.0, cfg.noise_sigma, size=(h, w)), 0.0, 1.0)
    pixels = np.round(img * 255.0).astype(np.uint8)
    present = sorted(track for track, disc in discs if np.any(disc == track))
    return pixels, LabelMask(labels=labels), present


def simulate(cfg):
    """Generate (frames, GroundTruth), the frames a tuple numbered 1..T;
    bit-deterministic per (config, seed)."""
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

    frames = []
    gt_masks = []
    for t in range(1, cfg.frames + 1):
        # scripted events entering effect at frame t (a collision _APPROACH frames before contact)
        for contact_t, a, b in cfg.collision_script:
            if max(2, contact_t - _APPROACH) == t:
                for cell in (a, b):
                    _scripted_cell(cells, cell, t, "collision scripted at t=%d" % contact_t)
                _plan_collision(cells, contact_t, a, b)
                events.append((contact_t, "COLLISION", (a, b)))
        for when, a in cfg.mitosis_script:
            if when == t:
                _scripted_cell(cells, a, t, "mitosis scripted at t=%d" % t)
                children = _divide(cells, graph, a, t, rng, cfg)
                events.append((t, "MITOSIS", (a, *children)))
        for when, a in cfg.apoptosis_script:
            if when == t:
                _scripted_cell(cells, a, t, "apoptosis scripted at t=%d" % t).fade_left = cfg.fade_frames
                events.append((t, "APOPTOSIS", (a,)))

        # random events (skipped for cells under a collision script, fading,
        # or born this frame: a cell divides or dies only after one frame of life)
        for tid in sorted(cells):
            cell = cells[tid]
            if t <= cell.scripted_until or cell.fade_left >= 0 or graph.tracks[tid].birth == t:
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

        pixels, mask, present = _render(list(cells.values()), cfg, rng)
        frames.append(Frame(index=t, pixels=pixels))
        gt_masks.append(mask)
        graph.assignments[t] = {tid: tid for tid in present}

        # motion update for the next frame
        for tid in sorted(cells):
            cell = cells[tid]
            scripted = cell.path.get(t + 1)
            if scripted is not None:
                cell.pos = scripted.copy()
            else:
                step = rng.normal(0.0, cfg.drift_sigma, size=2)
                cell.pos = _reflect_into(cell.pos + step, cell.radius + 1.0, cfg)

    graph.validate()
    return tuple(frames), GroundTruth(masks=gt_masks, lineage=graph, events=events)


def _divide(cells, graph, tid, t, rng, cfg):
    """Replace a cell with two half-radius daughters displaced by +/- radius."""
    cell = cells.pop(tid)
    graph.tracks[tid].end = t - 1
    theta = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.sin(theta), math.cos(theta)])
    children = []
    for sign in (1.0, -1.0):
        child = graph.new_track(t, parent=tid)
        pos = _reflect_into(cell.pos + sign * cell.radius * u, cell.radius / 2.0 + 1.0, cfg)
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
