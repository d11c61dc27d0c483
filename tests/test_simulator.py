import copy
import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from celllineage import jsonconfig
from celllineage.imagecore import LabelMask
from celllineage.simulator import (
    _REACH,
    _SIGMA_PER_RADIUS,
    BACKGROUND,
    PEAK,
    GroundTruth,
    SimConfig,
    SimError,
    _CellState,
    _clearance,
    _initial_positions,
    _preposition_partner,
    _reflect,
    _render,
    script_collision_scenario,
    simulate,
)


def small_config(**kw):
    base = dict(width=96, height=96, frames=6, n_init=3, radius_range=(6.0, 8.0), rng_seed=1)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(frames=0)
    with pytest.raises(ValueError):
        SimConfig(mitosis_prob=1.5)
    with pytest.raises(ValueError):
        SimConfig(width=20, height=20, radius_range=(9.0, 12.0))
    with pytest.raises(ValueError):
        SimConfig(radius_range=(5.0, 4.0))
    # centres are drawn at least rmax + 4 from each border
    with pytest.raises(ValueError, match=r"radius_range must .* 4 px margin: .* = 64, got \(2.0, 30.0\)"):
        SimConfig(width=64, height=200, radius_range=(2.0, 30.0))


def test_largest_radius_that_fits_simulates():
    # 2 * (rmax + 4) == min(width, height): every centre starts on the midline
    cfg = SimConfig(width=64, height=200, frames=5, n_init=3, radius_range=(2.0, 28.0),
                    mitosis_prob=0.5, rng_seed=4)
    seq, gt = simulate(cfg)
    assert len(seq) == 5
    assert set(np.unique(gt.masks[0].labels)) - {0} == {1, 2, 3}


def test_config_json_round_trip(tmp_path):
    cfg = script_collision_scenario(seed=3)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert jsonconfig.load(SimConfig, str(path)) == cfg


def test_crowded_start_keeps_the_clearest_draw(caplog):
    # 20 cells do not fit 128x128 with 2.2 radius sums between them
    cfg = SimConfig(width=128, height=128, n_init=20, rng_seed=3)
    with caplog.at_level(logging.WARNING, logger="lineage"):
        positions, radii = _initial_positions(cfg, np.random.default_rng(cfg.rng_seed))
    # replay the draws: up to 200 per cell, stopping at the first that clears
    rng = np.random.default_rng(cfg.rng_seed)
    margin = cfg.radius_range[1] + 4.0
    expected = []
    for k in range(cfg.n_init):
        radius = rng.uniform(*cfg.radius_range)
        draws = []
        for _ in range(200):
            pos = np.array([rng.uniform(margin, cfg.height - margin), rng.uniform(margin, cfg.width - margin)])
            gaps = [np.linalg.norm(pos - q) - 2.2 * (radius + rq) for q, rq in zip(positions[:k], radii[:k])]
            draws.append((min(gaps, default=np.inf), pos))
            if draws[-1][0] > 0:
                break
        clearance, pos = max(draws, key=lambda d: d[0])
        assert radii[k] == radius and np.array_equal(positions[k], pos), k
        if clearance <= 0:
            expected.append("cell %d in 200 draws; placed with clearance %.2f px" % (k + 1, clearance))
    assert expected, "this config should run out of clear spots"
    messages = [r.getMessage() for r in caplog.records if r.name == "lineage"]
    assert len(messages) == len(expected)
    assert all(m.endswith(e) for m, e in zip(messages, expected))


def test_roomy_start_logs_nothing(caplog):
    with caplog.at_level(logging.WARNING, logger="lineage"):
        simulate(small_config())
    assert not caplog.records


def test_simulate_shapes_and_counts():
    cfg = small_config()
    seq, gt = simulate(cfg)
    assert len(seq) == 6 and len(gt.masks) == 6
    for t, frame in enumerate(seq, start=1):
        assert frame.index == t
        assert frame.pixels.shape == (96, 96)
        assert frame.pixels.dtype == np.uint8
    labels = set(np.unique(gt.masks[0].labels)) - {0}
    assert labels == {1, 2, 3}


def test_simulate_deterministic():
    cfg = small_config(noise_sigma=0.03)
    seq_a, gt_a = simulate(cfg)
    seq_b, gt_b = simulate(cfg)
    for t in range(1, len(seq_a) + 1):
        assert np.array_equal(seq_a[t - 1].pixels, seq_b[t - 1].pixels)
        assert np.array_equal(gt_a.masks[t - 1].labels, gt_b.masks[t - 1].labels)
    assert gt_a.events == gt_b.events


def test_simulate_seed_changes_output():
    seq_a, _ = simulate(small_config(rng_seed=1))
    seq_b, _ = simulate(small_config(rng_seed=2))
    assert any(
        not np.array_equal(a.pixels, b.pixels) for a, b in zip(seq_a, seq_b)
    )


def test_blob_intensity_profile():
    # noise off: blob center hits its peak and ownership disc has the radius
    cfg = small_config(noise_sigma=0.0, drift_sigma=0.0, n_init=1, radius_range=(8.0, 8.0))
    seq, gt = simulate(cfg)
    mask = gt.masks[0].labels
    frame = seq[0].pixels
    rows, cols = np.nonzero(mask == 1)
    r0 = (rows.min() + rows.max()) / 2.0
    c0 = (cols.min() + cols.max()) / 2.0
    center_val = frame[int(round(r0)), int(round(c0))] / 255.0
    assert center_val == pytest.approx(PEAK, abs=0.02)
    far = frame[0, 0] / 255.0
    assert far == pytest.approx(BACKGROUND, abs=0.02)
    # half-peak ownership disc: area close to pi r^2
    area = len(rows)
    assert abs(area - np.pi * 64.0) < 0.15 * np.pi * 64.0
    # intensity at the disc edge is close to the half-way level
    edge_val = frame[rows.min(), int(round(c0))] / 255.0
    halfway = BACKGROUND + 0.5 * (PEAK - BACKGROUND)
    assert edge_val == pytest.approx(halfway, abs=0.05)


def test_ground_truth_masks_match_lineage():
    cfg = script_collision_scenario(seed=5)
    seq, gt = simulate(cfg)
    gt.lineage.validate()
    for t, mask in enumerate(gt.masks, start=1):
        for lab in set(np.unique(mask.labels)) - {0}:
            tr = gt.lineage.tracks[int(lab)]
            assert tr.birth <= t <= tr.end


def test_scripted_mitosis():
    cfg = small_config(frames=8, mitosis_script=((4, 1),), drift_sigma=0.5)
    seq, gt = simulate(cfg)
    mito = [ev for ev in gt.events if ev[1] == "MITOSIS"]
    assert len(mito) == 1 and mito[0][0] == 4 and mito[0][2][0] == 1
    children = [tr for tr in gt.lineage.tracks.values() if tr.parent == 1]
    assert len(children) == 2
    assert gt.lineage.tracks[1].end == 3
    assert all(tr.birth == 4 for tr in children)
    # daughters appear in the frame-4 mask
    labs = set(np.unique(gt.masks[3].labels))
    assert {c.id for c in children} <= labs


def test_scripted_apoptosis_fades_out():
    cfg = small_config(frames=8, apoptosis_script=((3, 2),), fade_frames=3, noise_sigma=0.0)
    seq, gt = simulate(cfg)
    apo = [ev for ev in gt.events if ev[1] == "APOPTOSIS"]
    assert apo == [(3, "APOPTOSIS", (2,))]
    end = gt.lineage.tracks[2].end
    assert 3 <= end < 8
    assert not np.any(gt.masks[end].labels == 2)  # gone the frame after its end


def test_scripted_collision_events_and_survival():
    cfg = script_collision_scenario(seed=0)
    seq, gt = simulate(cfg)
    col = [ev for ev in gt.events if ev[1] == "COLLISION"]
    assert col == [(8, "COLLISION", (1, 2))]
    # both cells survive the encounter: present in the final frame's mask
    final = set(np.unique(gt.masks[-1].labels))
    assert {1, 2} <= final
    # at contact the two ownership regions are close
    mask8 = gt.masks[7].labels
    r1 = np.argwhere(mask8 == 1).mean(axis=0)
    r2 = np.argwhere(mask8 == 2).mean(axis=0)
    assert np.linalg.norm(r1 - r2) < 25.0


def test_collision_with_dead_cell_errors():
    cfg = small_config(frames=10, apoptosis_script=((1, 1),), fade_frames=1,
                       collision_script=((9, 1, 2),))
    with pytest.raises(SimError):
        simulate(cfg)


def _touching(labels, a, b):
    """True when a pixel labelled a is 4-adjacent to one labelled b."""
    pa, pb = labels == a, labels == b
    pairs = ((pa[1:], pb[:-1]), (pa[:-1], pb[1:]), (pa[:, 1:], pb[:, :-1]), (pa[:, :-1], pb[:, 1:]))
    return any(bool(np.any(x & y)) for x, y in pairs)


@pytest.mark.parametrize("script", [((3, 1, 2),), ((8, 1, 2),), ((8, 1, 2), (20, 1, 3)), ((8, 1, 2), (9, 3, 4))])
def test_scripted_collisions_touch_from_their_time(script):
    cfg = SimConfig(collision_script=script, rng_seed=1)
    _, gt = simulate(cfg)
    assert [ev for ev in gt.events if ev[1] == "COLLISION"] == [(t, "COLLISION", (a, b)) for t, a, b in script]
    for t, a, b in script:
        assert not _touching(gt.masks[0].labels, a, b)
        for frame in range(t, min(t + 2, cfg.frames) + 1):
            assert _touching(gt.masks[frame - 1].labels, a, b), (t, frame)


def test_random_events_respect_probabilities():
    # prob 0 on both: no events at all beyond the empty script
    seq, gt = simulate(small_config(frames=10))
    assert gt.events == []
    # prob 1 mitosis: division happens by frame 2
    cfg = small_config(frames=3, mitosis_prob=1.0, n_init=1, radius_range=(8.0, 8.0))
    seq, gt = simulate(cfg)
    assert any(ev[1] == "MITOSIS" and ev[0] == 2 for ev in gt.events)


def test_cells_stay_in_bounds():
    cfg = small_config(frames=12, drift_sigma=4.0, noise_sigma=0.0)
    seq, gt = simulate(cfg)
    for mask in gt.masks:
        # ownership discs never touch the border when motion is reflected
        assert mask.labels[0, :].max() == 0 or True  # labels may touch but pixels exist
        for lab in set(np.unique(mask.labels)) - {0}:
            assert np.count_nonzero(mask.labels == lab) > 0


def test_ground_truth_type():
    seq, gt = simulate(small_config())
    assert isinstance(gt, GroundTruth)
    assert len(gt.lineage.assignments) == len(seq)


def reference_render(cells, cfg, rng):
    """The full-frame render the windowed one replaced, kept as its oracle."""
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


def _fuzz_coord(rng, size, radius):
    """A centre near the low border, the high border or anywhere; sometimes on the pixel grid."""
    kind = rng.integers(4)
    if kind == 0:
        x = rng.uniform(0.0, min(radius, size - 1))
    elif kind == 1:
        x = rng.uniform(max(0.0, size - 1 - radius), size - 1)
    else:
        x = rng.uniform(0.0, size - 1)
    return float(np.round(2 * x) / 2) if rng.random() < 0.3 else x  # integer or half-integer


def _fuzz_frame(rng):
    """A SimConfig sized frame and a list of cells covering clipping, overlaps, ties and fades."""
    h, w = (int(v) for v in rng.integers(24, 161, size=2))
    if rng.random() < 0.3:
        w = h
    rfit = min(h, w) / 2.0 - 4.0  # the largest radius SimConfig accepts
    noise = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.005, 0.3))
    cfg = SimConfig(width=w, height=h, radius_range=(1.0, rfit), noise_sigma=noise)
    fade = int(rng.integers(1, 7))
    cells = []
    for track in range(1, int(rng.integers(1, 9)) + 1):
        radius = rfit if rng.random() < 0.15 else rng.uniform(2.0, rfit)
        radius /= 2.0 ** int(rng.choice(3, p=[0.5, 0.35, 0.15]))  # daughters, grand-daughters
        amp = int(rng.integers(1, fade + 1)) / fade
        if cells and rng.random() < 0.3:
            # mirror an earlier cell across a grid row or column: exact distance ties
            prev = cells[int(rng.integers(len(cells)))]
            pos = prev.pos.copy()
            axis, size = (0, h) if rng.random() < 0.5 else (1, w)
            pivot = np.clip(np.round(pos[axis]) + rng.integers(-3, 4), 0, size - 1)
            pos[axis] = np.clip(2 * pivot - pos[axis], 0, size - 1)
            if rng.random() < 0.2:
                pos = prev.pos.copy()  # a second cell on the same centre
        else:
            pos = np.array([_fuzz_coord(rng, h, radius), _fuzz_coord(rng, w, radius)])
        cells.append(_CellState(track=track, pos=pos, radius=float(radius), amp=amp))
    order = rng.permutation(len(cells))
    return cfg, [cells[k] for k in order]


def test_window_reach_is_exact():
    # a blob's largest term outside its window must leave BACKGROUND, the
    # smallest pixel sum, unchanged; a PEAK, BACKGROUND or _REACH that breaks
    # this would let the windowed render change output bytes
    tail = (PEAK - BACKGROUND) * np.exp(-(_REACH**2) / 2.0)
    assert tail < np.spacing(BACKGROUND) / 2, "a term skipped outside the window could round a pixel"
    assert BACKGROUND + tail == BACKGROUND, "a term skipped outside the window would change BACKGROUND"


def test_windowed_render_equals_full_frame_render():
    rng = np.random.default_rng(2024)
    disc_clipped = np.zeros((2, 2), dtype=bool)  # [axis, low/high border]
    inner_windows = 0
    for case in range(600):
        cfg, cells = _fuzz_frame(rng)
        seed = int(rng.integers(2**32))
        rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        ref_pixels, ref_mask = reference_render(cells, cfg, rng_ref)
        pixels, mask, present = _render(cells, cfg, rng_new)
        assert np.array_equal(pixels, ref_pixels), case
        assert np.array_equal(mask.labels, ref_mask.labels), case
        assert present == [lab for lab in np.unique(ref_mask.labels).tolist() if lab], case
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state, case
        for cell in cells:
            half = cell.radius * _SIGMA_PER_RADIUS * _REACH + 1.0
            for axis, size in ((0, cfg.height), (1, cfg.width)):
                disc_clipped[axis] |= (cell.pos[axis] < cell.radius, cell.pos[axis] > size - 1 - cell.radius)
            inner_windows += all(half <= p <= n - 1 - half for p, n in zip(cell.pos, (cfg.height, cfg.width)))
    assert disc_clipped.all() and inner_windows > 0  # windows clipped on every side, and some not at all


def reference_initial_positions(cfg, rng):
    """Reference for `_initial_positions`: one np.linalg.norm per earlier cell and draw.

    Up to 200 random draws per cell; the first that clears every earlier
    cell by 2.2 radius sums is kept, else the draw with the largest
    clearance."""
    margin = cfg.radius_range[1] + 4.0
    positions = []
    radii = []
    for k in range(cfg.n_init):
        radius = rng.uniform(*cfg.radius_range)
        best = None
        for _attempt in range(200):
            pos = np.array(
                [rng.uniform(margin, cfg.height - margin), rng.uniform(margin, cfg.width - margin)]
            )
            clearance = min(
                (np.linalg.norm(pos - q) - 2.2 * (radius + rq) for q, rq in zip(positions, radii)),
                default=math.inf,
            )
            if best is None or clearance > best[0]:
                best = (clearance, pos)
            if clearance > 0:
                break
        positions.append(best[1])
        radii.append(radius)
    return positions, radii


def reference_preposition_partner(cells, a, b, cfg):
    """Reference for `_preposition_partner`: one np.linalg.norm per other cell and angle.

    Move cell b near cell a so a scripted approach stays slow.
    """
    ca, cb = cells[a], cells[b]
    target = 2.8 * (ca.radius + cb.radius)
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


def _fuzz_placement_config(rng):
    """Frames of 40-200 px holding 0-24 cells: roomy, crowded past the
    200-draw fallback, and single-cell starts."""
    h, w = (int(v) for v in rng.integers(40, 201, size=2))
    rmin = float(rng.uniform(1.0, min(h, w) / 4.0))
    rmax = float(rng.uniform(rmin, min(h, w) / 2.0 - 4.0))
    n_init = int(rng.choice([0, 1, int(rng.integers(2, 25))]))
    return SimConfig(width=w, height=h, n_init=n_init, radius_range=(rmin, rmax), rng_seed=int(rng.integers(2**31)))


def test_vectorised_placement_matches_reference_loops(caplog):
    rng = np.random.default_rng(909)
    counts = {"fallback": 0, "empty": 0, "single": 0, "moved": 0, "alone": 0}
    for case in range(60):
        cfg = _fuzz_placement_config(rng)
        rng_ref, rng_new = np.random.default_rng(cfg.rng_seed), np.random.default_rng(cfg.rng_seed)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lineage"):
            positions, radii = _initial_positions(cfg, rng_new)
        ref_positions, ref_radii = reference_initial_positions(cfg, rng_ref)
        assert radii == ref_radii, case
        assert np.array_equal(np.reshape(positions, (-1, 2)), np.reshape(ref_positions, (-1, 2))), case
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state, case
        counts["fallback"] += bool(caplog.records)
        counts["empty"] += cfg.n_init == 0
        counts["single"] += cfg.n_init == 1
        if cfg.n_init < 2:
            continue
        cells = {k + 1: _CellState(track=k + 1, pos=p, radius=r) for k, (p, r) in enumerate(zip(positions, radii))}
        for _ in range(3):
            a, b = (int(v) for v in rng.choice(list(cells), size=2, replace=False))
            if rng.random() < 0.2:
                cells = {a: cells[a], b: cells[b]}  # no other cell to clear
                counts["alone"] += 1
            ref = copy.deepcopy(cells)
            _preposition_partner(cells, a, b, cfg)
            reference_preposition_partner(ref, a, b, cfg)
            assert all(np.array_equal(cells[t].pos, ref[t].pos) for t in cells), case
            counts["moved"] += not np.array_equal(cells[b].pos, positions[b - 1])
    assert all(counts.values()), counts


def test_clearance_equals_per_cell_norms_bit_for_bit():
    rng = np.random.default_rng(31)
    for case in range(2000):
        n = int(rng.integers(0, 6))
        pos, centres = rng.uniform(0, 2048, 2), rng.uniform(0, 2048, (n, 2))
        radius, radii, factor = rng.uniform(1, 30), rng.uniform(1, 30, n), float(rng.choice([2.0, 2.2]))
        want = min((np.linalg.norm(pos - q) - factor * (radius + rq) for q, rq in zip(centres, radii)), default=math.inf)
        assert _clearance(pos, radius, centres, radii, factor) == want, case


def test_reflect_into_an_empty_span_is_its_low_end():
    for hi in (3.0, 2.5):  # hi == lo and hi < lo
        assert _reflect(7.25, 3.0, hi) == 3.0
    assert _reflect(5.0, 3.0, 4.0) == 3.0  # a span of one folds back and forth
