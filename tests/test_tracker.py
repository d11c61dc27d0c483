import re

import numpy as np
import pytest

from celllineage import kernels
from celllineage.imagecore import Frame, make_cell
from celllineage.tracker import (
    MIN_SCORE,
    TEMPLATE_PAD,
    ExternalTracker,
    NCCTracker,
    TrackerConfig,
    TrackerPrediction,
    ncc_score,
    predict,
    search_box,
)


def brute_force_ncc(window, template):
    """Placement-by-placement NCC with plain loops, independent of kernels."""
    th, tw = template.shape
    t = template.astype(float)
    t0 = t - t.mean()
    t_ss = (t0 * t0).sum()
    out = np.zeros((window.shape[0] - th + 1, window.shape[1] - tw + 1))
    for r in range(out.shape[0]):
        for c in range(out.shape[1]):
            p = window[r : r + th, c : c + tw].astype(float)
            p0 = p - p.mean()
            denom = np.sqrt((p0 * p0).sum() * t_ss)
            out[r, c] = 0.0 if denom <= 1e-12 else (p0 * t0).sum() / denom
    return out


def blob_frame(index, center, shape=(80, 80), radius=6):
    img = np.zeros(shape)
    rr, cc = np.indices(shape)
    d2 = (rr - center[0]) ** 2 + (cc - center[1]) ** 2
    img += 0.9 * np.exp(-d2 / (2.0 * radius**2))
    return Frame(index, np.round(img * 255).astype(np.uint8))


def blob_cell(frame):
    pts = np.argwhere(frame.pixels > 100)
    return make_cell(1, [tuple(p) for p in pts])


def test_ncc_score_examples():
    rng = np.random.default_rng(0)
    a = rng.random((6, 6))
    assert ncc_score(a, a) == pytest.approx(1.0)
    assert ncc_score(a, 1.0 - a) == pytest.approx(-1.0)
    assert ncc_score(np.full((4, 4), 0.3), a[:4, :4]) == 0.0
    with pytest.raises(ValueError):
        ncc_score(a, a[:3])


def test_ncc_symmetry_and_affine_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.random((5, 7)), rng.random((5, 7))
        assert ncc_score(a, b) == pytest.approx(ncc_score(b, a), abs=1e-12)
        scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-2, 2)
        assert ncc_score(scale * a + shift, b) == pytest.approx(ncc_score(a, b), abs=1e-9)


def oracle_best(window, template):
    """Row-major-first maximum of the brute-force map: (row, col, score)."""
    scores = brute_force_ncc(window, template)
    r, c = np.unravel_index(np.argmax(scores), scores.shape)
    return int(r), int(c), float(scores[r, c])


def assert_kernel_matches_oracle(window, template, atol=1e-12):
    expected = brute_force_ncc(window, template)
    scores = kernels.ncc_map(window, template)
    assert scores.shape == expected.shape
    assert np.allclose(scores, expected, rtol=0.0, atol=atol)
    r, c, score = kernels.ncc_best(window, template)
    er, ec, escore = oracle_best(window, template)
    assert (r, c) == (er, ec)
    assert score == pytest.approx(escore, abs=atol)


def test_kernel_backends_agree():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.random((30, 34))
        t = rng.random((rng.integers(2, 9), rng.integers(2, 9)))
        assert_kernel_matches_oracle(w, t, atol=1e-12)


def test_kernel_constant_window_scores_zero():
    rng = np.random.default_rng(8)
    for shape, tshape in (((23, 19), (5, 6)), ((1, 10), (1, 3)), ((10, 1), (3, 1))):
        t = rng.random(tshape)
        for value in (0.0, 0.3, 1.0, 1e3):
            w = np.full(shape, value)
            scores = kernels.ncc_map(w, t)
            assert scores.shape == (shape[0] - tshape[0] + 1, shape[1] - tshape[1] + 1)
            assert np.all(scores == 0.0)
            assert kernels.ncc_best(w, t) == (0, 0, 0.0)


def test_kernel_flat_patches_score_zero():
    # flat halves of very different level, and a flat block in noise: the
    # summed-area variance of a flat patch is round-off, not zero
    rng = np.random.default_rng(9)
    t = rng.random((9, 9))
    w = np.zeros((150, 150))
    w[:, 75:] = 1.0
    w[60:90, 30:50] = 0.5
    assert_kernel_matches_oracle(w, t)
    scores = kernels.ncc_map(w, t)
    assert np.array_equal(scores == 0.0, brute_force_ncc(w, t) == 0.0)
    w = rng.random((40, 40))
    w[10:25, 12:30] = 0.7
    scores = kernels.ncc_map(w, t)
    assert np.all(scores[10:17, 12:22] == 0.0)
    assert_kernel_matches_oracle(w, t)


def test_kernel_exact_ties_row_major_first():
    rng = np.random.default_rng(10)
    for _ in range(20):
        tile = rng.random((6, 7))
        w = np.tile(tile, (6, 5))  # 36 x 35
        r0, c0 = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        th, tw = int(rng.integers(8, 15)), int(rng.integers(8, 15))
        t = w[r0 : r0 + th, c0 : c0 + tw].copy()
        r, c, score = kernels.ncc_best(w, t)
        assert (r, c) == (r0 % 6, c0 % 7)
        assert score == pytest.approx(1.0, abs=1e-12)
        assert_kernel_matches_oracle(w, t)


def test_kernel_template_fills_window():
    rng = np.random.default_rng(11)
    w = rng.random((9, 13))
    t = rng.random((9, 13))
    scores = kernels.ncc_map(w, t)
    assert scores.shape == (1, 1)
    assert_kernel_matches_oracle(w, t)
    assert kernels.ncc_best(w, w) == (0, 0, pytest.approx(1.0, abs=1e-12))
    assert kernels.ncc_best(np.full((9, 13), 0.2), t) == (0, 0, 0.0)
    with pytest.raises(ValueError):
        kernels.ncc_map(w, rng.random((10, 13)))
    with pytest.raises(ValueError):
        kernels.ncc_map(w, rng.random((9, 14)))


def test_kernel_bright_window_no_cancellation():
    # a large offset on small variations: s2 - s1^2/n of the raw values
    # would lose every digit of the variance
    rng = np.random.default_rng(12)
    for shape, tshape in (((31, 37), (7, 5)), ((40, 40), (12, 12))):
        w = 1e3 + 1e-3 * rng.random(shape)
        t = rng.random(tshape)
        assert_kernel_matches_oracle(w, t)
        r0, c0 = 5, 9
        r, c, score = kernels.ncc_best(w, w[r0 : r0 + tshape[0], c0 : c0 + tshape[1]])
        assert (r, c) == (r0, c0) and score == pytest.approx(1.0, abs=1e-9)


def test_kernel_odd_and_prime_sizes():
    rng = np.random.default_rng(13)
    for shape, tshape in (
        ((29, 29), (1, 3)),
        ((31, 37), (7, 5)),
        ((97, 53), (13, 11)),
        ((61, 17), (17, 1)),
        ((1, 41), (1, 7)),
    ):
        assert_kernel_matches_oracle(rng.random(shape), rng.random(tshape))


def test_kernel_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.random((20, 20))
        t = rng.random((5, 5))
        assert np.allclose(kernels.ncc_map(w, t), brute_force_ncc(w, t), atol=1e-9)
    # ncc_score is the kernel's one placement of two equal-shape patches
    for shape in ((5, 5), (1, 7), (6, 3), (1, 1)):
        a, b = rng.random(shape), rng.random(shape)
        flat, bright = np.full(shape, 0.4), np.full(shape, 0.9)
        for template, candidate in ((a, b), (a, 1.0 - a), (a, 3.0 * a + 1.0), (a, flat), (flat, b), (flat, bright)):
            want = brute_force_ncc(candidate, template)[0, 0]
            assert ncc_score(template, candidate) == pytest.approx(want, abs=1e-9)


def irfft2_cross_term(v, t0, out_shape):
    """The kernel's cross term with the inverse transform done by irfft2
    over the whole padded size, then cropped."""
    size = (kernels._fast_len(v.shape[0]), kernels._fast_len(v.shape[1]))
    spectrum = np.fft.rfft2(v, s=size) * np.conj(np.fft.rfft2(t0, s=size))
    return np.fft.irfft2(spectrum, s=size)[: out_shape[0], : out_shape[1]]


def fuzzed_ncc_cases(seed, n=300):
    """(window, template) pairs on the 8-bit grid: sides from 1 px, flat
    placements in a fifth of the windows, and flat templates, 1x1 ones
    among them."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        wh, ww = (int(v) for v in rng.integers(1, 90, size=2))
        th, tw = int(rng.integers(1, wh + 1)), int(rng.integers(1, ww + 1))
        window = np.round(rng.random((wh, ww)) * 255) / 255.0
        if rng.random() < 0.2:
            window[: wh // 2] = 0.5  # flat placements
        template = np.round(rng.random((th, tw)) * 255) / 255.0
        if rng.random() < 0.1:
            template[:] = template[0, 0]  # zero variance
        cases.append((window, template))
    return cases


def test_two_pass_inverse_keeps_the_map_bitwise(monkeypatch):
    cases = fuzzed_ncc_cases(19)
    got = [kernels.ncc_map(w, t) for w, t in cases]
    calls = []

    def counted(*args):
        calls.append(1)
        return irfft2_cross_term(*args)

    monkeypatch.setattr(kernels, "_cross_term", counted)
    for case, ((w, t), scores) in enumerate(zip(cases, got)):
        assert scores.tobytes() == kernels.ncc_map(w, t).tobytes(), case
    # the patch ran once per case whose template is not flat
    assert len(calls) == sum(np.ptp(t) > 0 for _, t in cases) < len(cases)


def reference_ncc_map(window, template):
    """The kernel as it was before its summed-area tables were stacked: four
    cumsums, irfft2's forward transforms and np.mean, for a bitwise check."""

    def placement_sums(values, th, tw):
        h, w = values.shape
        sat = np.zeros((h + 1, w + 1))
        np.cumsum(values, axis=0, out=sat[1:, 1:])
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        return sat[th:, tw:] - sat[: h + 1 - th, tw:] - sat[th:, : w + 1 - tw] + sat[: h + 1 - th, : w + 1 - tw]

    window = np.asarray(window, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    th, tw = template.shape
    n = th * tw
    t0 = template - template.mean()
    t_ss = float(np.sum(t0 * t0))
    out_shape = (window.shape[0] - th + 1, window.shape[1] - tw + 1)
    if t_ss <= kernels._VAR_EPS:
        return np.zeros(out_shape)
    v = window - window.mean()
    size = (kernels._fast_len(v.shape[0]), kernels._fast_len(v.shape[1]))
    spectrum = np.fft.rfft2(v, s=size) * np.conj(np.fft.rfft2(t0, s=size))
    rows = np.fft.ifft(spectrum, axis=0)[: out_shape[0]]
    cross = np.fft.irfft(rows, n=size[1], axis=1)[:, : out_shape[1]]
    vv = v * v
    s1 = placement_sums(v, th, tw)
    s2 = placement_sums(vv, th, tw)
    var = s2 - s1 * s1 / n
    np.clip(var, 0.0, None, out=var)
    roundoff = 4 * sum(v.shape) * np.finfo(np.float64).eps * float(vv.sum())
    low = var <= roundoff
    if low.any():
        flat_rows = placement_sums(window[1:, :] != window[:-1, :], th - 1, tw)
        flat_cols = placement_sums(window[:, 1:] != window[:, :-1], th, tw - 1)
        var[low & (flat_rows == 0) & (flat_cols == 0)] = 0.0
    denom = np.sqrt(var * t_ss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = cross / denom
    scores[var <= kernels._VAR_EPS] = 0.0
    return np.clip(scores, -1.0, 1.0, out=scores)


def test_kernel_keeps_the_reference_bits():
    cases = fuzzed_ncc_cases(23)
    seen = dict.fromkeys(("flat_placement", "flat_template", "one_px_side", "one_px_template"), 0)
    for case, (w, t) in enumerate(cases):
        got = kernels.ncc_map(w, t)
        assert got.tobytes() == reference_ncc_map(w, t).tobytes(), case
        flat = np.ptp(t) == 0
        seen["flat_template"] += flat
        seen["flat_placement"] += not flat and bool((got == 0).any())
        seen["one_px_side"] += 1 in w.shape
        seen["one_px_template"] += 1 in t.shape
    assert all(seen.values()), seen


def test_predict_stationary():
    f1 = blob_frame(1, (40, 40))
    f2 = blob_frame(2, (40, 40))
    cell = blob_cell(f1)
    pred = predict(f1, f2, cell)
    top, left, bottom, right = cell.bbox
    assert pred.region == (top - 2, left - 2, bottom + 2, right + 2)
    assert pred.score == pytest.approx(1.0, abs=1e-9)
    assert pred.valid


@pytest.mark.parametrize("search_size", [1, 10, 19, 20, 21])
def test_predict_stationary_in_any_window(search_size):
    # a 16x16 cell has a 20 px template with the default pad; a window
    # narrower than that is grown to hold it, so an unmoved cell is found
    # where it was
    img = np.random.default_rng(9).integers(0, 256, size=(80, 80), dtype=np.uint8)
    cell = make_cell(1, [(r, c) for r in range(30, 46) for c in range(30, 46)])
    tb = (28, 28, 47, 47)
    cfg = TrackerConfig(search_size=search_size)
    pred = predict(Frame(1, img), Frame(2, img.copy()), cell, cfg)
    assert pred.region == tb
    assert pred.score == pytest.approx(1.0, abs=1e-9)
    assert pred.valid
    old = offcentre_search_box(tb, img.shape, search_size)
    assert box_inside(tb, old) == (search_size >= 20)
    if search_size >= 20:
        assert search_box(tb, img.shape, search_size) == old


def test_predict_translated_blob_exact_offset():
    rng = np.random.default_rng(4)
    for _ in range(15):
        dr, dc = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        f1 = blob_frame(1, (40, 40))
        f2 = blob_frame(2, (40 + dr, 40 + dc))
        cell = blob_cell(f1)
        pred = predict(f1, f2, cell)
        assert pred.valid
        assert pred.region[0] - (cell.bbox[0] - 2) == dr
        assert pred.region[1] - (cell.bbox[1] - 2) == dc


def test_predict_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    cfg = TrackerConfig(search_size=30)
    for _ in range(5):
        img1 = rng.integers(0, 256, size=(50, 50), dtype=np.uint8)
        img2 = rng.integers(0, 256, size=(50, 50), dtype=np.uint8)
        f1, f2 = Frame(1, img1), Frame(2, img2)
        cell = make_cell(1, [(r, c) for r in range(20, 26) for c in range(22, 27)])
        pred = predict(f1, f2, cell, cfg)
        # oracle: brute-force NCC over the same clipped window
        tb = (cell.bbox[0] - 2, cell.bbox[1] - 2, cell.bbox[2] + 2, cell.bbox[3] + 2)
        template = f1.normalized()[tb[0] : tb[2] + 1, tb[1] : tb[3] + 1]
        cy, cx = (tb[0] + tb[2]) // 2, (tb[1] + tb[3]) // 2
        wtop, wleft = max(0, cy + 1 - 15), max(0, cx + 1 - 15)
        window = f2.normalized()[wtop : wtop + 30, wleft : wleft + 30]
        scores = brute_force_ncc(window, template)
        r, c = np.unravel_index(np.argmax(scores), scores.shape)
        assert pred.region[:2] == (wtop + r, wleft + c)
        assert pred.score == pytest.approx(scores[r, c], abs=1e-9)


def test_predict_out_of_window_invalid():
    f1 = blob_frame(1, (40, 40), shape=(400, 400))
    f2 = blob_frame(2, (340, 40), shape=(400, 400))  # 300 px away
    pred = predict(f1, f2, blob_cell(f1))
    assert not pred.valid


def test_predict_degenerate_template_invalid():
    img = np.full((50, 50), 100, dtype=np.uint8)
    f1, f2 = Frame(1, img), Frame(2, img.copy())
    cell = make_cell(1, [(10, 10), (10, 11)])
    pred = predict(f1, f2, cell)
    assert not pred.valid and pred.score == 0.0


def test_predict_rejects_mismatched_frames():
    rng = np.random.default_rng(42)
    src = Frame(1, rng.integers(0, 256, size=(10, 10), dtype=np.uint8))
    dst = Frame(2, rng.integers(0, 256, size=(5, 5), dtype=np.uint8))
    cell = make_cell(1, [(r, c) for r in range(10) for c in range(10)])
    with pytest.raises(ValueError):
        predict(src, dst, cell)


def test_predict_region_within_bounds():
    rng = np.random.default_rng(6)
    for _ in range(10):
        img1 = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        img2 = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        r0, c0 = int(rng.integers(0, 35)), int(rng.integers(0, 35))
        cell = make_cell(1, [(r0 + dr, c0 + dc) for dr in range(4) for dc in range(4)])
        pred = predict(Frame(1, img1), Frame(2, img2), cell)
        top, left, bottom, right = pred.region
        assert 0 <= top <= bottom < 40 and 0 <= left <= right < 40


def box_inside(inner, outer):
    return outer[0] <= inner[0] and outer[1] <= inner[1] and inner[2] <= outer[2] and inner[3] <= outer[3]


def offcentre_search_box(tb, shape, search_size):
    """The earlier window rule, kept as a reference: the centred window is
    clipped, then a clip narrower than the template is grown back to the
    template's length, which shifts it off the template."""

    def span(lo_t, hi_t, flen):
        tlen = hi_t - lo_t + 1
        lo = int(round((lo_t + hi_t) / 2.0)) - search_size // 2
        hi = min(flen - 1, lo + search_size - 1)
        lo = max(0, lo)
        if hi - lo + 1 < tlen:
            lo = max(0, min(lo, flen - tlen))
            hi = lo + tlen - 1
        return lo, hi

    top, bottom = span(tb[0], tb[2], shape[0])
    left, right = span(tb[1], tb[3], shape[1])
    return top, left, bottom, right


def test_search_box_holds_the_template():
    # the window always holds the template box and lies in the frame; where
    # the off-centre rule's window held the box, the two rules agree
    rng = np.random.default_rng(10)
    seen = dict.fromkeys(("size_1", "tall", "wide", "top", "left", "bottom", "right", "old_missed", "old_held"), 0)
    for case in range(3000):
        h, w = (int(v) for v in rng.integers(1, 90, size=2))
        search_size = 1 if case % 10 == 0 else int(rng.integers(1, 100))
        top, bottom = sorted(int(v) for v in rng.integers(0, h, size=2))
        left, right = sorted(int(v) for v in rng.integers(0, w, size=2))
        if case % 7 == 0:
            top, left = 0, 0
        elif case % 7 == 1:
            bottom, right = h - 1, w - 1
        tb = (top, left, bottom, right)
        window = search_box(tb, (h, w), search_size)
        assert box_inside(tb, window), (case, tb, (h, w), search_size, window)
        assert box_inside(window, (0, 0, h - 1, w - 1)), (case, tb, (h, w), search_size, window)
        old = offcentre_search_box(tb, (h, w), search_size)
        if box_inside(tb, old):
            assert window == old, (case, tb, (h, w), search_size, window, old)
        seen["size_1"] += search_size == 1
        seen["tall"] += bottom - top + 1 > search_size
        seen["wide"] += right - left + 1 > search_size
        seen["top"] += top == 0
        seen["left"] += left == 0
        seen["bottom"] += bottom == h - 1
        seen["right"] += right == w - 1
        seen["old_missed"] += not box_inside(tb, old)
        seen["old_held"] += box_inside(tb, old)
    assert all(seen.values()), seen


def test_predict_region_lies_in_reach():
    # the linker skips a backward search whose reach holds under two previous
    # centroids; that is exact only if no region ever leaves the reach
    rng = np.random.default_rng(8)
    seen = dict.fromkeys(("top", "left", "bottom", "right", "wide", "small_window", "flat"), 0)
    for case in range(500):
        h, w = (int(v) for v in rng.integers(4, 48, size=2))
        cfg = TrackerConfig(search_size=int(rng.integers(1, 60)))
        tracker = NCCTracker(cfg)
        ch, cw = int(rng.integers(1, h // 2 + 2)), int(rng.integers(1, w // 2 + 2))
        ch, cw = min(ch, h), min(cw, w)
        top, left = int(rng.integers(0, h - ch + 1)), int(rng.integers(0, w - cw + 1))
        cell = make_cell(1, [(top + r, left + c) for r in range(ch) for c in range(cw)])
        flat = rng.random() < 0.2
        src = np.full((h, w), 90, dtype=np.uint8) if flat else rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        dst = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        pred = tracker.predict(Frame(1, src), Frame(2, dst), cell)
        reach, size = tracker.reach(cell, (h, w))
        assert box_inside(pred.region, reach), case
        assert box_inside(reach, (0, 0, h - 1, w - 1)), case

        pad = TEMPLATE_PAD
        tb = (max(0, top - pad), max(0, left - pad), min(h - 1, top + ch - 1 + pad), min(w - 1, left + cw - 1 + pad))
        window = search_box(tb, (h, w), cfg.search_size)
        th, tw = tb[2] - tb[0] + 1, tb[3] - tb[1] + 1
        assert box_inside(tb, window), case
        assert reach == window, case
        assert size == (th, tw) == (pred.region[2] - pred.region[0] + 1, pred.region[3] - pred.region[1] + 1), case
        assert box_inside(pred.region, window), case
        half = cfg.search_size // 2
        seen["top"] += round((tb[0] + tb[2]) / 2) - half < 0
        seen["left"] += round((tb[1] + tb[3]) / 2) - half < 0
        seen["bottom"] += round((tb[0] + tb[2]) / 2) - half + cfg.search_size > h
        seen["right"] += round((tb[1] + tb[3]) / 2) - half + cfg.search_size > w
        seen["wide"] += max(th, tw) > cfg.search_size
        seen["small_window"] += min(th, tw) > cfg.search_size
        seen["flat"] += flat and not pred.valid and pred.region == tb
    assert all(seen.values()), seen


def test_external_reach_is_the_whole_frame(tmp_path):
    path = tmp_path / "bwd.txt"
    path.write_text("2 1 0 0 79 79 0.5\n")
    ext = ExternalTracker(backward_path=str(path), frame_shape=(80, 80))
    cell = blob_cell(blob_frame(1, (40, 40)))
    assert ext.reach(cell, (80, 80)) == ((0, 0, 79, 79), (80, 80))
    assert ext.reach(cell, (30, 50)) == ((0, 0, 29, 49), (30, 50))


def test_predict_deterministic():
    rng = np.random.default_rng(7)
    img1 = rng.integers(0, 256, size=(60, 60), dtype=np.uint8)
    img2 = rng.integers(0, 256, size=(60, 60), dtype=np.uint8)
    cell = make_cell(1, [(r, c) for r in range(10, 16) for c in range(10, 16)])
    a = predict(Frame(1, img1), Frame(2, img2), cell)
    b = predict(Frame(1, img1), Frame(2, img2), cell)
    assert a == b


def test_external_tracker(tmp_path):
    path = tmp_path / "fwd.txt"
    path.write_text("1 1 10 12 20 22 0.9\n")
    f1, f2 = blob_frame(1, (40, 40)), blob_frame(2, (40, 40))
    ext = ExternalTracker(forward_path=str(path), frame_shape=(80, 80))
    cell = blob_cell(f1)
    pred = ext.predict(f1, f2, cell)
    assert pred.valid and pred.region == (10, 12, 20, 22) and pred.score == 0.9
    missing = ext.predict(f2, f1, cell)
    assert not missing.valid


def test_external_tracker_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 30 12 20 22 0.9\n")  # top > bottom
    with pytest.raises(ValueError):
        ExternalTracker(forward_path=str(bad))
    bad.write_text("1 1 10 12 20 200 0.9\n")  # exceeds frame
    with pytest.raises(ValueError):
        ExternalTracker(forward_path=str(bad), frame_shape=(80, 80))
    # an integer field is '-'? [0-9]+ and the score an ASCII decimal: int() and
    # float() would take '_', '+' and non-ASCII digits
    for line in (
        "2 x 0 0 5 5 0.9\n",
        "2 1 0 0 5 5 high\n",
        "1_0 1 0 0 5 5 0.9\n",
        "2 +1 0 0 5 5 0.9\n",
        "\u0663 1 0 0 5 5 0.9\n",
        "2 1 0 0 5 5 0.\u0665\n",
        "2 1 0 0 5 5 0.1_0\n",
        "2 1 0 0 5 5 \uff10.5\n",
    ):
        bad.write_text("1 1 10 12 20 22 0.9\n" + line)
        with pytest.raises(ValueError, match=re.escape("%s:2: non-numeric field" % bad)):
            ExternalTracker(forward_path=str(bad))


def test_external_tracker_rejects_bad_cell_ids(tmp_path):
    bad = tmp_path / "bad.txt"
    for cell_id in (0, -3):
        bad.write_text("1 1 10 12 20 22 0.9\n\n1 %d 10 12 20 22 0.9\n" % cell_id)
        with pytest.raises(ValueError, match=re.escape("%s:3: cell id must be >= 1, got %d" % (bad, cell_id))):
            ExternalTracker(forward_path=str(bad))


def test_external_tracker_rejects_a_second_line_for_a_cell(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 10 12 20 22 0.9\n1 2 10 12 20 22 0.9\n2 1 10 12 20 22 0.9\n1 1 10 12 20 22 0.5\n")
    with pytest.raises(ValueError, match=re.escape("%s:4: t=1 cell 1 already given on line 1" % bad)):
        ExternalTracker(forward_path=str(bad))
    # the same (t, cell) in the forward and the backward file is no repeat
    good = tmp_path / "good.txt"
    good.write_text("2 1 10 12 20 22 0.9\n")
    ext = ExternalTracker(forward_path=str(good), backward_path=str(good))
    f1, f2, f3 = (blob_frame(t, (40, 40)) for t in (1, 2, 3))
    cell = blob_cell(f2)
    assert ext.predict(f2, f3, cell).valid and ext.predict(f2, f1, cell).valid


def test_external_lines_are_served_by_their_frame_pair(tmp_path):
    # a forward line for t locates the cell in t+1, a backward line in t-1;
    # the reversed pairs and a pair two frames apart have no line
    fwd, bwd = tmp_path / "fwd.txt", tmp_path / "bwd.txt"
    fwd.write_text("2 1 10 12 20 22 0.9\n")
    bwd.write_text("2 1 30 32 40 42 0.7\n")
    ext = ExternalTracker(forward_path=str(fwd), backward_path=str(bwd))
    f1, f2, f3 = (blob_frame(t, (40, 40)) for t in (1, 2, 3))
    cell = blob_cell(f2)
    assert ext.predict(f2, f3, cell) == TrackerPrediction((10, 12, 20, 22), 0.9, True)
    assert ext.predict(f2, f1, cell) == TrackerPrediction((30, 32, 40, 42), 0.7, True)
    for src, dst in ((f3, f2), (f1, f2), (f1, f3), (f3, f1), (f2, f2)):
        assert not ext.predict(src, dst, cell).valid, (src.index, dst.index)


def test_external_score_never_decides_validity(tmp_path):
    path = tmp_path / "fwd.txt"
    path.write_text("1 1 10 12 20 22 -1.0\n")
    f1, f2 = blob_frame(1, (40, 40)), blob_frame(2, (40, 40))
    pred = ExternalTracker(forward_path=str(path)).predict(f1, f2, blob_cell(f1))
    assert pred.valid and pred.score == -1.0 < MIN_SCORE
