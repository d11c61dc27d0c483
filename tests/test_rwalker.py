import ctypes
import dataclasses
import glob
import logging
import os

import numpy as np
import pytest
import scipy
from scipy import linalg, ndimage

from celllineage import rwalker
from celllineage.imagecore import Frame, LabelMask, cells_from_labelmask, make_cell
from celllineage.linker import resolve_collisions
from celllineage.rwalker import (
    LatticeGraph,
    ResegFailure,
    SeedSet,
    _snap_to_region,
    build_lattice,
    reseg_cell,
    segment,
    solve_probabilities,
)
from celllineage.tracker import TrackerPrediction


def dense_dirichlet(graph, seeds):
    """Direct dense solve of the same Dirichlet problem, used as an oracle."""
    n = len(graph.pixels)
    n_labels = seeds.n_labels
    lap = np.zeros((n, n))
    for (i, j), w in zip(graph.edges, graph.weights):
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    seed_label = {graph.node[p]: lab for p, lab in seeds.seeds}
    free = [i for i in range(n) if i not in seed_label]
    prob = np.zeros((n, n_labels))
    for i, lab in seed_label.items():
        prob[i, lab - 1] = 1.0
    if free:
        a = lap[np.ix_(free, free)]
        for lab in range(1, n_labels + 1):
            b = np.zeros(len(free))
            for fi, i in enumerate(free):
                for j, jl in seed_label.items():
                    if jl == lab:
                        b[fi] -= lap[i, j]
            prob[free, lab - 1] = np.linalg.solve(a, b)
    return prob


def as_mask(region, shape):
    """Bool raster of `shape`, set at the (row, col) pixels of `region`."""
    inside = np.zeros(shape, dtype=bool)
    for p in region:
        inside[p] = True
    return inside


def pixel_list(graph):
    return [tuple(p) for p in graph.pixels.tolist()]


def random_lattice(rng, max_side=8):
    h = int(rng.integers(2, max_side))
    w = int(rng.integers(2, max_side))
    patch = rng.random((h, w))
    region = np.ones((h, w), dtype=bool)
    return patch, region


def test_build_lattice_structure():
    patch = np.zeros((2, 3))
    region = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
    graph = build_lattice(patch, as_mask(region, patch.shape))
    assert len(graph.pixels) == 6
    assert pixel_list(graph) == sorted(region)
    assert graph.edges.shape == (7, 2)  # 3 vertical + 4 horizontal
    # uniform intensity: every weight is exp(0) + epsilon
    assert np.allclose(graph.weights, 1.0 + 1e-6)


def test_build_lattice_weight_formula():
    patch = np.array([[0.2, 0.7]])
    graph = build_lattice(patch, np.ones((1, 2), dtype=bool))
    expected = np.exp(-130.0 * 0.25) + 1e-6
    assert graph.weights[0] == pytest.approx(expected, rel=1e-12)


def per_pixel_lattice(patch, region):
    """Reference lattice: node by node in row-major order, down edge before right edge."""
    pixels = tuple(sorted(region))
    index = {p: i for i, p in enumerate(pixels)}
    edges = []
    weights = []
    for (r, c), i in index.items():
        for nb in ((r + 1, c), (r, c + 1)):
            j = index.get(nb)
            if j is not None:
                g1 = patch[r, c]
                g2 = patch[nb[0], nb[1]]
                edges.append((min(i, j), max(i, j)))
                weights.append(np.exp(-rwalker.BETA * (g1 - g2) ** 2) + rwalker.EPSILON)
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pixels, index, edges, np.array(weights, dtype=np.float64)


def irregular_regions(rng):
    """Random regions with holes, several pieces and offsets, plus degenerate shapes."""
    yield "single pixel", {(3, 4)}
    yield "single row", {(2, c) for c in range(3, 11)}
    yield "single column", {(r, 5) for r in range(1, 9)}
    yield "diagonal pair", {(2, 2), (3, 3)}
    for k in range(30):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        top, left = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        keep = rng.random((h, w)) < rng.uniform(0.3, 0.9)
        region = {(top + r, left + c) for r, c in zip(*np.nonzero(keep))}
        if region:
            yield "random %d" % k, region


def test_build_lattice_matches_per_pixel_reference():
    rng = np.random.default_rng(11)
    for name, region in irregular_regions(rng):
        patch = rng.random((20, 20))
        patch[rng.random((20, 20)) < 0.3] = 0.5  # some equal neighbours: weight 1 + EPSILON
        pixels, index, edges, weights = per_pixel_lattice(patch, region)
        graph = build_lattice(patch, as_mask(region, patch.shape))
        assert pixel_list(graph) == list(pixels), name
        node = np.full(patch.shape, -1)
        for p, i in index.items():
            node[p] = i
        assert np.array_equal(graph.node, node), name
        assert graph.edges.dtype == np.int64 and np.array_equal(graph.edges, edges), name
        assert graph.weights.dtype == np.float64, name
        assert np.array_equal(graph.weights, weights), name  # bit for bit


def test_diagonal_orphans_are_separate_components():
    # a seeded 1x3 strip and two unseeded pixels that touch only at a corner
    region = {(0, 0), (0, 1), (0, 2), (3, 3), (4, 4)}
    graph = build_lattice(np.zeros((5, 5)), as_mask(region, (5, 5)))
    seeds = SeedSet((((0, 0), 1), ((0, 2), 2)))
    result = solve_probabilities(graph, seeds)
    assert result.orphan_components == 2
    # both orphans are nearest to seed (0, 2): Manhattan 4 and 6 against 6 and 8
    for p in ((3, 3), (4, 4)):
        assert result.probabilities[graph.node[p]].tolist() == [0.0, 1.0]


def test_build_lattice_empty_region():
    with pytest.raises(ValueError):
        build_lattice(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        build_lattice(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))


def test_seedset_validation():
    # the region is the bottom row of a 2x2 patch
    node = build_lattice(np.zeros((2, 2)), as_mask({(1, 0), (1, 1)}, (2, 2))).node
    SeedSet((((1, 0), 1), ((1, 1), 2))).validate(node)
    with pytest.raises(ValueError):
        SeedSet((((1, 0), 1), ((1, 0), 2))).validate(node)
    with pytest.raises(ValueError):
        SeedSet((((1, 0), 1), ((1, 1), 3))).validate(node)
    with pytest.raises(ValueError):
        SeedSet((((5, 5), 1),)).validate(node)
    with pytest.raises(ValueError):
        SeedSet((((0, 0), 1),)).validate(node)  # in the patch, outside the region
    with pytest.raises(ValueError):
        SeedSet((((-1, 0), 1),)).validate(node)  # must not wrap around to (1, 0)


def test_path_graph_probabilities():
    # 1x4 uniform path, seeds at the ends: interpolation is linear
    patch = np.zeros((1, 4))
    graph = build_lattice(patch, np.ones((1, 4), dtype=bool))
    seeds = SeedSet((((0, 0), 1), ((0, 3), 2)))
    result = solve_probabilities(graph, seeds)
    p1 = result.probabilities[:, 0]
    order = [graph.node[(0, c)] for c in range(4)]
    assert np.allclose(p1[order], [1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-8)
    assert result.orphan_components == 0


def test_segment_tie_breaks_to_lower_label():
    patch = np.zeros((1, 3))
    graph = build_lattice(patch, np.ones((1, 3), dtype=bool))
    labels = segment(graph, SeedSet((((0, 0), 1), ((0, 2), 2))))
    assert labels[graph.node[(0, 1)]] == 1


def test_seed_probabilities_pinned():
    rng = np.random.default_rng(1)
    patch, region = random_lattice(rng)
    graph = build_lattice(patch, region)
    pixels = pixel_list(graph)
    seeds = SeedSet(((pixels[0], 1), (pixels[-1], 2)))
    result = solve_probabilities(graph, seeds)
    assert result.probabilities[0].tolist() == [1.0, 0.0]
    assert result.probabilities[-1].tolist() == [0.0, 1.0]


def ragged_lattice(rng, max_side=30):
    """A region with holes, several 4-connected pieces and rows of different widths."""
    h, w = int(rng.integers(2, max_side)), int(rng.integers(2, max_side))
    cols = np.arange(w)
    start = rng.integers(0, w // 2 + 1, size=(h, 1))
    stop = w - rng.integers(0, w // 2 + 1, size=(h, 1))
    region = (rng.random((h, w)) < rng.uniform(0.55, 0.95)) & (cols >= start) & (cols < stop)
    return rng.random((h, w)), region


def seeds_on_every_piece(rng, graph, n_labels):
    """Labels 1..n_labels (fewer on tiny regions) and a seed in every 4-connected piece."""
    inside = graph.node >= 0
    piece, count = ndimage.label(inside)
    piece = piece[inside]  # per node, row-major
    picks = [int(rng.choice(np.flatnonzero(piece == k))) for k in range(1, count + 1)]
    rest = np.setdiff1d(np.arange(len(graph.pixels)), picks)
    picks += rng.choice(rest, size=min(n_labels, rest.size), replace=False).tolist()
    n_labels = min(n_labels, len(picks))
    labels = np.concatenate([np.arange(1, n_labels + 1), rng.integers(1, n_labels + 1, size=len(picks) - n_labels)])
    rng.shuffle(labels)
    pixels = pixel_list(graph)
    return SeedSet(tuple((pixels[p], int(lab)) for p, lab in zip(picks, labels)))


def test_probabilities_match_dense_oracle():
    def check(graph, seeds, atol):
        got = solve_probabilities(graph, seeds).probabilities
        want = dense_dirichlet(graph, seeds)
        assert np.allclose(got, want, atol=atol)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)
        assert got.min() >= -1e-6 and got.max() <= 1.0 + 1e-6

    rng = np.random.default_rng(2)
    for _ in range(25):
        patch, region = random_lattice(rng)
        graph = build_lattice(patch, region)
        graph = dataclasses.replace(graph, weights=rng.uniform(0.1, 1.0, size=len(graph.weights)))
        pixels = pixel_list(graph)
        n_labels = int(rng.integers(2, 4))
        picks = rng.choice(len(pixels), size=n_labels, replace=False)
        seeds = SeedSet(tuple((pixels[p], k + 1) for k, p in enumerate(picks)))
        check(graph, seeds, 1e-6)

    # ragged regions: the unknowns skip row-major indices, so the band's
    # offsets differ from the lattice's; the solve is exact to round-off
    rng = np.random.default_rng(13)
    for _ in range(60):
        patch, region = ragged_lattice(rng)
        if region.sum() < 2:
            continue
        graph = build_lattice(patch, region)
        graph = dataclasses.replace(graph, weights=rng.uniform(0.1, 1.0, size=len(graph.weights)))
        check(graph, seeds_on_every_piece(rng, graph, int(rng.integers(2, 5))), 1e-10)


def test_harmonicity_at_interior_nodes():
    rng = np.random.default_rng(3)
    patch, region = random_lattice(rng, max_side=7)
    graph = build_lattice(patch, region)
    pixels = pixel_list(graph)
    seeds = SeedSet(((pixels[0], 1), (pixels[-1], 2)))
    prob = solve_probabilities(graph, seeds).probabilities
    adj = {i: [] for i in range(len(pixels))}
    for (i, j), w in zip(graph.edges, graph.weights):
        adj[i].append((j, w))
        adj[j].append((i, w))
    seeded = {0, len(pixels) - 1}
    for i in range(len(pixels)):
        if i in seeded:
            continue
        wsum = sum(w for _, w in adj[i])
        for lab in range(2):
            avg = sum(w * prob[j, lab] for j, w in adj[i]) / wsum
            assert abs(prob[i, lab] - avg) < 1e-6


def test_orphan_component_assignment():
    # two disconnected 1x2 strips; only the left one is seeded
    region = {(0, 0), (0, 1), (0, 4), (0, 5)}
    graph = build_lattice(np.zeros((1, 6)), as_mask(region, (1, 6)))
    seeds = SeedSet((((0, 0), 1), ((0, 1), 2)))
    result = solve_probabilities(graph, seeds)
    assert result.orphan_components == 1
    # the orphan strip is nearer seed (0,1): Manhattan 3 vs 4
    for p in ((0, 4), (0, 5)):
        assert result.probabilities[graph.node[p], 1] == 1.0


def test_reseg_cell_splits_two_blobs():
    img = np.full((30, 40), 25, dtype=np.uint8)
    rr, cc = np.indices(img.shape)
    for (r0, c0) in ((15, 12), (15, 26)):
        d2 = (rr - r0) ** 2 + (cc - c0) ** 2
        img = np.maximum(img, np.round(200 * np.exp(-d2 / 50.0)).astype(np.uint8))
    frame = Frame(1, img)
    lump = make_cell(1, [tuple(p) for p in np.argwhere(img > 60)])
    cells = reseg_cell(frame, lump, [(15.0, 12.0), (15.0, 26.0)], (0.0, 0.0))
    assert len(cells) == 2
    assert cells[0].pixels | cells[1].pixels == lump.pixels
    assert not cells[0].pixels & cells[1].pixels
    assert cells[0].centroid[1] < cells[1].centroid[1]


def test_snap_to_region_matches_min_reference():
    rng = np.random.default_rng(12)
    for _ in range(200):
        region = {(int(r), int(c)) for r, c in rng.integers(0, 6, size=(int(rng.integers(1, 12)), 2))}
        point = tuple(int(v) for v in rng.integers(-3, 9, size=2))
        want = min(region, key=lambda p: ((p[0] - point[0]) ** 2 + (p[1] - point[1]) ** 2, p))
        assert _snap_to_region(point, np.array(sorted(region))) == want


def test_reseg_cell_seed_clash():
    img = np.full((10, 10), 128, dtype=np.uint8)
    lump = make_cell(1, [(5, 5)])
    with pytest.raises(ResegFailure):
        reseg_cell(Frame(1, img), lump, [(5.0, 5.0), (5.2, 5.1)], (0.0, 0.0))


def test_reseg_cell_needs_two_centroids():
    img = np.zeros((5, 5), dtype=np.uint8)
    lump = make_cell(1, [(2, 2), (2, 3)])
    with pytest.raises(ValueError):
        reseg_cell(Frame(1, img), lump, [(2.0, 2.0)], (0.0, 0.0))


def test_reseg_pixel_conservation_random():
    rng = np.random.default_rng(4)
    for _ in range(10):
        img = (128 + rng.integers(-20, 21, size=(20, 20))).astype(np.uint8)
        pts = [(r, c) for r in range(4, 16) for c in range(4, 16)]
        lump = make_cell(1, pts)
        cents = [(6.0, 6.0), (13.0, 13.0)]
        cells = reseg_cell(Frame(1, img), lump, cents, (0.0, 0.0))
        union = set()
        for cell in cells:
            assert not union & cell.pixels
            union |= cell.pixels
        assert union == lump.pixels


def make_cell_reseg(frame, lump, prev_centroids, displacement):
    """`reseg_cell` as it was before it cut the pieces from a label raster:
    one `make_cell` over each label's pixel list."""
    top, left = lump.bbox[:2]
    dr, dc = displacement
    seeds = []
    for k, (r, c) in enumerate(prev_centroids, start=1):
        p = (int(round(r + dr)), int(round(c + dc)))
        if not lump.contains(p):
            p = _snap_to_region(p, np.argwhere(lump.mask) + (top, left))
        seeds.append(((p[0] - top, p[1] - left), k))
    if len({p for p, _ in seeds}) != len(seeds):
        raise ResegFailure("two seeds snapped to the same lump pixel")
    graph = build_lattice(frame.normalized(lump.bbox), lump.mask)
    labels = segment(graph, SeedSet(tuple(seeds)))
    rc = graph.pixels + (top, left)
    cells = []
    for lab in range(1, len(seeds) + 1):
        if not np.any(labels == lab):
            raise ResegFailure("segment %d is empty" % lab)
        cells.append(make_cell(lab, rc[labels == lab]))
    return cells


def test_reseg_pieces_equal_make_cell_pieces():
    """The pieces cut from the label raster equal, bit for bit, those that
    `make_cell` builds from each label's pixels; failures fail alike."""
    rng = np.random.default_rng(21)
    split = failed = 0
    for case in range(150):
        h, w = (int(v) for v in rng.integers(8, 30, size=2))
        img = (rng.integers(40, 90, size=(h, w)) + 120 * (rng.random((h, w)) < 0.3)).astype(np.uint8)
        labels = np.zeros((h, w), dtype=np.int32)
        for _ in range(int(rng.integers(1, 5))):
            r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
            labels[r : r + int(rng.integers(2, 12)), c : c + int(rng.integers(2, 12))] = 1
        lump = max(cells_from_labelmask(LabelMask(labels)), key=lambda cell: int(cell.mask.sum()))
        top, left, bottom, right = lump.bbox
        cents = [
            (float(rng.uniform(top - 2, bottom + 2)), float(rng.uniform(left - 2, right + 2)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        shift = tuple(float(v) for v in rng.uniform(-3, 3, size=2))
        args = (Frame(2, img), lump, cents, shift)
        try:
            want = make_cell_reseg(*args)
        except ResegFailure as exc:
            with pytest.raises(ResegFailure, match=str(exc)):
                reseg_cell(*args)
            failed += 1
            continue
        got = reseg_cell(*args)
        assert got == want, case
        split += 1
    assert split > 100 and failed > 0


def three_cell_lump():
    """Lattice and seeds of a lump of three touching blobs, about 1,000 pixels:
    a banded system the size of the collision workload's."""
    rr, cc = np.indices((40, 60))
    centres = ((20, 15), (16, 31), (22, 45))
    patch = 0.1 + sum(0.8 * np.exp(-((rr - r) ** 2 + (cc - c) ** 2) / 60.0) for r, c in centres)
    graph = build_lattice(patch, patch > 0.3)
    return graph, SeedSet(tuple((p, k) for k, p in enumerate(centres, start=1)))


def test_one_thread_solve_matches_default_threads(monkeypatch):
    graph, seeds = three_cell_lump()
    assert len(graph.pixels) > 800
    guarded = solve_probabilities(graph, seeds).probabilities
    # the same solve at OpenBLAS's default thread count
    monkeypatch.setattr(rwalker, "_solveh_banded_one_thread", linalg.solveh_banded)
    direct = solve_probabilities(graph, seeds).probabilities
    assert guarded.tobytes() == direct.tobytes()
    # and with the library not found, which leaves the count alone
    monkeypatch.undo()
    monkeypatch.setattr(rwalker, "_openblas_threads", lambda: None)
    assert solve_probabilities(graph, seeds).probabilities.tobytes() == guarded.tobytes()


def test_solve_restores_the_thread_count(monkeypatch):
    api = rwalker._openblas_threads()
    if api is None:
        pytest.skip("scipy's bundled OpenBLAS is not found")
    get, set_ = api
    graph, seeds = three_cell_lump()
    before = get()
    seen = []
    solve = linalg.solveh_banded

    def spy(*args, **kwargs):
        seen.append(get())
        return solve(*args, **kwargs)

    def fail(*args, **kwargs):
        seen.append(get())
        raise linalg.LinAlgError("not positive definite")

    try:
        set_(2)
        monkeypatch.setattr(rwalker.linalg, "solveh_banded", spy)
        solve_probabilities(graph, seeds)
        assert get() == 2
        monkeypatch.setattr(rwalker.linalg, "solveh_banded", fail)
        with pytest.raises(linalg.LinAlgError):
            solve_probabilities(graph, seeds)
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1]


def test_missing_openblas_is_logged_once(monkeypatch, caplog):
    graph, seeds = three_cell_lump()
    want = solve_probabilities(graph, seeds).probabilities
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    rwalker._openblas_threads.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="lineage"):
            for _ in range(2):
                assert solve_probabilities(graph, seeds).probabilities.tobytes() == want.tobytes()
    finally:
        rwalker._openblas_threads.cache_clear()
    records = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "lineage"]
    assert records == [(logging.DEBUG, "banded solves use OpenBLAS's default thread count")]


def test_empty_segment_is_a_reseg_failure_and_leaves_the_lump_whole(monkeypatch):
    # a solve whose probabilities are NaN rows would give every pixel label 1
    monkeypatch.setattr(rwalker, "segment", lambda graph, seeds: np.ones(len(graph.pixels), dtype=np.int64))
    img = np.full((30, 40), 25, dtype=np.uint8)
    lump = make_cell(1, [(r, c) for r in range(10, 20) for c in range(8, 30)])
    centroids = [(15.0, 12.0), (15.0, 26.0)]
    with pytest.raises(ResegFailure, match="^segment 2 is empty$"):
        reseg_cell(Frame(2, img), lump, centroids, (0.0, 0.0))
    prev = [make_cell(k, [(int(r) + dr, int(c) + dc) for dr in range(2) for dc in range(2)])
            for k, (r, c) in enumerate(centroids, start=1)]
    preds = {1: TrackerPrediction(lump.bbox, 0.9, True)}
    cells, report = resolve_collisions(Frame(2, img), [lump], prev, preds, lambda c, parents: None)
    assert len(cells) == 1 and cells[0].pixels == lump.pixels
    assert report.splits == [] and report.unresolved == [(1, [1, 2], "segment 2 is empty")]


def test_unloadable_openblas_is_skipped_and_logged_once(monkeypatch, caplog):
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs",
                                         "libscipy_openblas*.so")))
    if not libs:
        pytest.skip("scipy's bundled OpenBLAS is not found")
    tried = []

    def cannot_load(path):
        tried.append(path)
        raise OSError("cannot load %s" % path)

    monkeypatch.setattr(ctypes, "CDLL", cannot_load)
    rwalker._openblas_threads.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="lineage"):
            assert rwalker._openblas_threads() is None
            assert rwalker._openblas_threads() is None
    finally:
        rwalker._openblas_threads.cache_clear()
    assert tried == libs
    records = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "lineage"]
    assert records == [(logging.DEBUG, "banded solves use OpenBLAS's default thread count")]
