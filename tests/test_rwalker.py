import dataclasses

import numpy as np
import pytest

from celllineage.imagecore import Frame, make_cell
from celllineage.rwalker import (
    LatticeGraph,
    ResegFailure,
    RWConfig,
    SeedSet,
    SolverError,
    build_lattice,
    conjugate_gradient,
    probability_heatmaps,
    reseg_cell,
    segment,
    solve_probabilities,
)


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
    seed_label = {graph.index[p]: lab for p, lab in seeds.seeds}
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


def random_lattice(rng, max_side=8):
    h = int(rng.integers(2, max_side))
    w = int(rng.integers(2, max_side))
    patch = rng.random((h, w))
    region = {(r, c) for r in range(h) for c in range(w)}
    return patch, region


def test_build_lattice_structure():
    patch = np.zeros((2, 3))
    region = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
    graph = build_lattice(patch, region)
    assert len(graph.pixels) == 6
    assert graph.pixels == tuple(sorted(region))
    assert graph.edges.shape == (7, 2)  # 3 vertical + 4 horizontal
    # uniform intensity: every weight is exp(0) + epsilon
    assert np.allclose(graph.weights, 1.0 + 1e-6)


def test_build_lattice_weight_formula():
    patch = np.array([[0.2, 0.7]])
    graph = build_lattice(patch, {(0, 0), (0, 1)})
    expected = np.exp(-130.0 * 0.25) + 1e-6
    assert graph.weights[0] == pytest.approx(expected, rel=1e-12)


def per_pixel_lattice(patch, region, config=RWConfig()):
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
                weights.append(np.exp(-config.beta * (g1 - g2) ** 2) + config.epsilon)
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
    configs = [RWConfig(), RWConfig(beta=7.5, epsilon=1e-3)]
    for name, region in irregular_regions(rng):
        patch = rng.random((20, 20))
        patch[rng.random((20, 20)) < 0.3] = 0.5  # some equal neighbours: weight 1 + epsilon
        for config in configs:
            pixels, index, edges, weights = per_pixel_lattice(patch, region, config)
            graph = build_lattice(patch, region, config)
            assert graph.pixels == pixels, name
            assert graph.index == index, name
            assert graph.edges.dtype == np.int64 and np.array_equal(graph.edges, edges), name
            assert graph.weights.dtype == np.float64, name
            assert np.array_equal(graph.weights, weights), name  # bit for bit


def test_diagonal_orphans_are_separate_components():
    # a seeded 1x3 strip and two unseeded pixels that touch only at a corner
    region = {(0, 0), (0, 1), (0, 2), (3, 3), (4, 4)}
    graph = build_lattice(np.zeros((5, 5)), region)
    seeds = SeedSet((((0, 0), 1), ((0, 2), 2)))
    result = solve_probabilities(graph, seeds)
    assert result.orphan_components == 2
    # both orphans are nearest to seed (0, 2): Manhattan 4 and 6 against 6 and 8
    for p in ((3, 3), (4, 4)):
        assert result.probabilities[graph.index[p]].tolist() == [0.0, 1.0]


def test_build_lattice_empty_region():
    with pytest.raises(ValueError):
        build_lattice(np.zeros((2, 2)), set())


def test_seedset_validation():
    region = {(0, 0), (0, 1)}
    with pytest.raises(ValueError):
        SeedSet((((0, 0), 1), ((0, 0), 2))).validate(region)
    with pytest.raises(ValueError):
        SeedSet((((0, 0), 1), ((0, 1), 3))).validate(region)
    with pytest.raises(ValueError):
        SeedSet((((5, 5), 1),)).validate(region)


def test_conjugate_gradient_against_numpy():
    from scipy import sparse

    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = rng.random((n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.random(n)
        x = conjugate_gradient(sparse.csr_matrix(spd), b, 1e-10, 10 * n)
        assert np.allclose(x, np.linalg.solve(spd, b), atol=1e-7)


def test_conjugate_gradient_reports_failure():
    from scipy import sparse

    mat = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(SolverError):
        conjugate_gradient(mat, np.array([1.0, 2.0]), 1e-15, 1)


def test_path_graph_probabilities():
    # 1x4 uniform path, seeds at the ends: interpolation is linear
    patch = np.zeros((1, 4))
    region = {(0, c) for c in range(4)}
    graph = build_lattice(patch, region)
    seeds = SeedSet((((0, 0), 1), ((0, 3), 2)))
    result = solve_probabilities(graph, seeds)
    p1 = result.probabilities[:, 0]
    order = [graph.index[(0, c)] for c in range(4)]
    assert np.allclose(p1[order], [1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-8)
    assert result.orphan_components == 0


def test_segment_tie_breaks_to_lower_label():
    patch = np.zeros((1, 3))
    region = {(0, 0), (0, 1), (0, 2)}
    graph = build_lattice(patch, region)
    labels = segment(graph, SeedSet((((0, 0), 1), ((0, 2), 2))))
    assert labels[graph.index[(0, 1)]] == 1


def test_seed_probabilities_pinned():
    rng = np.random.default_rng(1)
    patch, region = random_lattice(rng)
    graph = build_lattice(patch, region)
    pixels = graph.pixels
    seeds = SeedSet(((pixels[0], 1), (pixels[-1], 2)))
    result = solve_probabilities(graph, seeds)
    assert result.probabilities[0].tolist() == [1.0, 0.0]
    assert result.probabilities[-1].tolist() == [0.0, 1.0]


def test_probabilities_match_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        patch, region = random_lattice(rng)
        graph = build_lattice(patch, region)
        graph = dataclasses.replace(graph, weights=rng.uniform(0.1, 1.0, size=len(graph.weights)))
        pixels = list(graph.pixels)
        n_labels = int(rng.integers(2, 4))
        picks = rng.choice(len(pixels), size=n_labels, replace=False)
        seeds = SeedSet(tuple((pixels[p], k + 1) for k, p in enumerate(picks)))
        got = solve_probabilities(graph, seeds).probabilities
        want = dense_dirichlet(graph, seeds)
        assert np.allclose(got, want, atol=1e-6)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)
        assert got.min() >= -1e-6 and got.max() <= 1.0 + 1e-6


def test_harmonicity_at_interior_nodes():
    rng = np.random.default_rng(3)
    patch, region = random_lattice(rng, max_side=7)
    graph = build_lattice(patch, region)
    pixels = list(graph.pixels)
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
    graph = build_lattice(np.zeros((1, 6)), region)
    seeds = SeedSet((((0, 0), 1), ((0, 1), 2)))
    result = solve_probabilities(graph, seeds)
    assert result.orphan_components == 1
    # the orphan strip is nearer seed (0,1): Manhattan 3 vs 4
    for p in ((0, 4), (0, 5)):
        assert result.probabilities[graph.index[p], 1] == 1.0


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


def test_probability_heatmaps():
    graph = build_lattice(np.zeros((1, 3)), {(0, 0), (0, 1), (0, 2)})
    seeds = SeedSet((((0, 0), 1), ((0, 2), 2)))
    result = solve_probabilities(graph, seeds)
    maps = probability_heatmaps(graph, result, 1, 3)
    assert len(maps) == 2
    assert maps[0][0, 0] == 255 and maps[0][0, 2] == 0
    assert maps[0][0, 1] == 128  # round(255 * 0.5)


def test_rwconfig_validation():
    with pytest.raises(ValueError):
        RWConfig(beta=-1.0)
    with pytest.raises(ValueError):
        RWConfig(epsilon=0.0)
    assert [f.name for f in dataclasses.fields(RWConfig)] == ["beta", "epsilon"]
