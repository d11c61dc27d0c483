"""Seeded random-walker segmentation on the 4-connected pixel lattice.

Pixel label probabilities are discrete harmonic functions: for each seed
label the probability field solves the Dirichlet problem on the graph
Laplacian with boundary value 1 on that label's seeds and 0 on the others.
Used to split under-segmented cell lumps into a required number of parts.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse

from .imagecore import make_cell

CG_TOL = 1e-8  # absolute residual tolerance of each label's solve
CG_ITERS_PER_NODE = 10  # iteration cap: this many per lattice node


class SolverError(RuntimeError):
    pass


class ResegFailure(Exception):
    """Re-segmentation could not produce the requested partition.

    A first-class outcome: the collision loop keeps the lump whole and
    marks it unresolved.
    """


@dataclass(frozen=True)
class RWConfig:
    beta: float = 130.0  # edge-weight sharpness on [0,1] intensities
    epsilon: float = 1e-6  # weight floor, keeps the Laplacian block SPD

    def __post_init__(self):
        if self.beta < 0 or self.epsilon <= 0:
            raise ValueError("invalid random-walker config")


@dataclass(frozen=True)
class LatticeGraph:
    pixels: tuple  # region pixels (row, col), row-major order
    index: dict  # pixel -> node index
    edges: np.ndarray  # (m, 2) node index pairs, i < j
    weights: np.ndarray  # (m,) positive edge weights


@dataclass(frozen=True)
class SeedSet:
    seeds: tuple  # ((row, col), label) pairs, labels 1..n

    @property
    def n_labels(self):
        return max(lab for _, lab in self.seeds)

    def validate(self, region):
        pixels = [p for p, _ in self.seeds]
        if len(set(pixels)) != len(pixels):
            raise ValueError("seed pixels must be distinct")
        labels = sorted({lab for _, lab in self.seeds})
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("seed labels must be 1..n")
        for p in pixels:
            if p not in region:
                raise ValueError("seed %r outside the region" % (p,))


def build_lattice(patch, region, config=RWConfig()):
    """4-neighbor graph over `region` with Gaussian intensity edge weights.

    `patch` holds normalized intensities in [0, 1]; w = exp(-beta (gi-gj)^2)
    + epsilon per edge.
    """
    if not region:
        raise ValueError("empty region")
    patch = np.asarray(patch, dtype=np.float64)
    pixels = tuple(sorted(region))
    rows, cols = np.array(pixels, dtype=np.int64).T
    # node index over the region's box, with a spare row and column of -1
    # so that every node has a down and a right neighbour entry
    top, left = rows[0], cols.min()
    node = np.full((rows[-1] - top + 2, cols.max() - left + 2), -1, dtype=np.int64)
    node[rows - top, cols - left] = np.arange(len(pixels))
    # per node, its down edge and then its right edge, as in row-major order
    nbr = np.column_stack((node[rows - top + 1, cols - left], node[rows - top, cols - left + 1])).ravel()
    src = np.repeat(np.arange(len(pixels)), 2)
    keep = nbr >= 0
    edges = np.column_stack((src[keep], nbr[keep]))
    g = patch[rows, cols]
    weights = np.exp(-config.beta * (g[edges[:, 0]] - g[edges[:, 1]]) ** 2) + config.epsilon
    return LatticeGraph(pixels, dict(zip(pixels, range(len(pixels)))), edges, weights)


def _laplacian(graph):
    n = len(graph.pixels)
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    w = graph.weights
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    data = np.concatenate([-w, -w])
    lap = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    lap = lap + sparse.diags(np.asarray(-lap.sum(axis=1)).ravel())
    return lap.tocsr()


def conjugate_gradient(mat, b, tol, max_iter):
    """CG on an SPD sparse matrix; raises when the residual stays above tol."""
    x = np.zeros_like(b)
    r = b - mat @ x
    p = r.copy()
    rr = float(r @ r)
    if np.linalg.norm(r) <= tol:
        return x
    for _ in range(max_iter):
        ap = mat @ p
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol:
            return x
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise SolverError(
        "conjugate gradient did not reach residual %g within %d iterations "
        "(achieved %g)" % (tol, max_iter, np.linalg.norm(r))
    )


def _components(rc):
    """4-connected component (0-based) of each (row, col) node, and their count."""
    rows, cols = (rc - rc.min(axis=0)).T
    inside = np.zeros((rows.max() + 1, cols.max() + 1), dtype=bool)
    inside[rows, cols] = True
    comp, ncomp = ndimage.label(inside)  # the default structure is the 4-connected cross
    return comp[rows, cols] - 1, ncomp


@dataclass(frozen=True)
class RWResult:
    probabilities: np.ndarray  # (n_pixels, n_labels)
    orphan_components: int  # components without a seed, assigned by distance


def solve_probabilities(graph, seeds):
    """Per-pixel label probabilities of the seeded random walker.

    Labels 1..n-1 are solved by conjugate gradient on the unseeded Laplacian
    block; the last label is the complement, which enforces exact
    normalization. Seedless connected components get the graph-nearest
    seed's label (lattice distance, ties to the lower label) and are counted
    in the result.
    """
    seeds.validate(graph.index)
    n = len(graph.pixels)
    n_labels = seeds.n_labels

    seed_node = np.array([graph.index[p] for p, _ in seeds.seeds], dtype=np.int64)
    seed_lab = np.array([lab for _, lab in seeds.seeds], dtype=np.int64)

    rc = np.array(graph.pixels, dtype=np.int64)
    comp, ncomp = _components(rc)
    seeded = np.zeros(ncomp, dtype=bool)
    seeded[comp[seed_node]] = True

    prob = np.zeros((n, n_labels))
    prob[seed_node, seed_lab - 1] = 1.0

    # orphan components: nearest seed by unrestricted-lattice (Manhattan) distance
    for k in np.flatnonzero(~seeded):
        members = np.flatnonzero(comp == k)
        dist = np.abs(rc[members, None, :] - rc[None, seed_node, :]).sum(axis=2).min(axis=0)
        _, lab = min(zip(dist.tolist(), seed_lab.tolist()))
        prob[members, lab - 1] = 1.0

    solve_idx = np.setdiff1d(np.flatnonzero(seeded[comp]), seed_node)
    if solve_idx.size:
        lap = _laplacian(graph)
        seeded_idx = np.sort(seed_node)
        lap_uu = lap[solve_idx][:, solve_idx].tocsr()
        lap_us = lap[solve_idx][:, seeded_idx].tocsr()
        labels_s = seed_lab[np.argsort(seed_node)]
        for lab in range(1, n_labels):
            rhs = -lap_us @ (labels_s == lab).astype(np.float64)
            x = conjugate_gradient(lap_uu, rhs, CG_TOL, CG_ITERS_PER_NODE * n)
            prob[solve_idx, lab - 1] = x
        prob[solve_idx, n_labels - 1] = 1.0 - prob[solve_idx, : n_labels - 1].sum(axis=1)
    return RWResult(probabilities=prob, orphan_components=int(ncomp - seeded.sum()))


def segment(graph, seeds):
    """Argmax-probability label per pixel; ties and seeds resolve as specified.

    Returns an int array aligned with graph.pixels.
    """
    result = solve_probabilities(graph, seeds)
    # lowest label wins ties; 1e-12 slack absorbs solver round-off
    prob = result.probabilities
    best = prob.max(axis=1, keepdims=True)
    labels = np.argmax(prob >= best - 1e-12, axis=1).astype(np.int64) + 1
    for p, lab in seeds.seeds:
        labels[graph.index[p]] = lab
    return labels


def _snap_to_region(point, region):
    """Nearest region pixel by Euclidean distance, ties row-major."""
    r0, c0 = point
    return min(region, key=lambda p: ((p[0] - r0) ** 2 + (p[1] - c0) ** 2, p))


def reseg_cell(frame, lump, prev_centroids, displacement, config=RWConfig()):
    """Split a lump into one segment per previous-frame centroid.

    Seeds are the previous centroids shifted by `displacement`, rounded and
    snapped into the lump. Raises ResegFailure when two seeds land on the
    same pixel or any segment comes out empty.
    """
    if len(prev_centroids) < 2:
        raise ValueError("re-segmentation needs at least 2 previous centroids")
    dr, dc = displacement
    seeds = []
    for k, (r, c) in enumerate(prev_centroids, start=1):
        p = (int(round(r + dr)), int(round(c + dc)))
        if p not in lump.pixels:
            p = _snap_to_region(p, lump.pixels)
        seeds.append((p, k))
    if len({p for p, _ in seeds}) != len(seeds):
        raise ResegFailure("two seeds snapped to the same lump pixel")

    graph = build_lattice(frame.normalized(), lump.pixels, config)
    labels = segment(graph, SeedSet(tuple(seeds)))
    rc = np.array(graph.pixels)
    cells = []
    for lab in range(1, len(seeds) + 1):
        if not np.any(labels == lab):
            raise ResegFailure("segment %d is empty" % lab)
        cells.append(make_cell(lab, rc[labels == lab]))
    return cells


def probability_heatmaps(graph, result, height, width):
    """8-bit heatmap per label (round(255 p)) for debug dumps."""
    rows, cols = np.array(graph.pixels).T
    maps = []
    for prob in result.probabilities.T:
        img = np.zeros((height, width), dtype=np.uint8)
        img[rows, cols] = np.rint(255.0 * prob)  # half to even, as round()
        maps.append(img)
    return maps
