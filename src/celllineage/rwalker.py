"""Seeded random-walker segmentation on the 4-connected pixel lattice.

Pixel label probabilities are discrete harmonic functions: for each seed
label the probability field solves the Dirichlet problem on the graph
Laplacian with boundary value 1 on that label's seeds and 0 on the others.
Used to split under-segmented cell lumps into a required number of parts.
"""

import ctypes
import functools
import glob
import logging
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import linalg, ndimage

from .imagecore import CROSS, _cell

log = logging.getLogger("lineage")

BETA = 130.0  # edge-weight sharpness on [0,1] intensities
EPSILON = 1e-6  # weight floor, keeps the Laplacian block SPD


class ResegFailure(Exception):
    """Re-segmentation could not produce the requested partition.

    A first-class outcome: the collision loop keeps the lump whole and
    marks it unresolved.
    """


@dataclass(frozen=True)
class LatticeGraph:
    pixels: np.ndarray  # (n, 2) region pixels (row, col) in the patch, row-major order
    node: np.ndarray  # patch-shaped node index of each pixel, -1 outside the region
    edges: np.ndarray  # (m, 2) node index pairs, i < j
    weights: np.ndarray  # (m,) positive edge weights


@dataclass(frozen=True)
class SeedSet:
    seeds: tuple  # ((row, col), label) pairs, labels 1..n

    @property
    def n_labels(self):
        return max(lab for _, lab in self.seeds)

    def validate(self, node):  # a lattice's node raster
        pixels = [p for p, _ in self.seeds]
        if len(set(pixels)) != len(pixels):
            raise ValueError("seed pixels must be distinct")
        labels = sorted({lab for _, lab in self.seeds})
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("seed labels must be 1..n")
        h, w = node.shape
        for r, c in pixels:
            if not (0 <= r < h and 0 <= c < w) or node[r, c] < 0:
                raise ValueError("seed %r outside the region" % ((r, c),))


def build_lattice(patch, inside):
    """4-neighbor graph over the `inside` pixels with Gaussian intensity edge weights.

    `patch` holds normalized intensities in [0, 1], in the shape of `inside`;
    w = exp(-BETA (gi-gj)^2) + EPSILON per edge.
    """
    patch = np.asarray(patch, dtype=np.float64)
    inside = np.asarray(inside, dtype=bool)
    if inside.shape != patch.shape:
        raise ValueError("region shape %s differs from patch shape %s" % (inside.shape, patch.shape))
    if not inside.any():
        raise ValueError("empty region")
    rows, cols = np.nonzero(inside)
    # node index with a spare row and column of -1, so that every node has
    # a down and a right neighbour entry
    node = np.full((inside.shape[0] + 1, inside.shape[1] + 1), -1, dtype=np.int64)
    node[rows, cols] = np.arange(len(rows))
    # per node, its down edge and then its right edge, as in row-major order
    nbr = np.column_stack((node[rows + 1, cols], node[rows, cols + 1])).ravel()
    src = np.repeat(np.arange(len(rows)), 2)
    keep = nbr >= 0
    edges = np.column_stack((src[keep], nbr[keep]))
    g = patch[rows, cols]
    weights = np.exp(-BETA * (g[edges[:, 0]] - g[edges[:, 1]]) ** 2) + EPSILON
    return LatticeGraph(np.column_stack((rows, cols)), node[:-1, :-1], edges, weights)


def _components(node):
    """4-connected component (0-based) of each lattice node, and their count."""
    inside = node >= 0
    comp, ncomp = ndimage.label(inside, structure=CROSS)
    return comp[inside] - 1, ncomp  # row-major, as the nodes


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of scipy's bundled OpenBLAS, or None.

    Looked up once per process, on the first solve, so that importing the
    package loads no library.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    log.debug("banded solves use OpenBLAS's default thread count")
    return None


def _solveh_banded_one_thread(band, rhs):
    """`linalg.solveh_banded` on one OpenBLAS thread; the caller's count comes back after.

    The band and right-hand side are built from finite edge weights, so
    their entries go unchecked.
    """
    api = _openblas_threads()
    if api is None:
        return linalg.solveh_banded(band, rhs, check_finite=False)
    get, set_ = api
    threads = get()
    set_(1)
    try:
        return linalg.solveh_banded(band, rhs, check_finite=False)
    finally:
        set_(threads)


@dataclass(frozen=True)
class RWResult:
    probabilities: np.ndarray  # (n_pixels, n_labels)
    orphan_components: int  # components without a seed, assigned by distance


def solve_probabilities(graph, seeds):
    """Per-pixel label probabilities of the seeded random walker.

    Labels 1..n-1 are solved together, exactly to round-off, by one banded
    Cholesky factorisation of the unseeded Laplacian block; the last label
    is the complement, which enforces exact normalization. The solve runs on
    one BLAS thread: a lump's system has a few hundred to a thousand
    unknowns, and at that size starting and handing work to more threads
    costs more than the factorisation itself. Seedless connected components
    get the graph-nearest seed's label (lattice distance, ties to the lower
    label) and are counted in the result.
    """
    seeds.validate(graph.node)
    rc = graph.pixels
    n = len(rc)
    n_labels = seeds.n_labels

    seed_node = graph.node[tuple(np.array([p for p, _ in seeds.seeds]).T)]
    seed_lab = np.array([lab for _, lab in seeds.seeds], dtype=np.int64)

    comp, ncomp = _components(graph.node)
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

    unknown = seeded[comp]
    unknown[seed_node] = False
    solve_idx = np.flatnonzero(unknown)
    if solve_idx.size:
        # L_uu in symmetric upper band storage; the unknowns keep the
        # row-major node order, so no edge spans more than one box row
        pos = np.full(n, -1)
        pos[solve_idx] = np.arange(solve_idx.size)
        i, j = graph.edges.T
        w = graph.weights
        pi, pj = pos[i], pos[j]
        inner = (pi >= 0) & (pj >= 0)
        half = int((pj - pi)[inner].max(initial=0))
        band = np.zeros((half + 1, solve_idx.size))
        band[half] = (np.bincount(i, w, n) + np.bincount(j, w, n))[solve_idx]
        band[half + pi[inner] - pj[inner], pj[inner]] = -w[inner]
        # -L_us s per label: the weights of the edges from each unknown to that label's seeds
        node_lab = np.zeros(n, dtype=np.int64)
        node_lab[seed_node] = seed_lab
        rhs = np.zeros((solve_idx.size, n_labels))
        for u, s in ((pi, j), (pj, i)):
            hit = (u >= 0) & (node_lab[s] > 0)
            np.add.at(rhs, (u[hit], node_lab[s[hit]] - 1), w[hit])
        prob[solve_idx, : n_labels - 1] = _solveh_banded_one_thread(band, rhs[:, : n_labels - 1])
        prob[solve_idx, n_labels - 1] = 1.0 - prob[solve_idx, : n_labels - 1].sum(axis=1)
    return RWResult(probabilities=prob, orphan_components=int(ncomp - seeded.sum()))


def segment(graph, seeds):
    """Argmax-probability label per pixel, the lowest label winning ties.

    A seed's row is 1 at its own label and 0 elsewhere, so each seed keeps
    its label. Returns an int array aligned with graph.pixels.
    """
    result = solve_probabilities(graph, seeds)
    # 1e-12 slack absorbs solver round-off
    prob = result.probabilities
    best = prob.max(axis=1, keepdims=True)
    return np.argmax(prob >= best - 1e-12, axis=1).astype(np.int64) + 1


def _snap_to_region(point, pixels):
    """Nearest of the (n, 2) row-major `pixels` by Euclidean distance, ties to the first."""
    return tuple(pixels[np.argmin(((pixels - point) ** 2).sum(axis=1))].tolist())


def reseg_cell(frame, lump, prev_centroids, displacement):
    """Split a lump into one segment per previous-frame centroid.

    Seeds are the previous centroids shifted by `displacement`, rounded and
    snapped into the lump. Raises ResegFailure when two seeds land on the
    same pixel or any segment comes out empty.
    """
    if len(prev_centroids) < 2:
        raise ValueError("re-segmentation needs at least 2 previous centroids")
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
    # the lattice's nodes are the lump's pixels in row-major order
    raster = np.zeros(lump.mask.shape, dtype=np.int64)
    raster[lump.mask] = segment(graph, SeedSet(tuple(seeds)))
    cells = []
    for lab, box in enumerate(ndimage.find_objects(raster, max_label=len(seeds)), start=1):
        if box is None:
            raise ResegFailure("segment %d is empty" % lab)
        rows, cols = box
        cells.append(_cell(lab, raster[box] == lab, top + rows.start, left + cols.start))
    return cells
