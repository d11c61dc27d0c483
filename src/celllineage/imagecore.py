"""Raster, mask and cell-region data model plus detection and geometry utilities."""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class Frame:
    """A single grayscale frame. `index` is the 1-based time step."""

    index: int
    pixels: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("frame index must be >= 1, got %d" % self.index)
        if self.pixels.ndim != 2 or self.pixels.dtype != np.uint8:
            raise ValueError("frame pixels must be a 2-D uint8 array")
        self.pixels.setflags(write=False)

    def normalized(self, region=None):
        """Intensities rescaled to [0, 1] as float64.

        `region`, an inclusive (top, left, bottom, right) box, limits the
        result to that part of the frame.
        """
        pixels = self.pixels
        if region is not None:
            top, left, bottom, right = region
            pixels = pixels[top : bottom + 1, left : right + 1]
        return pixels.astype(np.float64) / 255.0


@dataclass(frozen=True)
class LabelMask:
    """A label raster: non-negative integers, 0 = background. Masks read from
    a mask file hold uint16 labels, the width the file stores; masks that
    `mask_from_cells` renders hold int32 ones."""

    labels: np.ndarray  # non-negative integers, shape (height, width)

    def __post_init__(self):
        if self.labels.ndim != 2:
            raise ValueError("label mask must be 2-D")
        if self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        self.labels.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Cell:
    """A connected pixel region: identity, centroid, tight bounding box, and
    the region inside the box as a read-only boolean mask of the box's shape."""

    id: int
    centroid: tuple  # (row, col), real-valued
    bbox: tuple  # inclusive (top, left, bottom, right)
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def key(self):
        """Hashable signature of the region: equal exactly for equal pixel sets."""
        return self.bbox, self.mask.tobytes()

    @property
    def first(self):
        """Row-major first pixel of the region."""
        return self.bbox[0], self.bbox[1] + int(np.argmax(self.mask[0]))

    def contains(self, point):
        r, c = point[0] - self.bbox[0], point[1] - self.bbox[1]
        return 0 <= r < self.mask.shape[0] and 0 <= c < self.mask.shape[1] and bool(self.mask[r, c])

    @property
    def pixels(self):
        """The region as a frozenset of (row, col), built on each call."""
        rows, cols = np.nonzero(self.mask)
        return frozenset(zip((rows + self.bbox[0]).tolist(), (cols + self.bbox[1]).tolist()))

    def __eq__(self, other):
        same = isinstance(other, Cell) and (self.id, self.centroid) == (other.id, other.centroid)
        return same and self.key == other.key

    def __hash__(self):
        return hash((self.id, self.centroid, self.key))


def _cell(cell_id, mask, top, left):
    """Cell of a boolean mask whose tight box starts at (top, left)."""
    rows, cols = np.nonzero(mask)
    n = len(rows)
    centroid = ((int(rows.sum()) + n * top) / n, (int(cols.sum()) + n * left) / n)
    bbox = (top, left, top + mask.shape[0] - 1, left + mask.shape[1] - 1)
    return Cell(id=cell_id, centroid=centroid, bbox=bbox, mask=mask)


def make_cell(cell_id, pixels):
    """Cell over (row, col) pixels, given as pairs or as an (n, 2) integer array."""
    rc = np.asarray(pixels if isinstance(pixels, np.ndarray) else list(pixels), dtype=int).reshape(-1, 2)
    if rc.size == 0:
        raise ValueError("cell pixel set may not be empty")
    top, left = rc.min(axis=0).tolist()
    mask = np.zeros(tuple(rc.max(axis=0) - (top, left) + 1), dtype=bool)
    mask[rc[:, 0] - top, rc[:, 1] - left] = True  # a repeated pixel counts once
    return _cell(cell_id, mask, top, left)


def _structure(connectivity):
    """ndimage structuring element: the cross for 4, the full 3x3 for 8."""
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    return ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)


def connected_components(mask, connectivity=4, min_size=1):
    """One Cell per maximal connected foreground region of a binary raster.

    Regions of fewer than `min_size` pixels are dropped. Cell ids run 1..K
    in row-major first-pixel order.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        raise ValueError("mask dimensions must be positive")
    labels = ndimage.label(mask, structure=_structure(connectivity))[0]
    sizes = np.bincount(labels.ravel())
    # ndimage.label numbers components in row-major first-pixel order, so a
    # running count over the kept ones keeps that order
    cells = []
    for lab, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        if sizes[lab] >= min_size:
            cells.append(_cell(len(cells) + 1, labels[rows, cols] == lab, rows.start, cols.start))
    return cells


def cells_from_labelmask(mask, connectivity=4):
    """Extract one Cell per connected region of each nonzero label.

    A label occupying several disconnected regions yields several cells,
    each found in its label's own box. Cell ids are reassigned 1..K in
    row-major first-pixel order.
    """
    labels, struct = mask.labels, _structure(connectivity)
    cells = []
    for lab, box in enumerate(ndimage.find_objects(labels), start=1):
        if box is None:
            continue
        comp = ndimage.label(labels[box] == lab, structure=struct)[0]
        top, left = box[0].start, box[1].start
        for k, (rows, cols) in enumerate(ndimage.find_objects(comp), start=1):
            cells.append(_cell(0, comp[rows, cols] == k, top + rows.start, left + cols.start))
    return in_scan_order(cells)


def in_scan_order(cells):
    """The cells sorted by row-major first pixel, with ids renumbered 1..K."""
    return [replace(c, id=i) for i, c in enumerate(sorted(cells, key=lambda c: c.first), start=1)]


def otsu_level(pixels):
    """8-bit Otsu threshold maximizing between-class variance; None when constant."""
    return _otsu(np.bincount(pixels.ravel(), minlength=256))


def _otsu(hist):
    """`otsu_level` of the frame whose 256-bin histogram is `hist`."""
    hist = hist.astype(np.float64)
    total = hist.sum()
    omega = np.cumsum(hist) / total
    mu = np.cumsum(hist * np.arange(256)) / total
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b = np.nan_to_num(sigma_b, nan=0.0, posinf=0.0)
    if sigma_b.max() <= 0.0:
        return None
    return int(np.argmax(sigma_b))


NOISE_FLOOR_SIGMAS = 5


def _noise_floor(hist):
    """The background's mode plus NOISE_FLOOR_SIGMAS times its spread, the
    RMS distance from the mode of the pixels at or below it, rounded down:
    an integer level cuts integer pixels alike, and an 8-bit frame compares
    with it without a float copy."""
    mode = int(np.argmax(hist))
    below = hist[: mode + 1]
    spread = np.sqrt(np.dot(below, (np.arange(mode + 1) - mode) ** 2) / below.sum())
    return int(mode + NOISE_FLOOR_SIGMAS * spread)


def threshold_segment(frame, level=None):
    """Boolean foreground via Otsu, or via a fixed normalized `level` in [0, 1].

    Foreground is strictly-above-threshold. The Otsu level is raised to the
    noise floor when it lies below it, so a frame of background noise alone
    has no foreground. A constant frame has no Otsu level and yields an
    all-background mask.
    """
    pixels = frame.pixels
    if level is None:
        hist = np.bincount(pixels.ravel(), minlength=256)
        lvl = _otsu(hist)
        if lvl is None:
            return np.zeros_like(pixels, dtype=bool)
        lvl = max(lvl, _noise_floor(hist))
    elif 0.0 <= level <= 1.0:
        lvl = int(round(level * 255))
    else:
        raise ValueError("fixed threshold needs a level in [0, 1]")
    return pixels > lvl


def mask_from_cells(cells, height, width):
    """Render cells into a LabelMask using each cell's id as its label."""
    labels = np.zeros((height, width), dtype=np.int32)
    for cell in cells:
        top, left, bottom, right = cell.bbox
        labels[top : bottom + 1, left : right + 1][cell.mask] = cell.id
    return LabelMask(labels=labels)
