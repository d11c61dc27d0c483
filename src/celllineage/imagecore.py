"""Raster, mask and cell-region data model plus detection and geometry utilities."""

from dataclasses import dataclass, field

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

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

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
class Sequence:
    frames: tuple

    def __post_init__(self):
        for t, frame in enumerate(self.frames, start=1):
            if frame.index != t:
                raise ValueError("frame indices must be 1..T consecutive")
            if frame.pixels.shape != self.frames[0].pixels.shape:
                raise ValueError("all frames must share dimensions")

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, t):
        """Frame at 1-based time step t."""
        if not 1 <= t <= len(self.frames):
            raise IndexError("frame index %d out of range 1..%d" % (t, len(self.frames)))
        return self.frames[t - 1]


@dataclass(frozen=True)
class LabelMask:
    labels: np.ndarray  # non-negative int32, 0 = background

    def __post_init__(self):
        if self.labels.ndim != 2:
            raise ValueError("label mask must be 2-D")
        if self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        self.labels.setflags(write=False)

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]


@dataclass(frozen=True)
class Cell:
    """A connected pixel region with identity, centroid and tight bounding box."""

    id: int
    pixels: frozenset = field(repr=False)  # of (row, col)
    centroid: tuple  # (row, col), real-valued
    bbox: tuple  # inclusive (top, left, bottom, right)

    @property
    def size(self):
        return len(self.pixels)


def centroid(pixels):
    """Arithmetic mean (row, col) of a non-empty pixel collection."""
    if len(pixels) == 0:
        raise ValueError("centroid of empty pixel set")
    rows = [p[0] for p in pixels]
    cols = [p[1] for p in pixels]
    return (sum(rows) / len(rows), sum(cols) / len(cols))


def make_cell(cell_id, pixels):
    pixels = frozenset((int(r), int(c)) for r, c in pixels)
    if not pixels:
        raise ValueError("cell pixel set may not be empty")
    rows = [p[0] for p in pixels]
    cols = [p[1] for p in pixels]
    bbox = (min(rows), min(cols), max(rows), max(cols))
    return Cell(id=cell_id, pixels=pixels, centroid=centroid(pixels), bbox=bbox)


_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)


def _relabel_scan_order(raw):
    """Remap labels so they run 1..K in order of first pixel in row-major scan."""
    flat = raw.ravel()
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return np.zeros_like(raw, dtype=np.int32), 0
    first = flat[nz]
    # order of first occurrence of each raw label
    _, idx = np.unique(first, return_index=True)
    order = first[np.sort(idx)]
    remap = np.zeros(raw.max() + 1, dtype=np.int32)
    remap[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    return remap[raw], len(order)


def connected_components(mask, connectivity=4):
    """Label maximal connected foreground regions of a binary raster.

    Returns (LabelMask, [Cell]); labels are 1..K in row-major first-pixel
    order and each Cell carries its centroid and tight bbox.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        raise ValueError("mask dimensions must be positive")
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    struct = _STRUCT4 if connectivity == 4 else _STRUCT8
    raw, _ = ndimage.label(mask, structure=struct)
    labels, k = _relabel_scan_order(raw)
    cells = []
    for lab in range(1, k + 1):
        rows, cols = np.nonzero(labels == lab)
        cells.append(make_cell(lab, zip(rows.tolist(), cols.tolist())))
    return LabelMask(labels=labels), cells


def cells_from_labelmask(mask, connectivity=4):
    """Extract one Cell per connected region of each nonzero label.

    A label occupying several disconnected regions yields several cells.
    Cell ids are reassigned 1..K in row-major first-pixel order.
    """
    labels = mask.labels
    struct = _STRUCT4 if connectivity == 4 else _STRUCT8
    pieces = []
    for lab in np.unique(labels):
        if lab == 0:
            continue
        raw, n = ndimage.label(labels == lab, structure=struct)
        for comp in range(1, n + 1):
            rows, cols = np.nonzero(raw == comp)
            pieces.append((rows[0] * labels.shape[1] + cols[0], rows, cols))
    pieces.sort(key=lambda p: p[0])
    return [
        make_cell(i, zip(rows.tolist(), cols.tolist()))
        for i, (_, rows, cols) in enumerate(pieces, start=1)
    ]


def resize_nearest(mask, target_width, target_height):
    """Nearest-neighbour resize of a label mask via src = floor((dst + 0.5) * scale)."""
    if target_width <= 0 or target_height <= 0:
        raise ValueError("target dimensions must be positive")
    labels = mask.labels
    h, w = labels.shape
    rows = np.minimum((np.arange(target_height) + 0.5) * (h / target_height), h - 1).astype(int)
    cols = np.minimum((np.arange(target_width) + 0.5) * (w / target_width), w - 1).astype(int)
    return LabelMask(labels=labels[np.ix_(rows, cols)].copy())


@dataclass(frozen=True)
class ThresholdResult:
    mask: np.ndarray  # bool foreground raster
    level: int  # 8-bit threshold actually applied
    degenerate: bool  # constant-intensity frame under otsu


def otsu_level(pixels):
    """8-bit Otsu threshold maximizing between-class variance; None when constant."""
    hist = np.bincount(pixels.ravel(), minlength=256).astype(np.float64)
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


def threshold_segment(frame, method="otsu", level=None):
    """Binary foreground via Otsu or a fixed normalized level in [0, 1].

    Foreground is strictly-above-threshold. A constant frame under Otsu
    yields an all-background mask with `degenerate` set.
    """
    pixels = frame.pixels
    if method == "otsu":
        lvl = otsu_level(pixels)
        if lvl is None:
            return ThresholdResult(np.zeros_like(pixels, dtype=bool), 255, True)
        return ThresholdResult(pixels > lvl, lvl, False)
    if method == "fixed":
        if level is None or not 0.0 <= level <= 1.0:
            raise ValueError("fixed threshold needs a level in [0, 1]")
        lvl = int(round(level * 255))
        return ThresholdResult(pixels > lvl, lvl, False)
    raise ValueError("unknown threshold method %r" % method)


def mask_from_cells(cells, height, width):
    """Render cells into a LabelMask using each cell's id as its label."""
    labels = np.zeros((height, width), dtype=np.int32)
    for cell in cells:
        for r, c in cell.pixels:
            labels[r, c] = cell.id
    return LabelMask(labels=labels)
