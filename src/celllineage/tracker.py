"""Where a cell of frame_src lies in frame_dst, via template matching.

The built-in matcher does an exhaustive zero-normalized cross-correlation
search over a fixed-size window; external predictions can be loaded from
text files so a learned tracker can be swapped in without code changes.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import kernels
from .trackfile import INTEGER, records
# the score field: an ASCII decimal, optionally with an exponent; float()
# would also take '+', '_', non-ASCII digits, 'nan' and 'inf'
_DECIMAL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")

TEMPLATE_PAD = 2  # padding around the cell bbox, pixels
MIN_SCORE = 0.2  # below this the prediction is "no match"
SEARCH_SIZE = 150  # default square search window side, pixels


@dataclass(frozen=True)
class TrackerPrediction:
    region: tuple  # inclusive (top, left, bottom, right) in frame_dst
    score: float
    valid: bool


def ncc_score(template, candidate):
    """Zero-normalized cross-correlation of two equal-shape patches: the
    kernel's score of the one placement. Returns a value in [-1, 1]; 0 when
    either patch has zero variance.
    """
    if np.shape(template) != np.shape(candidate):
        raise ValueError("patch shapes differ: %s vs %s" % (np.shape(template), np.shape(candidate)))
    return float(kernels.ncc_map(candidate, template)[0, 0])


def _template_bbox(cell, height, width):
    top, left, bottom, right = cell.bbox
    return (
        max(0, top - TEMPLATE_PAD),
        max(0, left - TEMPLATE_PAD),
        min(height - 1, bottom + TEMPLATE_PAD),
        min(width - 1, right + TEMPLATE_PAD),
    )


def search_box(tb, shape, search_size):
    """Inclusive search window for the template box `tb` in a frame of `shape`.

    The window is the search_size square centered on the template center,
    grown to hold the template box, then clipped to the frame. It therefore
    always holds `tb`, so the placement of a cell that did not move is
    always searched.
    """

    def span(lo_t, hi_t, flen):
        lo = int(round((lo_t + hi_t) / 2.0)) - search_size // 2
        return max(0, min(lo, lo_t)), min(flen - 1, max(lo + search_size - 1, hi_t))

    top, bottom = span(tb[0], tb[2], shape[0])
    left, right = span(tb[1], tb[3], shape[1])
    return top, left, bottom, right


def predict(frame_src, frame_dst, cell, search_size=SEARCH_SIZE):
    """Best placement of the cell's padded template from frame_src in frame_dst.

    The placement is searched in `search_box`'s window. NCC ties break to
    the row-major earliest placement; a zero-variance template scores 0 at
    every placement, so it is invalid and its region is the window's first.
    """
    h, w = frame_src.pixels.shape
    if frame_dst.pixels.shape != (h, w):
        raise ValueError("source and destination frames differ in size")
    tb = _template_bbox(cell, h, w)
    th = tb[2] - tb[0] + 1
    tw = tb[3] - tb[1] + 1
    wtop, wleft, wbottom, wright = search_box(tb, (h, w), search_size)
    window = frame_dst.normalized((wtop, wleft, wbottom, wright))
    r, c, score = kernels.ncc_best(window, frame_src.normalized(tb))
    region = (wtop + r, wleft + c, wtop + r + th - 1, wleft + c + tw - 1)
    return TrackerPrediction(region, score, score >= MIN_SCORE)


@dataclass(frozen=True)
class NCCTracker:
    """Built-in template-matching tracker: `predict` in a search_size window."""

    search_size: int = SEARCH_SIZE

    def __post_init__(self):
        if self.search_size < 1:
            raise ValueError("search_size must be >= 1")

    def predict(self, frame_src, frame_dst, cell):
        return predict(frame_src, frame_dst, cell, self.search_size)

    def reach(self, cell, shape):
        """(box, (height, width)): every region `predict` returns for `cell`
        lies in the inclusive box, the search window, and has the template
        box's shape; the window always holds the template box."""
        tb = _template_bbox(cell, *shape)
        return search_box(tb, shape, self.search_size), (tb[2] - tb[0] + 1, tb[3] - tb[1] + 1)


class ExternalTracker:
    """Predictions preloaded from files, keyed by (source frame, destination
    frame, cell id): a forward-file line for t gives the cell's region in
    frame t + 1, a backward-file line in frame t - 1. Pairs with no line are
    invalid."""

    def __init__(self, forward_path="", backward_path="", *, frame_shape):
        self._preds = {}
        if forward_path:
            self._load(forward_path, 1, frame_shape)
        if backward_path:
            self._load(backward_path, -1, frame_shape)

    def _load(self, path, step, frame_shape):
        with open(path) as f:
            lines = list(records(f))
        first_line = {}  # (t, cell id) -> the line that gave it
        for lineno, parts in lines:
            if len(parts) != 7:
                raise ValueError("%s:%d: expected 7 fields, got %d" % (path, lineno, len(parts)))
            if not all(map(INTEGER.fullmatch, parts[:6])) or not _DECIMAL.fullmatch(parts[6]):
                raise ValueError("%s:%d: non-numeric field" % (path, lineno))
            t, cell_id, top, left, bottom, right = (int(p) for p in parts[:6])
            score = float(parts[6])
            if t < 1:
                raise ValueError("%s:%d: t must be >= 1, got %d" % (path, lineno, t))
            if cell_id < 1:
                raise ValueError("%s:%d: cell id must be >= 1, got %d" % (path, lineno, cell_id))
            if top > bottom or left > right or top < 0 or left < 0:
                raise ValueError("%s:%d: invalid region" % (path, lineno))
            if bottom >= frame_shape[0] or right >= frame_shape[1]:
                raise ValueError("%s:%d: region exceeds frame bounds" % (path, lineno))
            if not -1.0 <= score <= 1.0:
                raise ValueError("%s:%d: score outside [-1, 1]" % (path, lineno))
            if (t, cell_id) in first_line:
                raise ValueError(
                    "%s:%d: t=%d cell %d already given on line %d"
                    % (path, lineno, t, cell_id, first_line[t, cell_id])
                )
            first_line[t, cell_id] = lineno
            self._preds[(t, t + step, cell_id)] = (top, left, bottom, right, score)

    def predict(self, frame_src, frame_dst, cell):
        rec = self._preds.get((frame_src.index, frame_dst.index, cell.id))
        if rec is None:
            return TrackerPrediction(cell.bbox, -1.0, False)
        top, left, bottom, right, score = rec
        return TrackerPrediction((top, left, bottom, right), score, True)

    def reach(self, cell, shape):
        """A loaded region may lie anywhere and fill the whole frame."""
        return (0, 0, shape[0] - 1, shape[1] - 1), tuple(shape)
