"""Exhaustive NCC placement search: FFT cross term, summed-area-table sums.

The zero-mean template is correlated with the window by real FFTs, and the
window sums Σv and Σv² of every placement come from one stack of two
summed-area tables (J. P. Lewis, *Fast Normalized Cross-Correlation*, Vision Interface 1995).
"""

import functools

import numpy as np

_VAR_EPS = 1e-12
# FFT round-off breaks exact score plateaus at random; ncc_best treats
# scores this close to the maximum as tied and keeps the row-major first.
_TIE_EPS = 1e-12


@functools.cache
def _fast_len(n):
    """Smallest 5-smooth length >= n; FFTs of other lengths are much slower."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _placement_sums(values, th, tw):
    """Sum over every th x tw placement of each of the last two axes of
    `values`, from a summed-area table: (..., h, w) -> (..., h - th + 1,
    w - tw + 1)."""
    h, w = values.shape[-2:]
    sat = np.zeros(values.shape[:-2] + (h + 1, w + 1))
    np.cumsum(values, axis=-2, out=sat[..., 1:, 1:])
    np.cumsum(sat[..., 1:, 1:], axis=-1, out=sat[..., 1:, 1:])
    return (
        sat[..., th:, tw:]
        - sat[..., : h + 1 - th, tw:]
        - sat[..., th:, : w + 1 - tw]
        + sat[..., : h + 1 - th, : w + 1 - tw]
    )


def _flat_placements(window, th, tw):
    """True where every pixel of the placement has the same value.

    Counted exactly from neighbour differences: the summed-area variance of
    such a patch is round-off, not zero.
    """
    rows = _placement_sums(window[1:, :] != window[:-1, :], th - 1, tw)
    cols = _placement_sums(window[:, 1:] != window[:, :-1], th, tw - 1)
    return (rows == 0) & (cols == 0)


def _spectrum(a, size):
    """rfft2(a, s=size), as rfft2 computes it: the real pass over rows, then
    the complex one over columns."""
    return np.fft.fft(np.fft.rfft(a, n=size[1], axis=1), n=size[0], axis=0)


def _cross_term(v, t0, out_shape):
    """Σ t0·v over every placement, by real FFTs.

    A circular correlation no smaller than the window does not wrap at valid
    placements. The inverse is irfft2's two passes in its order, the complex
    one over columns first, with the real pass run only over the rows that
    hold placements; each row's result is bitwise that of irfft2.
    """
    size = (_fast_len(v.shape[0]), _fast_len(v.shape[1]))
    spectrum = _spectrum(v, size) * np.conj(_spectrum(t0, size))
    rows = np.fft.ifft(spectrum, axis=0)[: out_shape[0]]
    return np.fft.irfft(rows, n=size[1], axis=1)[:, : out_shape[1]]


def ncc_map(window, template):
    """Zero-normalized cross-correlation of `template` at every placement.

    Returns a float64 map of shape (wh - th + 1, ww - tw + 1); placements
    where the candidate patch has (numerically) zero variance score 0.
    """
    window = np.asarray(window, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    th, tw = template.shape
    if th > window.shape[0] or tw > window.shape[1]:
        raise ValueError("template larger than search window")
    n = th * tw
    t0 = template - template.sum() / n
    t_ss = float(np.sum(t0 * t0))
    out_shape = (window.shape[0] - th + 1, window.shape[1] - tw + 1)
    if t_ss <= _VAR_EPS:
        return np.zeros(out_shape)
    # NCC ignores a constant offset; centring keeps s2 - s1^2/n from
    # cancelling on bright, flat patches
    v_vv = np.empty((2,) + window.shape)  # v and v*v, summed in one table
    v, vv = v_vv
    np.subtract(window, window.sum() / window.size, out=v)
    np.multiply(v, v, out=vv)
    # sum(t0) == 0, so the cross term needs no patch-mean subtraction
    cross = _cross_term(v, t0, out_shape)
    s1, s2 = _placement_sums(v_vv, th, tw)
    var = s2 - s1 * s1 / n
    np.clip(var, 0.0, None, out=var)
    # the tables' round-off grows with the window's total; below that bound
    # a variance may belong to a flat patch, so check those exactly
    roundoff = 4 * sum(v.shape) * np.finfo(np.float64).eps * float(vv.sum())
    low = var <= roundoff
    if low.any():
        var[low & _flat_placements(window, th, tw)] = 0.0
    denom = np.sqrt(var * t_ss)
    scores = np.divide(cross, denom, out=np.zeros(out_shape), where=var > _VAR_EPS)
    return np.clip(scores, -1.0, 1.0, out=scores)


def ncc_best(window, template):
    """Best placement (row, col, score); ties go to the row-major earliest.

    Scores within _TIE_EPS of the maximum count as tied.
    """
    scores = ncc_map(window, template)
    idx = int(np.argmax(scores >= scores.max() - _TIE_EPS))
    r, c = divmod(idx, scores.shape[1])
    return r, c, float(scores[r, c])
