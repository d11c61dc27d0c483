import re

import numpy as np
import pytest
from scipy import ndimage
from test_golden import CROWDED_SIM

from celllineage.imagecore import (
    Frame,
    LabelMask,
    cells_from_labelmask,
    connected_components,
    make_cell,
    mask_from_cells,
    otsu_level,
    threshold_segment,
)
from celllineage.jsonconfig import from_doc
from celllineage.simulator import SimConfig, simulate


def flood_fill_labels(mask, connectivity):
    """Independent labeling oracle: BFS flood fill in row-major seed order."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if connectivity == 4:
        nbrs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        nbrs = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    out = np.zeros((h, w), dtype=int)
    k = 0
    for r in range(h):
        for c in range(w):
            if mask[r, c] and out[r, c] == 0:
                k += 1
                stack = [(r, c)]
                out[r, c] = k
                while stack:
                    rr, cc = stack.pop()
                    for dr, dc in nbrs:
                        nr, nc = rr + dr, cc + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and out[nr, nc] == 0:
                            out[nr, nc] = k
                            stack.append((nr, nc))
    return out


def component_labels(mask, connectivity=4, min_size=1):
    """`connected_components`' cells as a label raster, each cell's id its label."""
    return mask_from_cells(connected_components(mask, connectivity, min_size), *np.shape(mask)).labels


def test_empty_mask():
    assert connected_components(np.zeros((5, 5), dtype=bool)) == []


def test_single_block():
    m = np.zeros((7, 7), dtype=bool)
    m[2:5, 2:5] = True
    cells = connected_components(m)
    assert len(cells) == 1
    assert cells[0].centroid == (3.0, 3.0)
    assert cells[0].bbox == (2, 2, 4, 4)


def test_diagonal_connectivity():
    m = np.zeros((4, 4), dtype=bool)
    m[1, 1] = m[2, 2] = True
    cells4 = connected_components(m, connectivity=4)
    cells8 = connected_components(m, connectivity=8)
    assert len(cells4) == 2 and len(cells8) == 1
    # both connectivities agree with the flood-fill oracle
    for conn in (4, 8):
        assert np.array_equal(component_labels(m, conn), flood_fill_labels(m, conn))


@pytest.mark.parametrize("conn", [4, 8])
def test_components_match_flood_fill_oracle(conn):
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = rng.random((rng.integers(1, 25), rng.integers(1, 25))) < 0.45
        cells = connected_components(m, connectivity=conn)
        labels = mask_from_cells(cells, *m.shape).labels
        assert np.array_equal(labels, flood_fill_labels(m, conn))
        # partition invariants: disjoint pixel sets exactly covering foreground
        all_pixels = [p for c in cells for p in c.pixels]
        assert len(all_pixels) == len(set(all_pixels)) == int(m.sum())
        assert all(m[r, c] for r, c in all_pixels)
        # dense 1..K labels, centroid inside bbox
        assert sorted(np.unique(labels[labels > 0])) == list(
            range(1, len(cells) + 1)
        )
        for cell in cells:
            top, left, bottom, right = cell.bbox
            assert top <= cell.centroid[0] <= bottom
            assert left <= cell.centroid[1] <= right
            assert cell == make_cell(cell.id, cell.pixels)


@pytest.mark.parametrize("conn", [4, 8])
def test_components_min_size_matches_oracle(conn):
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rng.random((rng.integers(1, 25), rng.integers(1, 25))) < 0.45
        min_size = int(rng.integers(1, 6))
        # oracle: drop the flood-fill components below min_size, renumber the rest
        kept = np.zeros(m.shape, dtype=bool)
        comp = flood_fill_labels(m, conn)
        for k in range(1, comp.max() + 1):
            if (comp == k).sum() >= min_size:
                kept |= comp == k
        got = component_labels(m, conn, min_size)
        assert np.array_equal(got, flood_fill_labels(kept, conn))


def relabel_scan_order(raw):
    """Remap labels so they run 1..K in order of first pixel in row-major scan."""
    flat = raw.ravel()
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return np.zeros_like(raw, dtype=np.int32)
    first = flat[nz]
    # order of first occurrence of each raw label
    _, idx = np.unique(first, return_index=True)
    order = first[np.sort(idx)]
    remap = np.zeros(raw.max() + 1, dtype=np.int32)
    remap[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    return remap[raw]


@pytest.mark.parametrize("min_size", [1, 5, 50])
def test_components_match_scan_order_relabel_on_crowded_frames(min_size):
    """Full-size thresholded frames, where the size filter leaves gaps in
    ndimage.label's numbering: the running count renumbers them exactly as
    an explicit first-pixel relabel of the filtered labels does."""
    frames, _ = simulate(from_doc(SimConfig, CROWDED_SIM, "sim"))
    dropped = 0
    for frame in frames:
        fg = threshold_segment(frame)
        for conn in (4, 8):
            raw = ndimage.label(fg, structure=ndimage.generate_binary_structure(2, conn // 4))[0]
            small = (np.bincount(raw.ravel()) < min_size)[raw]
            dropped += int(raw[small].any())
            raw[small] = 0
            got = component_labels(fg, conn, min_size)
            assert got.dtype == np.int32 and np.array_equal(got, relabel_scan_order(raw)), (frame.index, conn)
    assert dropped > 0 or min_size == 1


def renumbered_components(mask, connectivity, min_size):
    """The label mask that the threshold path built before it made cells in
    its one labelling pass: ndimage.label, components below `min_size`
    dropped, the rest renumbered 1..K by a running count."""
    labels = ndimage.label(mask, structure=ndimage.generate_binary_structure(2, connectivity // 4))[0]
    keep = np.bincount(labels.ravel()) >= min_size
    keep[0] = False
    return LabelMask(labels=(np.cumsum(keep, dtype=np.int32) * keep)[labels])


@pytest.mark.parametrize("conn", [4, 8])
def test_components_equal_the_cells_of_the_renumbered_mask(conn):
    """The cells of one labelling pass are, id for id and bit for bit, those
    that `cells_from_labelmask` extracts from the renumbered label mask."""
    rng = np.random.default_rng(19)
    dropped = 0
    for case in range(300):
        m = rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 40)))) < rng.uniform(0.1, 0.7)
        min_size = int(rng.integers(1, 7))
        want = cells_from_labelmask(renumbered_components(m, conn, min_size), conn)
        got = connected_components(m, conn, min_size)
        assert got == want, case
        dropped += len(connected_components(m, conn)) > len(got)
    assert dropped > 0


def expected_label_cells(labels, connectivity):
    """Oracle cells of a label mask: flood-fill each label's own mask, then
    number all pieces 1..K by their row-major first pixel."""
    pieces = []
    for lab in np.unique(labels[labels > 0]):
        comp = flood_fill_labels(labels == lab, connectivity)
        for k in range(1, comp.max() + 1):
            pixels = {(int(r), int(c)) for r, c in zip(*np.nonzero(comp == k))}
            pieces.append((min(pixels), pixels))
    pieces.sort(key=lambda p: p[0])
    return [pixels for _, pixels in pieces]


def label_masks(rng):
    yield "all zero", np.zeros((6, 9), dtype=np.int32)
    yield "diagonal pieces", np.array(
        [[7, 0, 0, 7], [0, 7, 7, 0], [0, 7, 0, 65535], [7, 0, 65535, 0]], dtype=np.int32
    )
    for k in range(25):
        h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        values = rng.choice(np.arange(1, 65536), size=int(rng.integers(1, 6)), replace=False)
        labels = rng.choice(values, size=(h, w)).astype(np.int32)
        labels[rng.random((h, w)) < rng.uniform(0.2, 0.8)] = 0
        yield "random %d" % k, labels


@pytest.mark.parametrize("conn", [4, 8])
def test_cells_from_labelmask_match_flood_fill_oracle(conn):
    rng = np.random.default_rng(7)
    for name, labels in label_masks(rng):
        cells = cells_from_labelmask(LabelMask(labels=labels), connectivity=conn)
        want = expected_label_cells(labels, conn)
        assert [c.id for c in cells] == list(range(1, len(want) + 1)), name
        assert [set(c.pixels) for c in cells] == want, name
        for cell, pixels in zip(cells, want):
            rows = [r for r, _ in pixels]
            cols = [c for _, c in pixels]
            assert cell.bbox == (min(rows), min(cols), max(rows), max(cols)), name
            assert cell.centroid == (sum(rows) / len(rows), sum(cols) / len(cols)), name


def test_cells_from_labelmask_split_label():
    labels = np.array([[0, 3, 0, 0], [3, 3, 0, 3], [0, 0, 3, 3]], dtype=np.int32)
    cells4 = cells_from_labelmask(LabelMask(labels=labels), connectivity=4)
    assert [sorted(c.pixels) for c in cells4] == [
        [(0, 1), (1, 0), (1, 1)],
        [(1, 3), (2, 2), (2, 3)],
    ]
    assert cells4[1].centroid == (5 / 3, 8 / 3) and cells4[1].bbox == (1, 2, 2, 3)
    assert len(cells_from_labelmask(LabelMask(labels=labels), connectivity=8)) == 1


def test_centroid_examples():
    assert make_cell(1, [(5, 7)]).centroid == (5.0, 7.0)
    assert make_cell(1, [(0, 0), (0, 2)]).centroid == (0.0, 1.0)
    with pytest.raises(ValueError):
        make_cell(1, [])


def test_centroid_random_blob_oracle():
    rng = np.random.default_rng(0)
    pts = {(int(r), int(c)) for r, c in rng.integers(0, 50, size=(100, 2))}
    got = make_cell(1, pts).centroid
    rows = sum(p[0] for p in pts) / len(pts)
    cols = sum(p[1] for p in pts) / len(pts)
    assert got == pytest.approx((rows, cols), abs=1e-12)


def otsu_oracle(pixels):
    """Exhaustive 256-level between-class variance scan."""
    best, best_t = -1.0, None
    vals = pixels.ravel().astype(float)
    for t in range(256):
        lo, hi = vals[vals <= t], vals[vals > t]
        if len(lo) == 0 or len(hi) == 0:
            continue
        sb = len(lo) * len(hi) * (lo.mean() - hi.mean()) ** 2
        if sb > best:
            best, best_t = sb, t
    return best_t


def test_threshold_otsu_bimodal():
    img = np.full((10, 10), 26, dtype=np.uint8)  # ~0.1
    img[:5] = 230  # ~0.9
    assert np.array_equal(threshold_segment(Frame(1, img)), img == 230)
    assert otsu_level(img) == otsu_oracle(img)


def noise_floor_oracle(pixels):
    """The most common value plus 5 times the RMS distance from it of the
    values at or below it."""
    mode = int(np.bincount(pixels.ravel()).argmax())
    below = pixels[pixels <= mode].astype(float)
    return mode + 5 * np.sqrt(np.mean((below - mode) ** 2))


def test_threshold_otsu_random_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        img = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        assert otsu_level(img) == otsu_oracle(img)
        level = max(otsu_oracle(img), noise_floor_oracle(img))
        assert np.array_equal(threshold_segment(Frame(1, img)), img > level)


def test_threshold_noise_alone_is_background(monkeypatch):
    """A frame of background noise has no foreground, from one histogram."""
    rng = np.random.default_rng(3)
    img = np.clip(np.round(rng.normal(25, 5, size=(128, 128))), 0, 255).astype(np.uint8)
    assert img[img > otsu_oracle(img)].size > img.size // 4  # Otsu alone cuts the noise in two
    calls, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    assert not threshold_segment(Frame(1, img)).any()
    assert len(calls) == 1


def test_threshold_otsu_constant_degenerate():
    img = np.full((5, 5), 99, dtype=np.uint8)
    assert otsu_level(img) is None
    fg = threshold_segment(Frame(1, img))
    assert fg.dtype == bool and fg.shape == img.shape and not fg.any()


def test_cell_invariants():
    cell = make_cell(1, [(2, 2), (2, 3), (3, 2)])
    assert cell.bbox == (2, 2, 3, 3)
    assert cell.centroid == pytest.approx((7 / 3, 7 / 3))
    with pytest.raises(ValueError):
        make_cell(1, [])


def random_pixel_sets(rng):
    yield "single pixel", [(4, 9)]
    yield "lone pixel on a row", [(0, 3), (0, 4), (1, 0), (2, 1), (2, 2)]
    yield "repeats", [(3, 3), (3, 4), (3, 3), (5, 4), (3, 4)]
    yield "negative coordinates", [(-2, -1), (-2, 0), (0, -3)]
    for k in range(30):
        n = int(rng.integers(1, 40))
        pts = rng.integers(-3, int(rng.integers(1, 12)), size=(n, 2))
        yield "random %d" % k, [tuple(p) for p in pts.tolist()]


def test_cell_matches_pixel_set_oracle():
    rng = np.random.default_rng(21)
    cases = list(random_pixel_sets(rng))
    for name, pts in cases:
        pixels = set(pts)
        cell = make_cell(5, pts)
        assert cell.pixels == frozenset(pixels), name
        assert cell.first == min(pixels), name
        rows = [r for r, _ in pixels]
        cols = [c for _, c in pixels]
        assert cell.bbox == (min(rows), min(cols), max(rows), max(cols)), name
        assert cell.mask.shape == (max(rows) - min(rows) + 1, max(cols) - min(cols) + 1), name
        assert cell.mask.sum() == len(pixels), name
        for r in range(min(rows) - 2, max(rows) + 3):
            for c in range(min(cols) - 2, max(cols) + 3):
                assert cell.contains((r, c)) == ((r, c) in pixels), (name, r, c)
        for point in ((-1, 0), (0, -1), (-5, -5), (-(max(rows) + 9), 0)):
            assert cell.contains(point) == (point in pixels), (name, point)
        with pytest.raises(ValueError):
            cell.mask[0, 0] = False
        assert cell == make_cell(5, sorted(pixels)) and hash(cell) == hash(make_cell(5, sorted(pixels)))
        assert cell != make_cell(6, pts)
    # key is equal exactly when the pixel sets are equal
    for name_a, a in cases:
        for name_b, b in cases:
            same = set(a) == set(b)
            assert (make_cell(1, a).key == make_cell(2, b).key) == same, (name_a, name_b)
            assert (make_cell(1, a) == make_cell(1, b)) == same, (name_a, name_b)


def test_mask_from_cells_matches_per_pixel_writes():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h, w = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        cells, expect = [], np.zeros((h, w), dtype=np.int32)
        for cell_id in rng.integers(1, 70000, size=int(rng.integers(0, 6))).tolist():
            pts = [tuple(p) for p in rng.integers(0, (h, w), size=(int(rng.integers(1, 12)), 2)).tolist()]
            cells.append(make_cell(cell_id, pts))
            for r, c in pts:  # a later cell overwrites an earlier one
                expect[r, c] = cell_id
        assert np.array_equal(mask_from_cells(cells, h, w).labels, expect)


def test_normalized_region_matches_slice():
    rng = np.random.default_rng(14)
    frame = Frame(1, rng.integers(0, 256, size=(17, 23), dtype=np.uint8))
    full = frame.normalized()
    assert full.dtype == np.float64 and full.shape == (17, 23)
    assert np.array_equal(full, frame.pixels / 255.0)
    for region in ((0, 0, 16, 22), (3, 4, 3, 4), (2, 5, 11, 22), (16, 0, 16, 22)):
        top, left, bottom, right = region
        part = frame.normalized(region)
        assert np.array_equal(part, full[top : bottom + 1, left : right + 1])


@pytest.mark.parametrize(
    "index, pixels, message",
    [
        (0, np.zeros((2, 2), dtype=np.uint8), "frame index must be >= 1, got 0"),
        (1, np.zeros((2, 2, 1), dtype=np.uint8), "frame pixels must be a 2-D uint8 array"),
        (1, np.zeros((2, 2), dtype=np.uint16), "frame pixels must be a 2-D uint8 array"),
    ],
    ids=["index-0", "3-D", "uint16"],
)
def test_frame_validation(index, pixels, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Frame(index, pixels)


def test_label_mask_validation():
    with pytest.raises(ValueError, match="label mask must be 2-D"):
        LabelMask(np.zeros((2, 2, 2), dtype=np.int32))
    with pytest.raises(ValueError, match="labels must be non-negative"):
        LabelMask(np.array([[0, -1]], dtype=np.int32))


def test_components_reject_bad_connectivity_and_empty_raster():
    with pytest.raises(ValueError, match="connectivity must be 4 or 8"):
        connected_components(np.ones((3, 3), dtype=bool), connectivity=6)
    with pytest.raises(ValueError, match="mask dimensions must be positive"):
        connected_components(np.zeros((0, 4), dtype=bool))
