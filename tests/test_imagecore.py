import numpy as np
import pytest

from celllineage.imagecore import (
    Frame,
    LabelMask,
    cells_from_labelmask,
    centroid,
    connected_components,
    make_cell,
    resize_nearest,
    threshold_segment,
)


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


def test_empty_mask():
    mask, cells = connected_components(np.zeros((5, 5), dtype=bool))
    assert cells == []
    assert mask.labels.max() == 0


def test_single_block():
    m = np.zeros((7, 7), dtype=bool)
    m[2:5, 2:5] = True
    _, cells = connected_components(m)
    assert len(cells) == 1
    assert cells[0].centroid == (3.0, 3.0)
    assert cells[0].bbox == (2, 2, 4, 4)


def test_diagonal_connectivity():
    m = np.zeros((4, 4), dtype=bool)
    m[1, 1] = m[2, 2] = True
    _, cells4 = connected_components(m, connectivity=4)
    _, cells8 = connected_components(m, connectivity=8)
    assert len(cells4) == 2 and len(cells8) == 1
    # both connectivities agree with the flood-fill oracle
    for conn in (4, 8):
        got, _ = connected_components(m, connectivity=conn)
        assert np.array_equal(got.labels, flood_fill_labels(m, conn))


@pytest.mark.parametrize("conn", [4, 8])
def test_components_match_flood_fill_oracle(conn):
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = rng.random((rng.integers(1, 25), rng.integers(1, 25))) < 0.45
        mask, cells = connected_components(m, connectivity=conn)
        assert np.array_equal(mask.labels, flood_fill_labels(m, conn))
        # partition invariants: disjoint pixel sets exactly covering foreground
        all_pixels = [p for c in cells for p in c.pixels]
        assert len(all_pixels) == len(set(all_pixels)) == int(m.sum())
        assert all(m[r, c] for r, c in all_pixels)
        # dense 1..K labels, centroid inside bbox
        assert sorted(np.unique(mask.labels[mask.labels > 0])) == list(
            range(1, len(cells) + 1)
        )
        for cell in cells:
            top, left, bottom, right = cell.bbox
            assert top <= cell.centroid[0] <= bottom
            assert left <= cell.centroid[1] <= right
            assert cell == make_cell(cell.id, cell.pixels)


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
            assert cell.centroid == centroid(pixels), name


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
    assert centroid([(5, 7)]) == (5.0, 7.0)
    assert centroid([(0, 0), (0, 2)]) == (0.0, 1.0)
    with pytest.raises(ValueError):
        centroid([])


def test_centroid_random_blob_oracle():
    rng = np.random.default_rng(0)
    pts = {(int(r), int(c)) for r, c in rng.integers(0, 50, size=(100, 2))}
    got = centroid(pts)
    rows = sum(p[0] for p in pts) / len(pts)
    cols = sum(p[1] for p in pts) / len(pts)
    assert got == pytest.approx((rows, cols), abs=1e-12)


def test_resize_identity():
    rng = np.random.default_rng(2)
    mask = LabelMask(labels=rng.integers(0, 4, size=(6, 8)).astype(np.int32))
    out = resize_nearest(mask, 8, 6)
    assert np.array_equal(out.labels, mask.labels)


def test_resize_constant_upscale():
    mask = LabelMask(labels=np.array([[3]], dtype=np.int32))
    out = resize_nearest(mask, 2, 2)
    assert np.array_equal(out.labels, np.full((2, 2), 3))


def test_resize_checkerboard_matches_mapping_oracle():
    board = np.indices((4, 4)).sum(axis=0) % 2 + 1
    mask = LabelMask(labels=board.astype(np.int32))
    out = resize_nearest(mask, 2, 2)
    # oracle: evaluate src = floor((dst + 0.5) * scale) per pixel
    expect = np.zeros((2, 2), dtype=np.int32)
    for r in range(2):
        for c in range(2):
            expect[r, c] = board[int((r + 0.5) * 2), int((c + 0.5) * 2)]
    assert np.array_equal(out.labels, expect)


def test_resize_commutes_with_label_permutation():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 5, size=(9, 7)).astype(np.int32)
    perm = np.array([0, 3, 1, 4, 2], dtype=np.int32)
    a = resize_nearest(LabelMask(labels=perm[labels]), 4, 5).labels
    b = perm[resize_nearest(LabelMask(labels=labels), 4, 5).labels]
    assert np.array_equal(a, b)


def test_resize_never_grows_label_set():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 6, size=(12, 12)).astype(np.int32)
    out = resize_nearest(LabelMask(labels=labels), 5, 3)
    assert set(np.unique(out.labels)) <= set(np.unique(labels))


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


def test_threshold_fixed():
    frame = Frame(1, np.zeros((4, 4), dtype=np.uint8))
    assert not threshold_segment(frame, "fixed", 0.5).mask.any()
    img = np.zeros((4, 4), dtype=np.uint8)
    img[2, 3] = 255
    res = threshold_segment(Frame(1, img), "fixed", 0.5)
    assert res.mask.sum() == 1 and res.mask[2, 3]


def test_threshold_otsu_bimodal():
    img = np.full((10, 10), 26, dtype=np.uint8)  # ~0.1
    img[:5] = 230  # ~0.9
    res = threshold_segment(Frame(1, img), "otsu")
    assert np.array_equal(res.mask, img == 230)
    assert res.level == otsu_oracle(img)


def test_threshold_otsu_random_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        img = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        res = threshold_segment(Frame(1, img), "otsu")
        assert res.level == otsu_oracle(img)


def test_threshold_otsu_constant_degenerate():
    res = threshold_segment(Frame(1, np.full((5, 5), 99, dtype=np.uint8)), "otsu")
    assert res.degenerate and not res.mask.any()


def test_cell_invariants():
    cell = make_cell(1, [(2, 2), (2, 3), (3, 2)])
    assert cell.bbox == (2, 2, 3, 3)
    assert cell.centroid == pytest.approx((7 / 3, 7 / 3))
    with pytest.raises(ValueError):
        make_cell(1, [])


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
