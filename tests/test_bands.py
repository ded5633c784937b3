"""Banded stages against their whole-grid references, at band edges.

``fuse_depth``, ``derive_seg_labels``, ``eval_metrics``, denoise's shell
bound, the PLY writer and ``synth``'s render and PFM writer walk the grid
in row bands from ``bgdepth._row_bands``. Whatever the band height, each must give the bits
of its whole-grid formula: one band per grid, one-row bands, and bands
that leave a short last band, on grids whose height no band divides.
"""

import numpy as np
import pytest

from panoroom import (
    CameraHeights,
    DepthMap,
    GridSpec,
    LayoutMap,
    NoiseSpec,
    bgdepth,
    cli,
    corrupt_depth,
    denoise,
    denoise_depth,
    derive_seg_labels,
    eval_metrics,
    formats,
    fuse_depth,
    gt_background_mask,
    raycast_depth,
    resolve_background_depth,
)
from panoroom.denoise import shell_outside_distance

from conftest import make_scene, pixel_center_dirs
from test_bgdepth import nested_where_background
from test_denoise import disagreeing_rooms, full_grid_denoise, shell_depth
from test_fusion import nested_where_fuse, reference_labels, salted_inputs
from test_metrics import gathered_eval, same_report
from test_ply import reference_ply

HEIGHTS = [33, 257]
# rows per band: the default budget, one row, and five rows, which divide
# neither height and so leave a short last band
BAND_ROWS = [None, 1, 5]


def set_band_rows(monkeypatch, grid, rows):
    if rows is not None:
        monkeypatch.setattr(bgdepth, "_BAND_VALUES", rows * grid.width)


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
def test_row_bands_tile_the_grid(monkeypatch, height, rows):
    grid = GridSpec(width=2 * height, height=height)
    set_band_rows(monkeypatch, grid, rows)
    bands = list(bgdepth._row_bands(grid))
    step = max(1, bgdepth._BAND_VALUES // grid.width)
    assert [b.start for b in bands] == list(range(0, height, step))
    assert all(b.stop - b.start == step for b in bands[:-1])
    assert bands[-1].stop == height and 0 < bands[-1].stop - bands[-1].start <= step


def test_default_bands_leave_a_short_last_band():
    grid = GridSpec(width=514, height=257)
    bands = list(bgdepth._row_bands(grid))
    assert len(bands) > 2
    assert bands[-1].stop - bands[-1].start < bands[0].stop - bands[0].start


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
def test_fuse_and_labels_match_whole_grid(monkeypatch, height, rows):
    for coarse, bg, seg, clean in salted_inputs(height):
        set_band_rows(monkeypatch, coarse.grid, rows)
        got = fuse_depth(coarse, bg, seg).values
        assert got.tobytes() == nested_where_fuse(coarse, bg, seg).tobytes()
        for gt in (coarse, clean):
            got = derive_seg_labels(gt, bg, 0.1).values
            assert got.tobytes() == reference_labels(gt, bg, 0.1).tobytes()


def noisy_scene(grid, seed):
    scene = make_scene(seed, plan="rect" if seed % 2 else "lshape", boxes=(1, 3))
    clean = raycast_depth(scene, grid, include_foreground=True)
    coarse = corrupt_depth(clean, NoiseSpec(salt_frac=0.3, outlier_frac=0.1, seed=seed))
    return scene, clean, coarse


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
def test_eval_matches_gathered_reference(monkeypatch, height, rows):
    grid = GridSpec(width=2 * height, height=height)
    set_band_rows(monkeypatch, grid, rows)
    scene, clean, coarse = noisy_scene(grid, 1)
    mask = gt_background_mask(scene, grid)
    rng = np.random.default_rng(height)
    noise = DepthMap(grid=grid, values=clean.values * rng.uniform(0.5, 1.5, grid.shape))
    cases = [
        (coarse, clean, None),
        (clean, coarse, None),
        (coarse, clean, mask),
        (noise, clean, None),  # sums whose rounding tells any two summation orders apart
    ]
    for pred, gt, m in cases:
        assert same_report(eval_metrics(pred, gt, m), gathered_eval(pred, gt, m))


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
def test_denoise_matches_whole_grid(monkeypatch, height, rows):
    grid = GridSpec(width=2 * height, height=height)
    set_band_rows(monkeypatch, grid, rows)
    scene, _, coarse = noisy_scene(grid, 2)
    bg = raycast_depth(scene, grid, include_foreground=False)
    got = denoise_depth(coarse, bg, scene.room, grid, 1.0).values
    want = full_grid_denoise(coarse, bg, scene.room, grid, 1.0)
    assert got.tobytes() == want.tobytes()


def subsequence_positions(sub, seq):
    """Positions in ``seq`` of the rows of ``sub``, matched bit for bit and
    in order, or None when ``sub`` is not an ordered subset of ``seq``."""
    row = np.dtype((np.void, seq.dtype.itemsize * seq.shape[1]))
    sub = np.ascontiguousarray(sub).view(row).ravel()
    seq = np.ascontiguousarray(seq).view(row).ravel()
    found = []
    k = 0
    for item in sub:
        while k < len(seq) and seq[k] != item:
            k += 1
        if k == len(seq):
            return None
        found.append(k)
        k += 1
    return np.array(found, dtype=np.int64)


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
def test_denoise_candidates_match_whole_grid_bound(monkeypatch, height, rows):
    # the points denoise measures, over all its exact-distance calls, are a
    # row-major subset, with the same bits, of those that the whole-grid
    # bound d <= shell + slack - margin leaves undecided; every candidate it
    # leaves unmeasured is beyond the slack, and the map is the whole-grid
    # rule's
    grid = GridSpec(width=2 * height, height=height)
    set_band_rows(monkeypatch, grid, rows)
    scene, _, coarse = noisy_scene(grid, 2)
    bg = raycast_depth(scene, grid, include_foreground=False)
    measured = []

    def spy(room, points):
        measured.append(points.copy())
        return shell_outside_distance(room, points)

    monkeypatch.setattr(denoise, "shell_outside_distance", spy)
    d = coarse.values
    points = (d[..., None] * pixel_center_dirs(grid)).reshape(-1, 3)
    for room in disagreeing_rooms(scene.room):
        measured.clear()
        got = denoise_depth(coarse, bg, room, grid, 1.0).values
        bound = shell_depth(room, grid) + (1.0 - denoise._MARGIN)
        candidates = points[np.flatnonzero(~(d <= bound))]
        seen = np.concatenate(measured)
        at = subsequence_positions(seen, candidates)
        assert at is not None
        unmeasured = np.delete(candidates, at, axis=0)
        assert np.all(shell_outside_distance(room, unmeasured) > 1.0)
        assert got.tobytes() == full_grid_denoise(coarse, bg, room, grid, 1.0).tobytes()


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
def test_point_cloud_matches_whole_grid(monkeypatch, tmp_path, height, rows):
    grid = GridSpec(width=2 * height, height=height)
    set_band_rows(monkeypatch, grid, rows)
    _, _, coarse = noisy_scene(grid, 3)
    path = tmp_path / "cloud.ply"
    formats.write_ply_pointcloud(coarse.values, str(path))
    assert path.read_bytes() == reference_ply(coarse.values, grid)


@pytest.mark.parametrize("height", HEIGHTS)
def test_background_matches_nested_where_at_boundary_rows(height):
    # resolve_background_depth masks only the rows that a boundary crosses:
    # boundaries on pixel centres, flat ones, ones beside the horizon and
    # ragged ones set those row ranges
    grid = GridSpec(width=2 * height, height=height)
    rng = np.random.default_rng(height)
    w, half = grid.width, height / 2
    top = np.arange(int(np.ceil(half))) + 0.5
    top = top[(top > 0) & (top < half)]
    bottom = height - top
    layouts = [
        (rng.choice(top, w), rng.choice(bottom, w)),
        (np.full(w, top[3]), np.full(w, bottom[3])),
        (np.full(w, half - 1e-9), np.full(w, half + 1e-9)),
        (rng.uniform(0.01, half - 0.01, w), rng.uniform(half + 0.01, height - 0.01, w)),
    ]
    for ceil, floor in layouts:
        layout = LayoutMap(ceil_rows=ceil, floor_rows=floor, corner_prob=np.zeros(w))
        for mode in ("exact", "paper-literal"):
            heights = CameraHeights(up=0.9, down=1.6)
            got = resolve_background_depth(layout, heights, grid, mode).values
            want = nested_where_background(layout, heights, grid, mode)
            assert got.tobytes() == want.tobytes(), mode


def synth_maps(tmp_path, name, height):
    """The maps of two scenes: a few boxes, and 40 boxes whose footprints
    overlap inside a band and cross band edges."""
    maps = {}
    for boxes in ("2", "4"), ("40", "40"):
        out = tmp_path / name / boxes[0]
        argv = ["synth", "--seed", "12", "--count", "1", "--plan", "lshape", "--out-dir", str(out),
                "--height", str(height), "--boxes", *boxes]
        assert cli.main(argv) == 0
        for n in ("gt.pfm", "bg_gt.pfm", "segmask.pfm"):
            maps[boxes, n] = (out / "scene_000" / n).read_bytes()
    return maps


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("rows", BAND_ROWS)
@pytest.mark.parametrize("chunk_rows", [1, 7], ids=["chunk1", "chunk7"])
def test_synth_maps_match_one_band_and_one_chunk(monkeypatch, tmp_path, height, rows, chunk_rows):
    """The render's bands and the PFM writer's chunks, each of any height,
    give the bytes of one band and one chunk over the whole grid."""
    grid = GridSpec(width=2 * height, height=height)
    default = bgdepth._BAND_VALUES
    monkeypatch.setattr(bgdepth, "_BAND_VALUES", height * grid.width)
    monkeypatch.setattr(formats, "PFM_CHUNK_BYTES", height * grid.width * 4)
    want = synth_maps(tmp_path, "whole", height)
    monkeypatch.setattr(bgdepth, "_BAND_VALUES", default)
    set_band_rows(monkeypatch, grid, rows)
    monkeypatch.setattr(formats, "PFM_CHUNK_BYTES", chunk_rows * grid.width * 4)
    assert synth_maps(tmp_path, "banded", height) == want

