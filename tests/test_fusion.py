import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panoroom import (
    DepthMap,
    GridSpec,
    NoiseSpec,
    SegMap,
    background_mask,
    corrupt_depth,
    denoise_depth,
    derive_seg_labels,
    fuse_depth,
    gt_background_mask,
    raycast_depth,
)
from panoroom.errors import ShapeMismatchError

from conftest import make_scene

GRID = GridSpec(width=128, height=64)


def depth_of(values):
    return DepthMap(grid=GRID, values=np.asarray(values, dtype=float))


def seg_of(values):
    return SegMap(grid=GRID, values=np.asarray(values, dtype=float))


def test_endpoints():
    rng = np.random.default_rng(0)
    c = depth_of(rng.uniform(0.5, 5, GRID.shape))
    b = depth_of(rng.uniform(0.5, 5, GRID.shape))
    assert np.array_equal(fuse_depth(c, b, seg_of(np.ones(GRID.shape))).values, b.values)
    assert np.array_equal(fuse_depth(c, b, seg_of(np.zeros(GRID.shape))).values, c.values)


def test_quarter_weight():
    c = depth_of(np.full(GRID.shape, 2.0))
    b = depth_of(np.full(GRID.shape, 3.0))
    fused = fuse_depth(c, b, seg_of(np.full(GRID.shape, 0.25)))
    assert np.all(fused.values == pytest.approx(2.25))


def test_invalid_fallbacks():
    c = np.full(GRID.shape, 2.0)
    b = np.full(GRID.shape, 3.0)
    c[0, 0] = 0.0
    b[0, 1] = 0.0
    c[0, 2] = 0.0
    b[0, 2] = 0.0
    fused = fuse_depth(depth_of(c), depth_of(b), seg_of(np.full(GRID.shape, 0.5))).values
    assert fused[0, 0] == 3.0
    assert fused[0, 1] == 2.0
    assert fused[0, 2] == 0.0


def test_shape_mismatch():
    other = GridSpec(width=64, height=32)
    with pytest.raises(ShapeMismatchError):
        fuse_depth(
            depth_of(np.ones(GRID.shape)),
            DepthMap(grid=other, values=np.ones(other.shape)),
            seg_of(np.ones(GRID.shape)),
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fused_between_inputs_and_swap_symmetry(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.1, 5, GRID.shape)
    b = rng.uniform(0.1, 5, GRID.shape)
    p = rng.uniform(0, 1, GRID.shape)
    fused = fuse_depth(depth_of(c), depth_of(b), seg_of(p)).values
    lo = np.minimum(c, b)
    hi = np.maximum(c, b)
    assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)
    swapped = fuse_depth(depth_of(b), depth_of(c), seg_of(1 - p)).values
    np.testing.assert_allclose(swapped, fused, rtol=0, atol=1e-12)


def test_labels_perfect_background():
    rng = np.random.default_rng(1)
    gt = depth_of(rng.uniform(1, 5, GRID.shape))
    labels = derive_seg_labels(gt, gt, gamma=0.1)
    assert np.all(labels.values == 1.0)


def test_labels_strict_at_gamma():
    gt = np.full(GRID.shape, 2.0)
    bg = np.full(GRID.shape, 2.0)
    gt[0, 0] = 2.1  # residual exactly gamma
    labels = derive_seg_labels(depth_of(gt), depth_of(bg), gamma=0.1).values
    assert labels[0, 0] == 0.0
    assert labels[1, 1] == 1.0


def test_labels_invalid_gt_is_zero():
    gt = np.full(GRID.shape, 2.0)
    gt[3, 3] = 0.0
    bg = np.full(GRID.shape, 0.05)
    labels = derive_seg_labels(depth_of(gt), depth_of(bg), gamma=10.0).values
    assert labels[3, 3] == 0.0


def test_labels_monotone_in_gamma():
    rng = np.random.default_rng(2)
    gt = depth_of(rng.uniform(1, 5, GRID.shape))
    bg = depth_of(rng.uniform(1, 5, GRID.shape))
    small = derive_seg_labels(gt, bg, gamma=0.5).values
    large = derive_seg_labels(gt, bg, gamma=2.0).values
    assert np.all(large >= small)


def test_labels_idempotent_binary():
    rng = np.random.default_rng(3)
    gt = depth_of(rng.uniform(1, 5, GRID.shape))
    bg = depth_of(rng.uniform(1, 5, GRID.shape))
    labels = derive_seg_labels(gt, bg, gamma=1.0).values
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_labels_against_oracle_mask_with_foreground():
    scene = make_scene(8, boxes=(2, 3))
    gt = raycast_depth(scene, GRID, include_foreground=True)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    gamma = 0.1
    labels = derive_seg_labels(gt, bg, gamma=gamma).values
    mask = gt_background_mask(scene, GRID).values
    # labels match the oracle mask except where a box face sits within
    # gamma of the shell behind it
    residual = np.abs(gt.values - bg.values)
    disagree = labels != mask
    assert np.all(residual[disagree] < gamma)
    assert np.all(mask[disagree] == 0.0)


# --- identity with the nested-where fuse and the out-of-place labels ---------


def nested_where_fuse(coarse, background, seg):
    """Reference: the blend, then a nested where over the four validity masks."""
    c, b, p = coarse.values, background.values, seg.values
    blended = b * p + c * (1.0 - p)
    return np.where((c > 0) & (b > 0), blended, np.where(b > 0, b, np.where(c > 0, c, 0.0)))


def reference_labels(gt, background, gamma):
    residual = np.abs(gt.values - background.values)
    return ((residual < gamma) & (gt.values > 0)).astype(np.float64)


def salted_inputs(height):
    """Generated scenes at ``height`` rows: a coarse map with 30% of its
    pixels zeroed, a background render with its own holes, the oracle mask,
    a random weight and the clean render."""
    grid = GridSpec(width=2 * height, height=height)
    rng = np.random.default_rng(height)
    for seed in range(4):
        scene = make_scene(seed, plan="rect" if seed % 2 else "lshape", boxes=(1, 3))
        clean = raycast_depth(scene, grid, include_foreground=True)
        coarse = corrupt_depth(clean, NoiseSpec(salt_frac=0.3, outlier_frac=0.1, seed=seed))
        bg = raycast_depth(scene, grid, include_foreground=False).values.copy()
        bg[rng.uniform(size=grid.shape) < 0.1] = 0.0
        bg = DepthMap(grid=grid, values=bg)
        for seg in (gt_background_mask(scene, grid),
                    SegMap(grid=grid, values=rng.uniform(0, 1, grid.shape))):
            yield coarse, bg, seg, clean


@pytest.mark.parametrize("height", [32, 33, 64])
def test_fuse_and_labels_match_reference(height):
    for coarse, bg, seg, clean in salted_inputs(height):
        got = fuse_depth(coarse, bg, seg).values
        assert got.tobytes() == nested_where_fuse(coarse, bg, seg).tobytes()
        for gt in (coarse, clean):
            for gamma in (0.1, 2.0):
                got = derive_seg_labels(gt, bg, gamma).values
                assert got.tobytes() == reference_labels(gt, bg, gamma).tobytes()


@pytest.mark.parametrize("where", ["coarse", "background", "both"])
def test_fuse_signed_zero_gives_positive_zero(where):
    c = np.full(GRID.shape, 2.0)
    b = np.full(GRID.shape, 3.0)
    b[0, :4] = 0.0
    c[1, :4] = 0.0
    if where in ("coarse", "both"):
        c[::2, ::3] = -0.0
    if where in ("background", "both"):
        b[1::2, ::3] = -0.0
        b[::2, ::6] = -0.0
    coarse, bg = depth_of(c), depth_of(b)
    for p in (0.0, 0.5, 1.0):
        seg = seg_of(np.full(GRID.shape, p))
        got = fuse_depth(coarse, bg, seg).values
        assert got.tobytes() == nested_where_fuse(coarse, bg, seg).tobytes()
        assert not np.signbit(got).any()


def test_stage_outputs_are_read_only():
    scene = make_scene(1, boxes=(1, 2))
    gt = raycast_depth(scene, GRID, include_foreground=True)
    bg = raycast_depth(scene, GRID, include_foreground=False)
    seg = background_mask(gt, bg)
    outputs = [
        seg,
        fuse_depth(gt, bg, seg),
        derive_seg_labels(gt, bg),
        denoise_depth(gt, bg, scene.room, GRID),
    ]
    for out in outputs:
        assert out.grid == GRID and out.values.shape == GRID.shape
        assert out.values.dtype == np.float64
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[0, 0] = 0.5
