import math

import numpy as np
import pytest

from panoroom import (
    CameraHeights,
    DepthMap,
    FocalParams,
    GridSpec,
    LayoutMap,
    LossWeights,
    MetricsReport,
    NoiseSpec,
    SegMap,
    corrupt_depth,
    eval_metrics,
    focal_loss,
    gt_background_mask,
    raycast_depth,
    resolve_background_depth,
    total_loss,
)
from panoroom.errors import NoValidSamplesError

from conftest import make_scene

TINY = GridSpec(width=2, height=1)


def single_pixel_maps(pred_value, gt_value):
    """1x2 maps with exactly one valid pixel."""
    pred = DepthMap(grid=TINY, values=np.array([[pred_value, 5.0]]))
    gt = DepthMap(grid=TINY, values=np.array([[gt_value, 0.0]]))
    return pred, gt


def test_perfect_prediction():
    grid = GridSpec(width=64, height=32)
    rng = np.random.default_rng(0)
    v = rng.uniform(0.5, 8, grid.shape)
    m = eval_metrics(DepthMap(grid=grid, values=v), DepthMap(grid=grid, values=v))
    assert m.abs_rel == 0 and m.sq_rel == 0 and m.rmse == 0 and m.mae == 0
    assert m.delta1 == 1 and m.delta2 == 1 and m.delta3 == 1


def test_single_pixel_two_vs_one():
    m = eval_metrics(*single_pixel_maps(2.0, 1.0))
    assert m.abs_rel == pytest.approx(1.0, abs=1e-12)
    assert m.sq_rel == pytest.approx(1.0, abs=1e-12)
    assert m.rmse == pytest.approx(1.0, abs=1e-12)
    assert m.mae == pytest.approx(1.0, abs=1e-12)
    assert m.delta1 == 0.0  # 2 >= 1.25
    assert m.delta2 == 0.0  # 2 >= 1.5625
    assert m.delta3 == 0.0  # 2 >= 1.953125 (1.25^3)


def test_single_pixel_small_error():
    m = eval_metrics(*single_pixel_maps(1.2, 1.0))
    assert m.delta1 == 1.0  # ratio 1.2 < 1.25
    assert m.abs_rel == pytest.approx(0.2, abs=1e-12)
    assert m.rmse == pytest.approx(0.2, abs=1e-12)


def test_delta_monotone():
    grid = GridSpec(width=32, height=16)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = DepthMap(grid=grid, values=rng.uniform(0.1, 10, grid.shape))
        g = DepthMap(grid=grid, values=rng.uniform(0.1, 10, grid.shape))
        m = eval_metrics(p, g)
        assert m.delta1 <= m.delta2 <= m.delta3


def test_symmetry_facts():
    grid = GridSpec(width=32, height=16)
    rng = np.random.default_rng(2)
    p = DepthMap(grid=grid, values=rng.uniform(0.5, 5, grid.shape))
    g = DepthMap(grid=grid, values=rng.uniform(0.5, 5, grid.shape))
    m1 = eval_metrics(p, g)
    m2 = eval_metrics(g, p)
    assert m1.delta1 == m2.delta1 and m1.delta2 == m2.delta2 and m1.delta3 == m2.delta3
    assert m1.rmse == pytest.approx(m2.rmse, rel=1e-12)
    assert m1.mae == pytest.approx(m2.mae, rel=1e-12)
    assert m1.abs_rel != m2.abs_rel
    assert m1.sq_rel != m2.sq_rel


def test_mask_restricts_evaluation():
    grid = GridSpec(width=4, height=2)
    pred = DepthMap(grid=grid, values=np.full(grid.shape, 2.0))
    gt = DepthMap(grid=grid, values=np.full(grid.shape, 1.0))
    mask_vals = np.zeros(grid.shape)
    mask_vals[0, 0] = 1.0
    gt2 = gt.values.copy()
    gt2[0, 0] = 2.0
    m = eval_metrics(pred, DepthMap(grid=grid, values=gt2), SegMap(grid=grid, values=mask_vals))
    assert m.abs_rel == 0.0


def test_no_valid_pixels_raises():
    grid = GridSpec(width=4, height=2)
    pred = DepthMap(grid=grid, values=np.ones(grid.shape))
    gt = DepthMap(grid=grid, values=np.zeros(grid.shape))
    with pytest.raises(NoValidSamplesError):
        eval_metrics(pred, gt)


def gathered_eval(pred, gt, mask=None):
    """Reference: gather the valid pixels, then one expression per metric."""
    valid = gt.values > 0
    if mask is not None:
        valid &= mask.values >= 0.5
    p = pred.values[valid]
    g = gt.values[valid]
    diff = p - g
    with np.errstate(divide="ignore"):
        ratio = np.maximum(p / g, g / p)
    return MetricsReport(
        abs_rel=float(np.mean(np.abs(diff) / g)),
        sq_rel=float(np.mean(diff**2 / g)),
        rmse=float(np.sqrt(np.mean(diff**2))),
        mae=float(np.mean(np.abs(diff))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25**2)),
        delta3=float(np.mean(ratio < 1.25**3)),
    )


def same_report(a, b):
    """Equal field by field, to the bit and the Python type."""
    return all(
        type(x) is type(y) and np.float64(x).tobytes() == np.float64(y).tobytes()
        for x, y in zip(a.to_dict().values(), b.to_dict().values())
    )


@pytest.mark.parametrize("height", [32, 33, 64])
def test_eval_matches_gathered_reference(height):
    grid = GridSpec(width=2 * height, height=height)
    for seed in range(4):
        scene = make_scene(seed, plan="rect" if seed % 2 else "lshape", boxes=(1, 3))
        clean = raycast_depth(scene, grid, include_foreground=True)
        coarse = corrupt_depth(clean, NoiseSpec(salt_frac=0.3, outlier_frac=0.1, seed=seed))
        mask = gt_background_mask(scene, grid)
        cases = [
            (coarse, clean, None),  # every pixel valid, some predictions 0
            (clean, coarse, None),  # some pixels invalid
            (coarse, clean, mask),
            (clean, coarse, mask),
        ]
        for pred, gt, m in cases:
            assert same_report(eval_metrics(pred, gt, m), gathered_eval(pred, gt, m)), seed


def test_eval_matches_gathered_reference_at_the_thresholds():
    # ratios exactly 1.25, 1.25**2 and 1.25**3 either way, and missing pixels
    grid = GridSpec(width=64, height=32)
    rng = np.random.default_rng(4)
    gt = 2.0 ** rng.integers(-3, 4, grid.shape)
    factors = np.array([0.0, 1.0, 1.25, 1.25**2, 1.25**3, 0.8, 0.64, 0.512, 3.0])
    pred = gt * rng.choice(factors, grid.shape)
    gt[::7, ::3] = 0.0
    pred, gt = DepthMap(grid=grid, values=pred), DepthMap(grid=grid, values=gt)
    report = eval_metrics(pred, gt)
    assert report.delta1 < report.delta2 < report.delta3 < 1
    assert same_report(report, gathered_eval(pred, gt))


@pytest.mark.parametrize("height", [256, 512])
def test_eval_matches_gathered_reference_over_many_bands(height):
    # grids that eval_metrics cuts into many pieces: every pixel valid, some
    # invalid, and masked
    grid = GridSpec(width=2 * height, height=height)
    scene = make_scene(3, plan="lshape", boxes=(2, 3))
    clean = raycast_depth(scene, grid, include_foreground=True)
    coarse = corrupt_depth(clean, NoiseSpec(salt_frac=0.3, outlier_frac=0.1, seed=3))
    mask = gt_background_mask(scene, grid)
    for pred, gt, m in [(coarse, clean, None), (clean, coarse, None), (coarse, clean, mask)]:
        assert same_report(eval_metrics(pred, gt, m), gathered_eval(pred, gt, m))


# A map a stage builds past the 2**500 m bound of public depth: background
# depth on TINY's horizon row, from a floor boundary one ulp below the
# horizon and heights at the bound, is ~2**551.3 m in both pixels.
FAR = resolve_background_depth(
    LayoutMap([0.25] * 2, [np.nextafter(0.5, 1.0)] * 2, [0.0] * 2),
    CameraHeights(up=2.0**500, down=2.0**500),
    TINY,
)


@pytest.mark.parametrize(
    "pred, gt_values, inf_fields",
    [(FAR, [1.0, 0.0], {"sq_rel", "rmse"}),
     (DepthMap(grid=TINY, values=[[1.0, 5.0]]), [1e-320, 0.0], {"abs_rel", "sq_rel"}),
     # each |e| / g is ~1e308, their sum is not a float
     (FAR, [FAR.values[0, 0] / 1e308] * 2, {"abs_rel", "sq_rel", "rmse"})],
    ids=["square-overflows", "quotient-overflows", "sum-overflows"],
)
def test_errors_beyond_the_floats_read_inf_without_a_warning(pred, gt_values, inf_fields):
    # a numpy warning fails the test; each metric is np.mean's, inf included
    gt = DepthMap(grid=TINY, values=[gt_values])
    report = eval_metrics(pred, gt)
    with np.errstate(over="ignore"):
        assert same_report(report, gathered_eval(pred, gt))
    assert {k for k, v in report.to_dict().items() if v == math.inf} == inf_fields


# --- focal loss -------------------------------------------------------------


def focal_single(p, label, alpha=0.5, eta=2.0):
    grid = GridSpec(width=2, height=1)
    pred = SegMap(grid=grid, values=np.full(grid.shape, p))
    labels = SegMap(grid=grid, values=np.full(grid.shape, float(label)))
    return focal_loss(pred, labels, FocalParams(alpha=alpha, eta=eta))


def test_focal_half_probability():
    expected = 0.5 * 0.25 * (-math.log(0.5))
    assert expected == pytest.approx(0.0866434, abs=1e-6)
    assert focal_single(0.5, 1) == pytest.approx(expected, abs=1e-12)


def test_focal_label_symmetry():
    assert focal_single(0.5, 0) == focal_single(0.5, 1)
    assert focal_single(0.7, 1) == pytest.approx(focal_single(0.3, 0), abs=1e-15)


def test_focal_zero_at_perfect_prediction():
    grid = GridSpec(width=32, height=16)
    rng = np.random.default_rng(3)
    labels = (rng.uniform(size=grid.shape) > 0.5).astype(float)
    loss = focal_loss(SegMap(grid=grid, values=labels), SegMap(grid=grid, values=labels))
    assert 0 <= loss < 1e-5


def test_focal_monotone_toward_labels():
    losses = [focal_single(p, 1) for p in (0.2, 0.4, 0.6, 0.8, 0.99)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert all(l >= 0 for l in losses)


# --- total loss -------------------------------------------------------------


def test_total_loss_selects_depth():
    assert total_loss(5, 2, 7, LossWeights(0, 1, 0)) == 2


def test_total_loss_defaults():
    assert total_loss(1, 1, 1) == pytest.approx(1.41, abs=1e-12)


def test_total_loss_zero():
    assert total_loss(0, 0, 0) == 0
