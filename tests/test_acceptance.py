"""End-to-end acceptance gate.

Each test checks one shipping criterion at its stated tolerance and prints
a single PASS line (run with ``pytest -s tests/test_acceptance.py`` to see
them as they complete).
"""

import os
import time

import numpy as np
import pytest

from panoroom import (
    DepthMap,
    FocalParams,
    GridSpec,
    NoiseSpec,
    SceneConfig,
    SegMap,
    corrupt_depth,
    denoise_depth,
    derive_seg_labels,
    eval_metrics,
    focal_loss,
    fuse_depth,
    generate_scene,
    layout_to_room,
    raycast_depth,
    resolve_background_depth,
    resolve_camera_heights,
    room_to_layout,
)
from panoroom.bgdepth import WALL, cap_depth, classify_regions
from panoroom.cli import main as cli_main
from panoroom.denoise import shell_outside_distance
from panoroom.formats import read_pfm, write_pfm

from conftest import pixel_center_dirs

FULL = GridSpec(width=1024, height=512)
HALF = GridSpec(width=512, height=256)


def scenes(n, boxes=(0, 0), seed0=1000):
    for i in range(n):
        plan = "rect" if i % 2 == 0 else "lshape"
        yield generate_scene(seed0 + i, SceneConfig(plan=plan, box_count_range=boxes))


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for scene in scenes(100):
        layout = room_to_layout(scene.room, FULL)
        bg = resolve_background_depth(layout, scene.room.heights, FULL, mode="exact")
        oracle = raycast_depth(scene, FULL, include_foreground=False)
        rmse = float(np.sqrt(np.mean((bg.values - oracle.values) ** 2)))
        assert rmse <= 1e-4
        worst = max(worst, rmse)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(1, f"worst RMSE {worst:.2e} m over 100 scenes at 512x1024 in {elapsed:.1f}s")


def test_criterion_2_camera_height_recovery():
    worst = 0.0
    rng = np.random.default_rng(7)
    for scene in scenes(100, seed0=2000):
        layout = room_to_layout(scene.room, HALF)
        coarse = raycast_depth(scene, HALF, include_foreground=False)
        h = resolve_camera_heights(layout, coarse, HALF)
        err = max(
            abs(h.up - scene.room.cam_to_ceil), abs(h.down - scene.room.cam_to_floor)
        )
        assert err <= 1e-6
        worst = max(worst, err)

        corrupted = coarse.values.copy()
        bad = rng.choice(HALF.width, size=int(0.3 * HALF.width), replace=False)
        corrupted[:, bad] *= 10.0
        h2 = resolve_camera_heights(
            layout, DepthMap(grid=HALF, values=corrupted), HALF, aggregator="median"
        )
        err2 = max(
            abs(h2.up - scene.room.cam_to_ceil), abs(h2.down - scene.room.cam_to_floor)
        )
        assert err2 <= 1e-6
        worst = max(worst, err2)
    report(2, f"worst height error {worst:.2e} m over 100 scenes (clean and 30% corrupted)")


def test_criterion_3_paper_literal_divergence():
    ratio = cap_depth(np.pi / 2, 1.5, "paper-literal") / cap_depth(np.pi / 2, 1.5, "exact")
    assert ratio == pytest.approx(2.0 / np.pi, abs=1e-9)
    for scene in scenes(10, seed0=3000):
        layout = room_to_layout(scene.room, HALF)
        exact = resolve_background_depth(layout, scene.room.heights, HALF, "exact").values
        literal = resolve_background_depth(layout, scene.room.heights, HALF, "paper-literal").values
        caps = classify_regions(layout, HALF) != WALL
        assert np.all(literal[caps] <= exact[caps])
    report(3, f"nadir ratio {ratio:.12f} = 2/pi; literal <= exact on all cap pixels, 10 scenes")


def brute_force_labels(gt, bg, gamma):
    h, w = gt.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            if gt[i, j] > 0 and abs(gt[i, j] - bg[i, j]) < gamma:
                out[i, j] = 1.0
    return out


def test_criterion_4_fusion_and_labels():
    grid = GridSpec(width=128, height=64)
    rng = np.random.default_rng(11)
    for scene in scenes(10, boxes=(1, 3), seed0=4000):
        coarse = raycast_depth(scene, grid, include_foreground=True)
        bg = raycast_depth(scene, grid, include_foreground=False)
        ones = SegMap(grid=grid, values=np.ones(grid.shape))
        zeros = SegMap(grid=grid, values=np.zeros(grid.shape))
        assert np.array_equal(fuse_depth(coarse, bg, ones).values, bg.values)
        assert np.array_equal(fuse_depth(coarse, bg, zeros).values, coarse.values)
        p = SegMap(grid=grid, values=rng.uniform(0, 1, grid.shape))
        fused = fuse_depth(coarse, bg, p).values
        lo = np.minimum(coarse.values, bg.values)
        hi = np.maximum(coarse.values, bg.values)
        assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)
        labels = derive_seg_labels(coarse, bg, gamma=0.1).values
        assert np.array_equal(labels, brute_force_labels(coarse.values, bg.values, 0.1))
    # strict-inequality boundary: residual exactly gamma -> label 0
    gt = DepthMap(grid=grid, values=np.full(grid.shape, 2.1))
    bgm = DepthMap(grid=grid, values=np.full(grid.shape, 2.0))
    assert np.all(derive_seg_labels(gt, bgm, gamma=0.1).values == 0.0)
    report(4, "endpoints exact, fused bounded, labels match brute force on 10 scenes")


def test_criterion_5_denoise():
    grid = HALF
    dirs = pixel_center_dirs(grid)
    for i, scene in enumerate(scenes(20, boxes=(1, 3), seed0=5000)):
        gt = raycast_depth(scene, grid, include_foreground=True)
        bg = raycast_depth(scene, grid, include_foreground=False)
        noise = NoiseSpec(salt_frac=0.05, outlier_frac=0.10, outlier_offset=2.0, seed=i)
        noisy = corrupt_depth(gt, noise)
        out = denoise_depth(noisy, bg, scene.room, grid, slack=1.0)
        pts = (out.values[..., None] * dirs).reshape(-1, 3)
        dist = shell_outside_distance(scene.room, pts)
        assert np.max(dist) <= 1.0 + 1e-9
        clean = noisy.values == gt.values
        assert np.array_equal(out.values[clean], gt.values[clean])
        again = denoise_depth(out, bg, scene.room, grid, slack=1.0)
        assert np.array_equal(again.values, out.values)
    report(5, "audit clean, clean pixels bit-identical, idempotent over 20 scenes")


def test_criterion_6_metric_fixtures():
    tiny = GridSpec(width=2, height=1)

    def single(pred, gt):
        return eval_metrics(
            DepthMap(grid=tiny, values=np.array([[pred, 5.0]])),
            DepthMap(grid=tiny, values=np.array([[gt, 0.0]])),
        )

    m = single(2.0, 1.0)
    for name, expected in [
        ("abs_rel", 1.0), ("sq_rel", 1.0), ("rmse", 1.0), ("mae", 1.0),
        ("delta1", 0.0), ("delta2", 0.0), ("delta3", 0.0),
    ]:
        assert abs(getattr(m, name) - expected) <= 1e-12, name

    m = single(1.2, 1.0)
    assert abs(m.abs_rel - 0.2) <= 1e-12
    assert abs(m.rmse - 0.2) <= 1e-12
    assert m.delta1 == 1.0

    grid = GridSpec(width=32, height=16)
    rng = np.random.default_rng(6)
    perfect = DepthMap(grid=grid, values=rng.uniform(0.5, 5, grid.shape))
    mp = eval_metrics(perfect, perfect)
    assert (mp.abs_rel, mp.sq_rel, mp.rmse, mp.mae) == (0, 0, 0, 0)
    assert (mp.delta1, mp.delta2, mp.delta3) == (1, 1, 1)

    for _ in range(1000):
        p = DepthMap(grid=grid, values=rng.uniform(0.1, 10, grid.shape))
        g = DepthMap(grid=grid, values=rng.uniform(0.1, 10, grid.shape))
        mm = eval_metrics(p, g)
        assert mm.delta1 <= mm.delta2 <= mm.delta3
    report(6, "fixtures at 1e-12, delta monotone on 1000 random pairs")


def test_criterion_7_focal_loss():
    tiny = GridSpec(width=2, height=1)

    def loss(p, label):
        return focal_loss(
            SegMap(grid=tiny, values=np.full(tiny.shape, p)),
            SegMap(grid=tiny, values=np.full(tiny.shape, float(label))),
            FocalParams(alpha=0.5, eta=2.0),
        )

    value = loss(0.5, 1)
    assert value == pytest.approx(0.0866434, abs=1e-6)
    seq = [loss(p, 1) for p in (0.6, 0.8, 0.95, 0.999, 0.999999)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 1e-9
    assert loss(0.3, 1) == pytest.approx(loss(0.7, 0), abs=1e-15)
    report(7, f"single-pixel value {value:.7f}, converges to 0, label-symmetric")


def test_criterion_8_formats(tmp_path):
    golden = tmp_path / "golden.pfm"
    write_pfm(np.array([[1.0]]), str(golden))
    assert golden.read_bytes() == b"Pf\n1 1\n-1.0\n\x00\x00\x80\x3f"

    rng = np.random.default_rng(8)
    for i in range(100):
        values = rng.uniform(0, 12, size=(8, 16)).astype(np.float32)
        p = tmp_path / f"rt{i}.pfm"
        write_pfm(values, str(p))
        assert np.array_equal(read_pfm(str(p)), values)

    a = str(tmp_path / "tree_a")
    b = str(tmp_path / "tree_b")
    for out in (a, b):
        rc = cli_main(
            ["synth", "--seed", "77", "--count", "2", "--plan", "lshape",
             "--out-dir", out, "--height", "64", "--boxes", "1", "2"]
        )
        assert rc == 0
    for dirpath, _, files in os.walk(a):
        rel = os.path.relpath(dirpath, a)
        for f in files:
            pa = os.path.join(dirpath, f)
            pb = os.path.join(b, rel, f)
            assert open(pa, "rb").read() == open(pb, "rb").read(), pa
    report(8, "golden bytes, 100 round trips, byte-identical synth trees")


def test_criterion_9_layout_round_trip():
    worst = 0.0
    for scene in scenes(100, seed0=9000):
        layout = room_to_layout(scene.room, FULL)
        back = layout_to_room(layout, scene.room.heights, FULL)
        assert back.vertices.shape == scene.room.vertices.shape
        for v in scene.room.vertices:
            err = float(np.min(np.linalg.norm(back.vertices - v, axis=1)))
            assert err <= 1e-6
            worst = max(worst, err)
    report(9, f"worst vertex error {worst:.2e} m over 100 scenes")
