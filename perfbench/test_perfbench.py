"""Self-test of the benchmark's checks and output.

Run from the repository root:
    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run._import_program()

import bench_checks as chk  # noqa: E402
import bench_workloads  # noqa: E402
from panoroom import cli, formats  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _synth_scene(tmp_path, height=64, seed=109):
    out = tmp_path / "scenes"
    plan = bench_workloads.scene_plan(seed)
    assert cli.main(["synth", "--seed", str(seed), "--count", "1", "--plan", plan,
                     "--out-dir", str(out), "--height", str(height)]) == 0
    return out / "scene_000"


def _wall_column_scaled(scene_dir, factor=1.01):
    """bg_gt with one wall column (rows between the boundaries) scaled."""
    lay = chk.read_json(scene_dir / "layout.json")
    bg = chk.read_pfm(scene_dir / "bg_gt.pfm")
    col = 3
    rows = np.arange(bg.shape[0]) + 0.5
    wall = (rows >= lay["ceil"][col]) & (rows <= lay["floor"][col])
    bg[wall, col] *= factor
    return lay, bg


def test_background_check_catches_scaled_wall_column(tmp_path):
    d = _synth_scene(tmp_path)
    room = chk.read_json(d / "scene.json")
    lay = chk.read_json(d / "layout.json")
    up, down = room["cam_to_ceil"], room["cam_to_floor"]
    assert chk.check_background(lay, up, down, chk.read_pfm(d / "bg_gt.pfm")) == []
    shell = chk.shell_depth(room["vertices"], up, down, lay["height"])
    assert chk.check_shell(chk.read_pfm(d / "bg_gt.pfm"), shell) == []
    _, bad = _wall_column_scaled(d)
    assert chk.check_background(lay, up, down, bad)
    assert chk.check_shell(bad, shell)


def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch, capsys):
    real_run = bench_workloads.Synth.run

    def run_then_corrupt(self, scene):
        real_run(self, scene)
        d = os.path.join(scene.data["out_dir"], "scene_000")
        _, bad = _wall_column_scaled(Path(d))
        formats.write_pfm(bad, os.path.join(d, "bg_gt.pfm"))

    monkeypatch.setattr(bench_workloads.Synth, "run", run_then_corrupt)
    assert run.main(["--workload", "synth", "--seconds", "0", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_segmask_check_catches_flipped_pixel(tmp_path):
    d = _synth_scene(tmp_path)
    gt, bg, mask = (chk.read_pfm(d / n) for n in ("gt.pfm", "bg_gt.pfm", "segmask.pfm"))
    assert chk.check_segmask(mask, gt, bg) == []
    mask[5, 7] = 1.0 - mask[5, 7]
    assert chk.check_segmask(mask, gt, bg)
    assert chk.check_occlusion(gt, bg) == []
    assert chk.check_occlusion(bg + 0.01, bg)


def test_denoise_checks():
    coarse = np.array([[1.0, 0.0, 3.0]])
    bg = np.array([[2.0, 2.0, 2.0]])
    assert chk.check_denoised(np.array([[1.0, 2.0, 2.0]]), coarse, bg) == []
    assert chk.check_denoised(np.array([[1.5, 2.0, 2.0]]), coarse, bg)  # a new value
    assert chk.check_denoised(np.array([[1.0, 0.0, 3.0]]), coarse, bg)  # missing kept


def test_round_trip_and_rmse_checks():
    rows = np.linspace(300.0, 400.0, 8)
    assert chk.check_floor_round_trip(rows, rows + 1e-12) == []
    assert chk.check_floor_round_trip(rows, rows + 1e-6)
    pred, gt = np.array([1.0, 2.0, 5.0]), np.array([1.0, 2.5, 0.0])
    assert chk.check_rmse(np.sqrt(0.125), pred, gt) == []
    assert chk.check_rmse(0.36, pred, gt)


def test_export_checks(tmp_path):
    depth = np.array([[1.0, 0.0], [2.0, 3.0]] * 2).reshape(2, 4)
    from panoroom.equirect import GridSpec

    ply = tmp_path / "cloud.ply"
    formats.write_ply_pointcloud(depth, GridSpec(width=4, height=2), str(ply))
    assert chk.check_ply(ply, depth) == []
    text = ply.read_bytes()
    ply.write_bytes(text[: text.rindex(b"\n", 0, -1) + 1])  # drop the last vertex
    assert chk.check_ply(ply, depth)

    report = {"rmse": 0.5, "mae": 0.25}
    assert chk.check_eval_json(report, {"rmse": 0.5, "mae": 0.25}) == []
    assert chk.check_eval_json(report, {"rmse": 0.5, "mae": 0.2500001})


@pytest.mark.parametrize("workload", ["synth", "refine", "export"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seconds", "0", "--tiny",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace and workload != "refine":
        assert result["metrics"]["synth.raycast_depth.calls"]["value"] == 4.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth", "--seed", "0",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
