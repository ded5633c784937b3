"""The three workloads: per-scene set-up, the timed panorama, its checks.

A pool of scenes is drawn from the workload seed: scene seeds are scanned
upwards from ``100 + 1000 * seed``, odd seeds use the ``lshape`` plan and
even ones ``rect``, and box counts come from the CLI default range (0-4).
The pool takes the first scenes that fill an equal quota of every
(plan, box count) cell, ordered so that any ten consecutive slots hold one
scene of each cell. Box count sets the ray-cast cost, so balancing it keeps
one seed's pool from being cheaper than another's. With the default
workload seed 0 the pool holds scene 109 (lshape, 2 boxes), whose camera
heights recovered at 1024x512 are off by 0.82 m even from clean depth: the
checks accept that, and the scene stays in the set.

Every call into the program goes through module attributes
(``synth.raycast_depth``, ``cli.main``), so the tracer sees each of them.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

import bench_checks as chk
from panoroom import bgdepth, cli, denoise, formats, fusion, layout, metrics, synth
from panoroom.equirect import GridSpec

PLANS = ("rect", "lshape")
BOX_COUNTS = range(5)  # the CLI default --boxes 0 4
CELLS = [(plan, boxes) for boxes in BOX_COUNTS for plan in PLANS]


def scene_plan(scene_seed: int) -> str:
    return PLANS[scene_seed % 2]


def select_pool(seed: int, size: int) -> list[int]:
    """Scene seeds whose (plan, box count) fill ``CELLS`` in turn."""
    wanted = [CELLS[j % len(CELLS)] for j in range(size)]
    found = {cell: [] for cell in CELLS}
    need = {cell: wanted.count(cell) for cell in CELLS}
    s = 100 + 1000 * seed
    for s in range(s, s + 200 * size):
        plan = scene_plan(s)
        cell = (plan, len(synth.generate_scene(s, synth.SceneConfig(plan=plan)).boxes))
        if len(found[cell]) < need[cell]:
            found[cell].append(s)
            if all(len(found[c]) == need[c] for c in CELLS):
                return [found[cell].pop(0) for cell in wanted]
    raise RuntimeError(f"no balanced pool of {size} scenes near seed {seed}")


@dataclass
class Verdict:
    problems: list
    rmse: float  # the workload's depth RMSE for this panorama, m
    replaced_frac: float | None = None  # share of pixels denoise rewrote


@dataclass
class Scene:
    seed: int
    plan: str
    data: dict = field(default_factory=dict)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class Synth:
    """Dataset generation through the in-process CLI, one scene per call."""

    name = "synth"
    full_height = 512
    pool_size = 20

    def __init__(self, work_dir: str, height: int):
        self.work_dir = work_dir
        self.height = height

    def set_up(self, slot: int, seed: int) -> Scene:
        plan = scene_plan(seed)
        room = synth.generate_scene(seed, synth.SceneConfig(plan=plan)).room
        out_dir = os.path.join(self.work_dir, f"{slot:03d}")
        os.makedirs(out_dir, exist_ok=True)
        shell = chk.shell_depth(room.vertices, room.cam_to_ceil, room.cam_to_floor, self.height)
        return Scene(seed, plan, {"out_dir": out_dir, "up": room.cam_to_ceil,
                                  "down": room.cam_to_floor, "shell": shell, "digest": None})

    def run(self, scene: Scene):
        rc = cli.main(["synth", "--seed", str(scene.seed), "--count", "1", "--plan",
                       scene.plan, "--out-dir", scene.data["out_dir"],
                       "--height", str(self.height)])
        if rc != 0:
            raise RuntimeError(f"panoroom synth exited with {rc}")

    def check(self, scene: Scene, _out) -> Verdict:
        d = os.path.join(scene.data["out_dir"], "scene_000")
        names = ("scene.json", "layout.json", "gt.pfm", "bg_gt.pfm", "segmask.pfm")
        paths = [os.path.join(d, n) for n in names]
        room = chk.read_json(paths[0])
        lay = chk.read_json(paths[1])
        gt, bg_gt, mask = (chk.read_pfm(p) for p in paths[2:])
        up, down = scene.data["up"], scene.data["down"]
        problems = []
        if (room["cam_to_ceil"], room["cam_to_floor"]) != (up, down):
            problems.append("scene.json heights differ from the generated scene")
        if (lay["height"], lay["width"]) != (self.height, 2 * self.height):
            problems.append(f"layout grid {lay['width']}x{lay['height']} is not the requested one")
            return Verdict(problems, float("nan"))
        problems += chk.check_background(lay, up, down, bg_gt)
        problems += chk.check_shell(bg_gt, scene.data["shell"])
        problems += chk.check_occlusion(gt, bg_gt)
        problems += chk.check_segmask(mask, gt, bg_gt)
        # Same seed, same bytes: later passes over the pool must repeat the first.
        digest = _digest(paths)
        if scene.data["digest"] is None:
            scene.data["digest"] = digest
        elif digest != scene.data["digest"]:
            problems.append("outputs differ from an earlier run of the same seed")
        err = chk.rmse(chk.analytic_background(lay["ceil"], lay["floor"], up, down,
                                               self.height), bg_gt)
        return Verdict(problems, err)


class Refine:
    """The per-panorama method on in-memory arrays."""

    name = "refine"
    full_height = 512
    pool_size = 20

    def __init__(self, work_dir: str, height: int):
        self.grid = GridSpec(width=2 * height, height=height)

    def set_up(self, slot: int, seed: int) -> Scene:
        plan = scene_plan(seed)
        spec = synth.generate_scene(seed, synth.SceneConfig(plan=plan))
        clean = synth.raycast_depth(spec, self.grid, include_foreground=True)
        return Scene(seed, plan, {
            "clean": clean,
            "seg": synth.gt_background_mask(spec, self.grid),
            "coarse": synth.corrupt_depth(clean, synth.NoiseSpec()),
            # stands in for a predicted layout
            "layout": layout.room_to_layout(spec.room, self.grid),
        })

    def run(self, scene: Scene) -> dict:
        g = self.grid
        lay, coarse, clean = scene.data["layout"], scene.data["coarse"], scene.data["clean"]
        heights = bgdepth.resolve_camera_heights(lay, coarse, g)
        room = layout.layout_to_room(lay, heights, g)
        bg = bgdepth.resolve_background_depth(lay, heights, g)
        fused = fusion.fuse_depth(coarse, bg, scene.data["seg"])
        labels = fusion.derive_seg_labels(clean, bg)
        cleaned = denoise.denoise_depth(coarse, bg, room, g)
        report = metrics.eval_metrics(cleaned, clean)
        return {"room": room, "bg": bg, "fused": fused, "labels": labels,
                "denoised": cleaned, "report": report}

    def check(self, scene: Scene, out: dict) -> Verdict:
        lay = scene.data["layout"]
        coarse = scene.data["coarse"].values
        den = out["denoised"].values
        problems = chk.check_floor_round_trip(
            lay.floor_rows, layout.room_to_layout(out["room"], self.grid).floor_rows)
        problems += chk.check_denoised(den, coarse, out["bg"].values)
        problems += chk.check_rmse(out["report"].rmse, den, scene.data["clean"].values)
        return Verdict(problems, out["report"].rmse, float(np.mean(den != coarse)))


class Export:
    """The CLI batch user working on files."""

    name = "export"
    full_height = 256
    pool_size = 20

    def __init__(self, work_dir: str, height: int):
        self.work_dir = work_dir
        self.grid = GridSpec(width=2 * height, height=height)

    def set_up(self, slot: int, seed: int) -> Scene:
        plan = scene_plan(seed)
        out_dir = os.path.join(self.work_dir, f"{slot:03d}")
        rc = cli.main(["synth", "--seed", str(seed), "--count", "1", "--plan", plan,
                       "--out-dir", out_dir, "--height", str(self.grid.height)])
        if rc != 0:
            raise RuntimeError(f"panoroom synth exited with {rc} in set-up")
        d = os.path.join(out_dir, "scene_000")
        p = {n: os.path.join(d, n) for n in (
            "scene.json", "layout.json", "gt.pfm", "segmask.pfm", "coarse.pfm", "bg.pfm",
            "fused.pfm", "labels.pfm", "denoised.pfm", "report.json", "cloud.ply")}
        gt = bgdepth.DepthMap(grid=self.grid, values=formats.read_pfm(p["gt.pfm"]))
        formats.write_pfm(synth.corrupt_depth(gt, synth.NoiseSpec()).values, p["coarse.pfm"])
        return Scene(seed, plan, {"paths": p})

    def run(self, scene: Scene):
        p = scene.data["paths"]
        steps = [
            ["bg", "--layout", p["layout.json"], "--coarse", p["coarse.pfm"], "--out", p["bg.pfm"]],
            ["fuse", "--coarse", p["coarse.pfm"], "--bg", p["bg.pfm"], "--seg", p["segmask.pfm"],
             "--out", p["fused.pfm"]],
            ["seglabel", "--gt", p["gt.pfm"], "--bg", p["bg.pfm"], "--out", p["labels.pfm"]],
            ["denoise", "--gt", p["coarse.pfm"], "--bg", p["bg.pfm"], "--room", p["scene.json"],
             "--out", p["denoised.pfm"]],
            ["eval", "--pred", p["denoised.pfm"], "--gt", p["gt.pfm"], "--json", p["report.json"]],
            ["pointcloud", "--depth", p["denoised.pfm"], "--out", p["cloud.ply"]],
        ]
        for argv in steps:
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"panoroom {argv[0]} exited with {rc}")

    def check(self, scene: Scene, _out) -> Verdict:
        p = scene.data["paths"]
        den, coarse, bg, gt = (chk.read_pfm(p[n]) for n in
                               ("denoised.pfm", "coarse.pfm", "bg.pfm", "gt.pfm"))
        report = chk.read_json(p["report.json"])
        expected = metrics.eval_metrics(bgdepth.DepthMap(grid=self.grid, values=den),
                                        bgdepth.DepthMap(grid=self.grid, values=gt))
        problems = chk.check_denoised(den, coarse, bg)
        problems += chk.check_ply(p["cloud.ply"], den)
        problems += chk.check_eval_json(report, expected.to_dict())
        problems += chk.check_rmse(report["rmse"], den, gt)
        return Verdict(problems, report["rmse"], float(np.mean(den != coarse)))


WORKLOADS = {w.name: w for w in (Synth, Refine, Export)}
