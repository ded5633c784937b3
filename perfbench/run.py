"""panoroom benchmark: one workload per run, end-to-end or traced per-layer figures.

Usage (from the repository root):
    python3 perfbench/run.py --workload {synth,refine,export} --seed N \
        --seconds S --trace {0,1}

The run sets up a pool of scenes made from ``--seed``, timing each scene's
set-up and repeating the whole set-up (up to five times) while it has
taken under a second. It warms up with one untimed panorama, then
processes the pool in order, pass after pass, until ``--seconds`` of wall
time have passed and every scene ran at least once (twice when traced). Every panorama's outputs
are checked after its timer stops; a panorama whose call raises or whose
check fails counts as failed.

``--trace 0`` prints the end-to-end metrics, measured with nothing patched.
``--trace 1`` prints the per-layer metrics: set-up and every other timed
panorama run with the tracer installed, alternating per scene and pass, so
the untraced ones give the tracing overhead on the same scenes. Spans are
kept in memory and written to ``.perfbench/`` at the end.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import os

# One thread: pin BLAS before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
SETUP_REPEAT_BUDGET_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "panoramas_per_s": "1/s",
    "panorama_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "depth_rmse_m": "m",
}

PER_LAYER_UNITS = {
    "synth.raycast_depth.calls": "count",
    "synth.raycast_depth.fg_ms": "ms",
    "synth.raycast_depth.bg_ms": "ms",
    "synth.raycast_depth.ns_per_test": "ns/test",
    "synth.gt_background_mask.self_ms": "ms",
    "synth.generate_scene.ms": "ms",
    "layout.room_to_layout.ms": "ms",
    "layout.layout_to_room.ms": "ms",
    "bgdepth.resolve_camera_heights.ms": "ms",
    "bgdepth.resolve_background_depth.ms": "ms",
    "fusion.fuse_depth.ms": "ms",
    "fusion.derive_seg_labels.ms": "ms",
    "denoise.denoise_depth.self_ms": "ms",
    "denoise.shell_outside_distance.ms": "ms",
    "denoise.shell_outside_distance.mpoints_per_s": "Mpoint/s",
    "denoise.replaced_frac": "ratio",
    "metrics.eval_metrics.ms": "ms",
    "formats.write_pfm.ms": "ms",
    "formats.read_pfm.ms": "ms",
    "formats.write_json.ms": "ms",
    "formats.read_json.ms": "ms",
    "formats.write_ply_pointcloud.ms": "ms",
    "formats.bytes_written": "B",
    "formats.bytes_read": "B",
    "cli.synth.self_ms": "ms",
    "cli.bg.self_ms": "ms",
    "cli.fuse.self_ms": "ms",
    "cli.seglabel.self_ms": "ms",
    "cli.denoise.self_ms": "ms",
    "cli.eval.self_ms": "ms",
    "cli.pointcloud.self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "%",
}


def _import_program() -> None:
    """Import panoroom from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "panoroom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no panoroom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import panoroom

    if Path(panoroom.__file__).resolve().parent != SRC / "panoroom":
        raise SystemExit(f"perfbench: imported panoroom from {panoroom.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    from panoroom import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "use_numba": bool(_kernels.USE_NUMBA),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import bench_trace
    from bench_workloads import WORKLOADS, select_pool

    cls = WORKLOADS[name]
    height = cls.full_height // 4 if tiny else cls.full_height
    pool_size = 2 if tiny else cls.pool_size
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    tracer = bench_trace.Tracer()
    try:
        workload = cls(str(work_dir), height)

        # A cheap set-up is repeated so that its median is steady; only the
        # first repetition is traced, so per-scene call counts stay exact.
        seeds = select_pool(seed, pool_size)
        setup_runs = []  # per repetition, the set-up seconds of each scene
        while not setup_runs or (
            len(setup_runs) < SETUP_REPEATS and sum(map(sum, setup_runs)) < SETUP_REPEAT_BUDGET_S
        ):
            traced = trace and not setup_runs
            scenes, seconds_each = [], []
            for slot, scene_seed in enumerate(seeds):
                tracer.pano = f"setup:{slot}"
                with tracer.installed() if traced else nullcontext():
                    t0 = time.perf_counter()
                    scenes.append(workload.set_up(slot, scene_seed))
                    seconds_each.append(time.perf_counter() - t0)
            setup_runs.append(seconds_each)
        scene_setup_s = [statistics.median(ts) for ts in zip(*setup_runs)]

        try:  # warm-up, untimed; a failure here shows again in the timed loop
            workload.check(scenes[0], workload.run(scenes[0]))
        except Exception:
            pass
        gc.collect()

        timed = []  # (pano id, slot, seconds, traced) of each panorama that completed
        first_pass = {}  # slot -> Verdict from its first run
        attempted = failed = 0
        min_passes = 2 if trace else 1
        deadline = time.perf_counter() + seconds
        while attempted < min_passes * pool_size or time.perf_counter() < deadline:
            slot, lap = attempted % pool_size, attempted // pool_size
            traced = trace and (slot + lap) % 2 == 1
            tracer.pano = f"run:{attempted}"
            attempted += 1
            try:
                with tracer.installed() if traced else nullcontext():
                    t0 = time.perf_counter()
                    out = workload.run(scenes[slot])
                    dt = time.perf_counter() - t0
                verdict = workload.check(scenes[slot], out)
            except Exception as e:  # a failed panorama is counted, not fatal
                print(f"panorama {slot} (scene {scenes[slot].seed}) raised {e!r}", file=sys.stderr)
                failed += 1
                continue
            timed.append((tracer.pano, slot, dt, traced))
            first_pass.setdefault(slot, verdict)
            if verdict.problems:
                failed += 1
                print(f"panorama {slot} (scene {scenes[slot].seed}): {verdict.problems}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {"attempted": attempted, "failed": failed, "pool": pool_size, "height": height}
    if not trace:
        ms = [dt * 1e3 for _, _, dt, _ in timed]
        result["metrics"] = {
            # pool size x median scene: one scene that needs many placement
            # attempts in generate_scene does not decide the figure
            "setup_s": pool_size * statistics.median(scene_setup_s),
            "panoramas_per_s": len(ms) / (sum(ms) / 1e3) if ms else 0.0,
            "panorama_ms_p50": statistics.median(ms) if ms else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "depth_rmse_m": statistics.median(v.rmse for v in first_pass.values())
            if first_pass else 0.0,
        }
        result["samples"] = len(ms)
        return result

    per_layer = bench_trace.layer_metrics(tracer.spans)
    fracs = [v.replaced_frac for v in first_pass.values() if v.replaced_frac is not None]
    per_layer["denoise.replaced_frac"] = statistics.mean(fracs) if fracs else 0.0
    traced_walls = {pano: dt for pano, _, dt, traced in timed if traced}
    per_layer["trace.coverage"] = bench_trace.coverage(tracer.spans, traced_walls)
    per_layer["trace.overhead"] = tracing_overhead(timed)
    result["metrics"] = per_layer
    result["spans"] = tracer.to_json()
    return result


def tracing_overhead(timed) -> float:
    """Median over scenes of traced / untraced panorama time, minus 1, in %."""
    by_slot = {}
    for _, slot, dt, traced in timed:
        by_slot.setdefault(slot, ([], []))[traced].append(dt)
    ratios = [statistics.mean(t) / statistics.mean(u) for u, t in by_slot.values() if u and t]
    return (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["synth", "refine", "export"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="quarter-height grids and two scenes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    _import_program()
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}

    h = res["height"]
    print(f"grid {2 * h}x{h}, pool of {res['pool']} scenes, "
          f"failure_rate {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} panoramas)")
    if not args.trace:
        print(f"panorama_ms_p50 over {res['samples']} panoramas")
    for k, m in metrics.items():
        print(f"  {k:<48} {m['value']:>14.6g} {m['unit']}")

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "environment": env, "spans": res["spans"]}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
