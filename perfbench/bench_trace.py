"""In-memory spans around every public-function call into panoroom's layers.

The tracer wraps functions from outside the package: while ``installed()``
is active, each public function defined in a layer module is replaced, in
every loaded ``panoroom`` module that holds a reference to it, by a wrapper
that records one span. Calls between layers (``cli`` -> ``synth`` ->
``raycast_depth``) therefore nest, and a span's self time is its duration
minus the time of its direct children. Nothing is patched outside the
``with`` block, so untraced runs execute the unmodified program.

``equirect`` and ``_kernels`` are not traced; their time is part of the
calling layer's span.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("cli", "synth", "layout", "bgdepth", "fusion", "denoise", "metrics", "formats")

# build_parser only builds argparse state; it stays part of the subcommand's
# self time. cli.main is traced as one span per subcommand ("cli.<name>").
_SKIP = {("cli", "build_parser")}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    pano: str  # "<phase>:<index>" of the panorama being processed
    note: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bytes_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _note_raycast(bound) -> dict:
    scene, grid = bound["scene"], bound["grid"]
    fg = bool(bound["include_foreground"])
    boxes = len(scene.boxes) if fg else 0
    # Computed work: every pixel tests every wall edge, each box (foreground
    # renders only), and the floor and ceiling planes.
    tests = grid.height * grid.width * (len(scene.room.vertices) + boxes + 2)
    return {"fg": fg, "tests": tests}


def _note_shell(bound) -> dict:
    return {"points": int(bound["points"].size // 3)}


def _note_written(bound) -> dict:
    return {"bytes_written": _bytes_of(bound["path"])}


def _note_read(bound) -> dict:
    return {"bytes_read": _bytes_of(bound["path"])}


# Facts recorded after the call returns (outside the span's interval).
_NOTES = {
    "synth.raycast_depth": _note_raycast,
    "denoise.shell_outside_distance": _note_shell,
    "formats.write_pfm": _note_written,
    "formats.write_json": _note_written,
    "formats.write_ply_pointcloud": _note_written,
    "formats.read_pfm": _note_read,
    "formats.read_json": _note_read,
}


class Tracer:
    """Collects spans in memory; ``pano`` tags every span opened while set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pano = ""
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        note = _NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        is_cli_main = name == "cli.main"

        def traced(*args, **kwargs):
            label = name
            if is_cli_main:
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0]}"
            parent = self._stack[-1] if self._stack else -1
            span = Span(label, 0.0, 0.0, parent, self.pano)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if note is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.note = note(bound.arguments)

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer's public functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"panoroom.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    and (layer, attr) not in _SKIP
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "panoroom" or mod_name.startswith("panoroom.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def to_json(self) -> list:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "pano": s.pano,
                **({"note": s.note} if s.note else {}),
            }
            for s in self.spans
        ]


# --- per-layer statistics ----------------------------------------------------


def self_seconds(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct children (children nest)."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def _phase(pano: str) -> str:
    return pano.split(":", 1)[0]


def _chosen(spans, names) -> list[int]:
    """Indices of the spans named ``names`` from the timed panoramas, or from
    the set-up when the timed part never reached them (a layer that only
    prepares inputs, such as ray-casting on ``refine``)."""
    hits = [i for i, s in enumerate(spans) if s.name in names]
    run = [i for i in hits if _phase(spans[i].pano) == "run"]
    return run or hits


def per_pano(spans, names, value) -> float:
    """Mean over panoramas that reached ``names`` of the summed ``value``."""
    totals = defaultdict(float)
    for i in _chosen(spans, names):
        totals[spans[i].pano] += value(i, spans[i])
    return sum(totals.values()) / len(totals) if totals else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures, per panorama that reached the function; 0 where a
    layer did not run."""
    selfs = self_seconds(spans)

    def ms(name):
        return per_pano(spans, {name}, lambda i, s: s.seconds * 1e3)

    def self_ms(name):
        return per_pano(spans, {name}, lambda i, s: selfs[i] * 1e3)

    ray = [spans[i] for i in _chosen(spans, {"synth.raycast_depth"})]
    ray_tests = sum(s.note["tests"] for s in ray)
    shell = [spans[i] for i in _chosen(spans, {"denoise.shell_outside_distance"})]
    shell_s = sum(s.seconds for s in shell)
    writes = {"formats.write_pfm", "formats.write_json", "formats.write_ply_pointcloud"}
    reads = {"formats.read_pfm", "formats.read_json"}

    out = {
        "synth.raycast_depth.calls": per_pano(spans, {"synth.raycast_depth"}, lambda i, s: 1.0),
        "synth.raycast_depth.fg_ms": per_pano(
            spans, {"synth.raycast_depth"}, lambda i, s: s.seconds * 1e3 * s.note["fg"]
        ),
        "synth.raycast_depth.bg_ms": per_pano(
            spans, {"synth.raycast_depth"}, lambda i, s: s.seconds * 1e3 * (not s.note["fg"])
        ),
        "synth.raycast_depth.ns_per_test": (
            sum(s.seconds for s in ray) * 1e9 / ray_tests if ray_tests else 0.0
        ),
        "synth.gt_background_mask.self_ms": self_ms("synth.gt_background_mask"),
        "synth.generate_scene.ms": ms("synth.generate_scene"),
        "layout.room_to_layout.ms": ms("layout.room_to_layout"),
        "layout.layout_to_room.ms": ms("layout.layout_to_room"),
        "bgdepth.resolve_camera_heights.ms": ms("bgdepth.resolve_camera_heights"),
        "bgdepth.resolve_background_depth.ms": ms("bgdepth.resolve_background_depth"),
        "fusion.fuse_depth.ms": ms("fusion.fuse_depth"),
        "fusion.derive_seg_labels.ms": ms("fusion.derive_seg_labels"),
        "denoise.denoise_depth.self_ms": self_ms("denoise.denoise_depth"),
        "denoise.shell_outside_distance.ms": ms("denoise.shell_outside_distance"),
        "denoise.shell_outside_distance.mpoints_per_s": (
            sum(s.note["points"] for s in shell) / shell_s / 1e6 if shell_s else 0.0
        ),
        "metrics.eval_metrics.ms": ms("metrics.eval_metrics"),
    }
    for fn in ("write_pfm", "read_pfm", "write_json", "read_json", "write_ply_pointcloud"):
        out[f"formats.{fn}.ms"] = ms(f"formats.{fn}")
    out["formats.bytes_written"] = per_pano(spans, writes, lambda i, s: s.note["bytes_written"])
    out["formats.bytes_read"] = per_pano(spans, reads, lambda i, s: s.note["bytes_read"])
    for sub in ("synth", "bg", "fuse", "seglabel", "denoise", "eval", "pointcloud"):
        out[f"cli.{sub}.self_ms"] = self_ms(f"cli.{sub}")
    return out


def coverage(spans: list[Span], pano_seconds: dict) -> float:
    """Share of the given panoramas' wall time covered by top-level spans."""
    covered = sum(s.seconds for s in spans if s.parent < 0 and s.pano in pano_seconds)
    wall = sum(pano_seconds.values())
    return covered / wall if wall else 0.0
