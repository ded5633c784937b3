"""Recorded sha256 digests of the benchmark's ``refine`` and ``export`` outputs.

Two scenes of the benchmark's seed-0 pool go through ``perfbench``'s own
``Refine`` and ``Export`` workloads, imported rather than copied: a ``rect``
room with four boxes and an ``lshape`` room with two. ``refine`` runs at
H = 512 on in-memory arrays; every array, layout, room and report of its
set-up and its run is hashed. ``export`` runs the CLI chain at H = 256;
every file it and its ``synth`` set-up write is hashed.

The digests were recorded with numpy 2.4.6 (SIMD baseline X86_V2, with
X86_V3, X86_V4, AVX512_ICL and AVX512_SPR found) and Python 3.11.7 on an
x86-64 Intel Xeon. A mismatch on another numpy build or CPU may come from
the platform's floating point rather than from the program.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench_workloads  # noqa: E402

SCENES = (110, 109)  # rect with 4 boxes, lshape with 2

GOLDEN = {
    ("refine", 110): "e7e3a6d6b0259600d70b81fa823d90c16221a250a339c2b6bfa6846af3fb106b",
    ("refine", 109): "d52f4a978b8d2d56e474026dfc26afebae772a0651f440c8ce6efbbec4e400db",
    ("export", 110): "07406fd6d168b4c55c0b644dff54a03377113c531da06658f3dbf5a822a25d99",
    ("export", 109): "9048c864c6be2b863dcc13831ba4c248e197258b1708a04ebf39a7df0fd7de24",
}


def _feed(h, obj):
    """Hash ``obj`` by value: arrays by dtype, shape and bytes, dataclasses
    field by field, mappings key by key, floats by their hex form."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    else:
        h.update(repr(obj).encode())


def _refine_digest(seed):
    w = bench_workloads.Refine(None, 512)
    scene = w.set_up(0, seed)
    h = hashlib.sha256()
    _feed(h, scene.data)
    _feed(h, w.run(scene))
    return h.hexdigest()


def _export_digest(seed, work_dir):
    w = bench_workloads.Export(str(work_dir), 256)
    scene = w.set_up(0, seed)
    w.run(scene)
    h = hashlib.sha256()
    for name, path in sorted(scene.data["paths"].items()):
        h.update(name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def test_scenes_come_from_the_seed_0_pool():
    pool = bench_workloads.select_pool(0, bench_workloads.Refine.pool_size)
    assert set(SCENES) <= set(pool)
    assert [bench_workloads.scene_plan(s) for s in SCENES] == ["rect", "lshape"]


@pytest.mark.parametrize("seed", SCENES)
def test_refine_digest(seed):
    assert _refine_digest(seed) == GOLDEN[("refine", seed)]


@pytest.mark.parametrize("seed", SCENES)
def test_export_digest(seed, tmp_path):
    assert _export_digest(seed, tmp_path) == GOLDEN[("export", seed)]
