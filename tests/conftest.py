import numpy as np
import pytest

from panoroom import GridSpec, SceneConfig, generate_scene


def make_scene(seed, plan="rect", boxes=(0, 0)):
    return generate_scene(seed, SceneConfig(plan=plan, box_count_range=boxes))


def point_in_polygon_loop(edges, px, py):
    """Even-odd test of one point, edge by edge in plain Python: the
    reference for the package's vectorised test."""
    inside = False
    for ax, ay, bx, by in edges:
        if (ay > py) != (by > py):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < xint:
                inside = not inside
    return inside


def mixed_scenes(n, boxes=(0, 0), seed0=0):
    """n deterministic scenes alternating rect and L-shaped plans."""
    return [
        make_scene(seed0 + i, plan="rect" if i % 2 == 0 else "lshape", boxes=boxes)
        for i in range(n)
    ]


@pytest.fixture
def small_grid():
    return GridSpec(width=128, height=64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
