"""The scale relation of ``test_scale.py`` on numpy's AVX-512 paths and off
them: the file is run again in a child process whose numpy has its
``X86_V4`` and higher dispatch targets disabled, so both sides of each
comparison take the narrower SIMD path there."""

import os
import subprocess
import sys

import numpy as np
import pytest

# numpy 2.x; older releases name no X86_V4 dispatch target, and the test skips
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    __cpu_dispatch__, __cpu_features__ = [], {}

TESTS = os.path.dirname(os.path.abspath(__file__))
# the child reports any named feature its numpy still uses, then runs the file
CHILD = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
print("still on:", *[n for n in sys.argv[2:] if __cpu_features__[n]])
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def avx512_targets() -> list[str]:
    """The dispatch targets from ``X86_V4`` up that this host has."""
    if "X86_V4" not in __cpu_dispatch__:
        return []
    upper = __cpu_dispatch__[__cpu_dispatch__.index("X86_V4") :]
    return [n for n in upper if __cpu_features__.get(n)]


def test_scale_relation_holds_without_avx512():
    disabled = avx512_targets()
    if not disabled:
        pytest.skip(f"numpy {np.__version__} dispatches no AVX-512 target on this host")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(TESTS, "test_scale.py"), *disabled],
        cwd=os.path.dirname(TESTS), env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout.startswith("still on:\n"), proc.stdout + proc.stderr
    assert proc.returncode == 0, proc.stdout + proc.stderr
