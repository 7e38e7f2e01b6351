"""Shared fixtures: a small, fast grid that still resolves the physics.

The unit-scale setup keeps wavepackets narrow relative to the slit
separation (sigma/d = 0.02), propagates just far enough that the packets
overlap at the screen, and fits everything on an 8192-point grid so a
full FFT round trip costs well under a millisecond.

`traced_peak` is the one way the tests read a call's peak memory, and
`run_python` the one way they start a child interpreter.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import kickscope
from kickscope import GridSpec, PhysicalUnits, SlitGeometry

SRC = str(Path(kickscope.__file__).resolve().parents[1])


@pytest.fixture
def geom() -> SlitGeometry:
    return SlitGeometry(d=1.0, sigma=0.02)


@pytest.fixture
def grid() -> GridSpec:
    # dx = 0.005 = sigma/4, the finest spacing slit_state accepts for
    # sigma = 0.02; span 40.96 leaves ample headroom for t = 0.05.
    return GridSpec(n=8192, x_min=0.5 - 20.48, x_max=0.5 + 20.48)


@pytest.fixture
def units() -> PhysicalUnits:
    return PhysicalUnits(t=0.05)


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and its ``tracemalloc`` peak in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def run_python(*args, env=None, drop=(), cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a child, with this checkout's ``src/`` first on ``PYTHONPATH``.

    The child inherits this environment without the names in ``drop`` and
    with ``env`` set on top.  Its stdout and stderr come back as text.
    """
    environ = {k: v for k, v in os.environ.items() if k not in drop} | (env or {})
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300, env=environ, cwd=cwd
    )
