"""Shared fixtures: a small, fast grid that still resolves the physics.

The unit-scale setup keeps wavepackets narrow relative to the slit
separation (sigma/d = 0.02), propagates just far enough that the packets
overlap at the screen, and fits everything on an 8192-point grid so a
full FFT round trip costs well under a millisecond.

`traced_peak` is the one way the tests read a call's peak memory.
"""

import tracemalloc

import pytest

from kickscope import GridSpec, PhysicalUnits, SlitGeometry


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
