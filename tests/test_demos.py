"""The demos run end to end against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kickscope

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(kickscope.__file__).resolve().parents[1]


# Each demo with its arguments and one line it must print.
DEMOS = {
    "detection_events": (["--count", "2000"], "2000 events, seed 42:"),
    "momentum_kicks": ([], "relative kick measured in tilted readout bases:"),
    "phase_kicks": ([], "The failed events are boosted by exactly theta*hbar/d; the"),
    "visibility_scan": ([], "F_k follows (1 - V)/2 all the way from perfect fringes (c = 1,"),
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    args, line = DEMOS[demo]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
