"""The demos and the README example run end to end against the current library API."""

import hashlib
import math
from pathlib import Path

import pytest
from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]


# Each demo with its arguments, one line it must print, and the sha256 of
# its whole stdout, so a change to the library cannot move a printed digit
# unseen.
DEMOS = {
    "detection_events": (
        ["--count", "2000"],
        "2000 events, seed 42:",
        "c5e5ab1e69183952a90301fbb625ec97960d02676fda0aaec457c012caf19314",
    ),
    "momentum_kicks": (
        [],
        "relative kick measured in tilted readout bases:",
        "ae8c5ed416f5bb0ee4dd2623eb7ed6216a620bcbe6acd04ca4aa1ef6cb4acd00",
    ),
    "phase_kicks": (
        [],
        "The failed events are boosted by exactly theta*hbar/d; the",
        "ec572e56f7aec91bb799c0bb0b3ae7d21387f92739e7d611f8ab65f366edc5dd",
    ),
    "visibility_scan": (
        [],
        "F_k follows (1 - V)/2 all the way from perfect fringes (c = 1,",
        "115482c8a015c074fbc58812d3c915996c84f6a1dfa48c167c32f2f5c80d8eb8",
    ),
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    args, line, digest = DEMOS[demo]
    done = run_python(str(ROOT / "demos" / f"{demo}.py"), *args)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_readme_library_example_runs():
    # The README's Library block, run as written, so the docs cannot drift
    # from the API.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["kick"] == math.pi
    assert abs(names["f_k"] - 0.25) <= 1e-12
    assert abs(names["reading"].visibility - 0.5) <= 0.02
    assert names["counts"].sum() == names["observed"].sum() == 100_000
    assert names["p_value"] > 0.01
