"""The demos run end to end against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import kickscope

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(kickscope.__file__).resolve().parents[1]


def test_detection_events_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "detection_events.py"), "--count", "2000"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert "2000 events, seed 42:" in done.stdout
