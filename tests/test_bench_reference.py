"""Each benchmark workload, run in-process at the default seed, passes the benchmark's own check.

The benchmark (``perfbench/run.py``) refuses a change whose default-seed
outputs break a law or row-count check in ``perfbench/workloads.py``, or
move by more than 1e-12 from ``perfbench/reference.json``.  This runs the
same workloads through ``kickscope.cli.main`` and applies the same checks,
so such a change fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kickscope.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
VERIFY_PY = Path(__file__).resolve().parents[1] / "src" / "kickscope" / "verify.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while building the class.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_matches_the_benchmark_reference(name, tmp_path, capsys):
    wl = workloads.make(name, workloads.DEFAULT_SEED)
    config = tmp_path / "workload.cfg"
    config.write_text(wl.config_text(), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(wl.argv(config, out_dir))
    stdout = capsys.readouterr().out
    outcome = workloads.check(wl, code, out_dir, stdout, workloads.load_tolerances(VERIFY_PY))
    problems = outcome.failures + workloads.compare_reference(outcome.values, REFERENCE[name])
    assert problems == []
