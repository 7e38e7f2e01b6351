"""Acceptance gate: every headline claim, at the full desk scale.

The claims live in one place, `kickscope.verify`'s registry.  The
registry runs once per session on the shipped default configuration
(2^21-point grid, sigma/d = 0.01, t = 5), and each check becomes one
test id that prints its ``[PASS]``/``[FAIL]`` line with the measured
numbers.  Run with ``pytest -v`` (add ``-s`` to see the lines for passing
tests too).
"""

import pytest

from kickscope.config import default_config
from kickscope.verify import _CHECKS, TOLERANCES, run_checks


@pytest.fixture(scope="session")
def desk_results():
    return {r.name: r for r in run_checks(default_config())}


@pytest.mark.parametrize("name", list(TOLERANCES))
def test_claim(desk_results, name):
    result = desk_results[name]
    print(f"[{result.status}] {name}: {result.detail} (tolerance {TOLERANCES[name]:g})")
    assert result.status == "PASS", result.detail


def test_registry_and_tolerances_are_one_to_one():
    # An orphan tolerance is never used, and a check without one would
    # fail with a KeyError row instead of running.
    assert [name for name, _ in _CHECKS] == list(TOLERANCES)
