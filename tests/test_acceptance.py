"""Acceptance gate: every headline claim, at the full desk scale.

Each test exercises one claim end to end on the shipped default
configuration (2^21-point grid, sigma/d = 0.01, t = 5) and prints a
single ``[PASS]``/``[FAIL]`` line with the measured numbers.  Run with
``pytest -v`` (add ``-s`` to see the lines for passing tests too).
"""

import math

import numpy as np
import pytest

from kickscope import (
    COMPUTATIONAL,
    SYMMETRIC,
    DetectorConfig,
    GridSpec,
    SlitGeometry,
    assemble,
    build_uqsd,
    change_basis,
    fringe_analysis,
    kick_identity_residual,
    kick_report,
    phase_kick_shift,
    propagate_all,
    propagate_analytic,
    propagate_fft,
    sample_events,
    screen_density,
    screen_goodness_of_fit,
    slit_state,
    storey_bound_report,
    tilted,
    tilted_relative_kick,
)
from kickscope.config import default_config

C_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
KICK_C_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
TILT_GRID = (0.0, math.pi / 4, math.pi / 2)
PHASE_GRID = (math.pi / 4, math.pi / 2, math.pi)


class DeskBench:
    """The desk-scale configuration; the library shares one propagated slit
    pair between every detector setting built on it."""

    def __init__(self):
        cfg = default_config()
        self.geom = cfg.geometry
        self.grid = cfg.grid
        self.units = cfg.units
        self.dp = 2.0 * math.pi * self.units.hbar / (self.grid.n * self.grid.dx)

    def state(self, c, theta=0.0):
        coeffs = build_uqsd(DetectorConfig(c=c, theta=theta))
        return change_basis(assemble(self.geom, self.grid, coeffs), SYMMETRIC)

    def propagated(self, c, theta=0.0):
        return propagate_all(self.state(c, theta), self.geom, self.units)

    def pattern(self, c, theta=0.0):
        return screen_density(self.propagated(c, theta))

    def visibility(self, c, theta=0.0):
        return fringe_analysis(self.pattern(c, theta), self.geom, self.units).visibility


@pytest.fixture(scope="module")
def desk():
    return DeskBench()


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_visibility_matches_overlap_magnitude(desk):
    vs = {c: desk.visibility(c) for c in C_GRID}
    worst = max(abs(v - c) for c, v in vs.items())
    ok = worst <= 0.02
    report(ok, "visibility = c", f"max |V - c| = {worst:.4f} over c = {list(vs)}")
    assert ok, vs


def test_kicked_fraction_is_half_the_lost_visibility(desk):
    worst_branch = 0.0
    worst_vis = 0.0
    for c in C_GRID:
        rep = kick_report(desk.state(c), desk.geom, desk.units, DetectorConfig(c=c))
        worst_branch = max(worst_branch, abs(rep.F_k_branch - (1.0 - c) / 2.0))
        worst_vis = max(worst_vis, abs(rep.F_k_branch - (1.0 - desk.visibility(c)) / 2.0))
    f0 = kick_report(
        desk.state(0.0), desk.geom, desk.units, DetectorConfig(c=0.0)
    ).F_k_branch
    ok = worst_branch <= 1e-10 and worst_vis <= 0.01 and abs(f0 - 0.5) <= 1e-10
    report(
        ok,
        "kick fraction",
        f"max |F_k - (1-c)/2| = {worst_branch:.2e}, "
        f"max |F_k - (1-V)/2| = {worst_vis:.4f}, F_k(c=0) = {f0:.3f}",
    )
    assert ok


def test_kick_magnitude_is_half_a_fringe(desk):
    worst = max(
        abs(
            kick_report(desk.state(c), desk.geom, desk.units, DetectorConfig(c=c)).p0_measured
            - math.pi
        )
        for c in KICK_C_GRID
    )
    ok = worst <= desk.dp
    report(
        ok,
        "kick magnitude",
        f"max |p_meas - pi*hbar/d| = {worst:.2e} (one bin = {desk.dp:.2e})",
    )
    assert ok


def test_kick_magnitude_is_basis_independent(desk):
    state = desk.state(0.5)
    worst = max(
        abs(tilted_relative_kick(state, desk.geom, desk.units, tp) - math.pi)
        for tp in TILT_GRID
    )
    ok = worst <= desk.dp
    report(ok, "tilted-basis kick", f"max offset = {worst:.2e} over tilts {list(TILT_GRID)}")
    assert ok


def test_kick_identity_residual_small_and_monotone():
    grid = GridSpec(n=2048, x_min=-0.78, x_max=1.78)
    ratios = (0.005, 0.01, 0.02, 0.05)
    values = [kick_identity_residual(SlitGeometry(d=1.0, sigma=r), grid) for r in ratios]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    ok = values[1] <= 0.05 and monotone
    report(
        ok,
        "branch identity residual",
        f"residual(0.01) = {values[1]:.4f} <= 0.05, monotone over {ratios}: {monotone}",
    )
    assert ok, values


def test_failure_probability_equals_overlap(desk):
    worst_fail = 0.0
    worst_total = 0.0
    for c in C_GRID:
        for theta in (0.0, 1.0):
            state = desk.state(c, theta)
            probs = state.branch_probabilities()
            worst_fail = max(worst_fail, abs(probs[2] - c))
            worst_total = max(worst_total, abs(probs.sum() - 1.0))
    ok = worst_fail <= 1e-10 and worst_total <= 1e-10
    report(
        ok,
        "failure probability",
        f"max |P(fail) - c| = {worst_fail:.2e}, max |sum - 1| = {worst_total:.2e}",
    )
    assert ok


def test_fft_propagator_matches_closed_form(desk):
    worst = 0.0
    for slit in (1, 2):
        psi0 = slit_state(desk.geom, desk.grid, slit)
        via_fft = propagate_fft(psi0, desk.geom, desk.units).amplitudes
        closed = propagate_analytic(desk.geom, desk.grid, desk.units, slit=slit).amplitudes
        worst = max(worst, float(np.max(np.abs(via_fft - closed))))
    ok = worst <= 1e-8
    report(ok, "propagator cross-check", f"max |fft - closed form| = {worst:.2e}")
    assert ok


def test_screen_density_is_basis_invariant(desk):
    state = assemble(desk.geom, desk.grid, build_uqsd(DetectorConfig(c=0.5, theta=0.8)))
    propagated = propagate_all(state, desk.geom, desk.units)
    rho = screen_density(propagated).values
    worst = max(
        float(np.max(np.abs(screen_density(change_basis(propagated, b)).values - rho)))
        for b in (SYMMETRIC, tilted(1.1))
    )
    assert propagated.basis == COMPUTATIONAL
    ok = worst <= 1e-12
    report(ok, "basis invariance", f"max density change across bases = {worst:.2e}")
    assert ok


def test_detector_phase_kicks_failure_branch_without_costing_visibility(desk):
    worst_shift = 0.0
    worst_vis = 0.0
    v0 = desk.visibility(0.5)
    for theta in PHASE_GRID:
        state = desk.state(0.5, theta)
        shift = phase_kick_shift(state, desk.geom, desk.units)
        worst_shift = max(worst_shift, abs(shift - theta * desk.units.hbar / desk.geom.d))
        worst_vis = max(worst_vis, abs(desk.visibility(0.5, theta) - v0))
    ok = worst_shift <= desk.dp and worst_vis <= 0.01
    report(
        ok,
        "phase kick",
        f"max |shift - theta*hbar/d| = {worst_shift:.2e}, max visibility change = {worst_vis:.4f}",
    )
    assert ok


def test_sampled_events_reproduce_the_pattern(desk):
    state = desk.propagated(0.5)
    count, seed = 100_000, 42
    codes, xs = sample_events(state, count, seed)
    codes_again, xs_again = sample_events(state, count, seed)
    identical = np.array_equal(codes, codes_again) and np.array_equal(xs, xs_again)

    freq = np.count_nonzero(codes == 1) / count
    sigma = math.sqrt(0.25 * 0.75 / count)
    _, pvalue = screen_goodness_of_fit(xs, desk.pattern(0.5))
    ok = identical and abs(freq - 0.25) <= 3.0 * sigma and pvalue > 0.01
    report(
        ok,
        "event sampling",
        f"repeatable = {identical}, |freq(q-) - 1/4| = {abs(freq - 0.25):.4f} "
        f"(3 sigma = {3 * sigma:.4f}), chi-square p = {pvalue:.3f}",
    )
    assert ok


def test_momentum_bound_holds_at_every_visibility(desk):
    grid_ok = all(
        storey_bound_report(round(v, 10)).satisfied for v in np.arange(0.0, 1.01, 0.1)
    )
    measured = storey_bound_report(desk.visibility(0.5))
    ok = grid_ok and measured.satisfied and abs(measured.lhs - math.pi) <= 1e-12
    report(
        ok,
        "transferred-momentum bound",
        f"lhs = pi >= 1 - V on V = 0..1 and at measured V: {measured.lhs:.6f} >= {measured.rhs:.6f}",
    )
    assert ok
