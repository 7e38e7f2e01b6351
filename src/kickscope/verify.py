"""Self-check suite: module invariants evaluated at a configured scale.

Each named check compares a computed quantity against an independent
expectation (closed-form oracle, algebraic identity, or statistical bound)
at its tolerance in ``TOLERANCES``.  The registry is the one place a claim
is written down: ``run_checks`` returns one `CheckResult` per check, in
``TOLERANCES`` order, and the desk-scale acceptance tests assert on those
results.  ``run_suite`` prints one PASS/FAIL/SKIP line per result and
returns a process exit code: 0 when nothing failed, 1 otherwise.

A check that raises ``EmptyBranchError`` is a SKIP (nothing to measure at
this setting), and one that raises any other error is a FAIL.  The
exceptions are ``ConfigurationError`` and ``MemoryError``: the config
itself cannot be checked, so they propagate and ``kickscope verify``
exits 2 without printing a table.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError, EmptyBranchError
from .hilbert import (
    COMPUTATIONAL,
    SYMMETRIC,
    DetectorConfig,
    basis_matrix,
    detector_states,
    tilted,
)
from .wavepacket import (
    GridSpec,
    SlitGeometry,
    apply_kick,
    propagate_analytic,
    slit_state,
    to_momentum,
    to_position,
)
from .experiment import (
    BranchState,
    ScreenPattern,
    SlitPair,
    assemble,
    change_basis,
    fringe_analysis,
    kick_report,
    phase_kick_shift,
    propagate_all,
    sample_events,
    screen_density,
    screen_goodness_of_fit,
    storey_bound_report,
    tilted_relative_kick,
)

__all__ = ["CheckResult", "run_checks", "run_suite", "TOLERANCES"]

#: Tolerance per check name, read when the checks run.
TOLERANCES: dict[str, float] = {
    "hilbert.normalization": 1e-12,
    "hilbert.unitarity": 1e-12,
    "wavepacket.normalization": 1e-10,
    "wavepacket.momentum_oracle": 1e-10,
    "wavepacket.roundtrip": 1e-12,
    "wavepacket.propagator_agreement": 1e-8,
    "wavepacket.kick_displacement": 1e-9,  # mean-momentum deviation
    "experiment.branch_probabilities": 1e-10,
    "experiment.failure_probability": 1e-10,
    "experiment.basis_invariance": 1e-12,
    "experiment.density_formula": 1e-10,
    "experiment.visibility_law": 0.02,
    "experiment.kick_fraction": 1e-10,
    "experiment.kick_fraction_vs_visibility": 0.01,
    "experiment.kick_magnitude": 1e-9,  # momentum bins
    "experiment.detector_kick": 1e-9,  # momentum bins
    "experiment.tilted_kick": 1e-9,  # momentum bins
    "experiment.kick_identity": 1e-6,
    "experiment.phase_kick": 1e-9,  # momentum bins
    "experiment.phase_visibility": 0.01,
    "experiment.storey_bound": 0.0,
    "experiment.sampler_outcomes": 3.0,  # binomial sigmas
    "experiment.sampler_gof": 0.01,  # minimum p-value
    "experiment.sampler_determinism": 0.0,
}

_C_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_KICK_C_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
_TILT_GRID = (0.0, math.pi / 4, math.pi / 2)
_PHASE_GRID = (math.pi / 4, math.pi / 2, math.pi)


@dataclass
class CheckResult:
    name: str
    status: str  # PASS, FAIL, or SKIP
    detail: str


# The states the checks share; `experiment` memoizes the propagated slit pair.
def _state(cfg: RunConfig, c: float, theta: float = 0.0) -> BranchState:
    state = assemble(cfg.geometry, cfg.grid, cfg.units, DetectorConfig(c=c, theta=theta))
    return change_basis(state, SYMMETRIC)


def _propagated(cfg: RunConfig, c: float, theta: float = 0.0) -> BranchState:
    return propagate_all(_state(cfg, c, theta))


def _pattern(cfg: RunConfig, c: float, theta: float = 0.0) -> ScreenPattern:
    return screen_density(_propagated(cfg, c, theta))


# V(c, theta) by (c, theta) for the run_checks call in progress, which runs
# every check on one config; unset outside such a call.
_visibilities: ContextVar[dict[tuple[float, float], float] | None] = ContextVar(
    "_visibilities", default=None
)


def _visibility(cfg: RunConfig, c: float, theta: float = 0.0) -> float:
    memo = _visibilities.get()
    if memo is not None and (c, theta) in memo:
        return memo[c, theta]
    v = fringe_analysis(_pattern(cfg, c, theta)).visibility
    if memo is not None:
        memo[c, theta] = v
    return v


_CHECKS: list[tuple[str, Callable[[RunConfig, float], CheckResult]]] = []


def _check(name: str):
    # Register fn(cfg, tol) -> (ok, detail) as check `name`.  The registered
    # callable makes its CheckResult, with the SKIP/FAIL rule stated above.
    def wrap(fn: Callable[[RunConfig, float], tuple[bool, str]]):
        def check(cfg: RunConfig, tol: float) -> CheckResult:
            try:
                ok, detail = fn(cfg, tol)
            except EmptyBranchError as exc:
                return CheckResult(name, "SKIP", str(exc))
            except (ConfigurationError, MemoryError):
                raise
            except Exception as exc:
                return CheckResult(name, "FAIL", f"raised {type(exc).__name__}: {exc}")
            return CheckResult(name, "PASS" if ok else "FAIL", detail)

        _CHECKS.append((name, check))
        return check

    return wrap


@_check("hilbert.normalization")
def _chk_hilbert_norm(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        for theta in (0.0, math.pi / 3, cfg.detector.theta):
            det = DetectorConfig(c=c, theta=theta)
            d = detector_states(det)
            gram = d.conj().T @ d  # <d_i|d_j>
            norms = np.sqrt(gram.diagonal().real)
            worst = max(worst, float(np.abs(norms - 1.0).max()), abs(gram[0, 1] - det.overlap))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("hilbert.unitarity")
def _chk_hilbert_unitarity(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    eye = np.eye(3)
    worst = 0.0
    bases = [COMPUTATIONAL, SYMMETRIC, tilted(math.pi / 4), tilted(math.pi / 2), tilted(1.0)]
    for b in bases:
        m = basis_matrix(COMPUTATIONAL, b)
        worst = max(worst, float(np.abs(m @ m.conj().T - eye).max()))
        back = basis_matrix(b, COMPUTATIONAL) @ m
        worst = max(worst, float(np.abs(back - eye).max()))
    # q3 must be fixed by every transform.
    for b in bases:
        m = basis_matrix(COMPUTATIONAL, b)
        worst = max(worst, float(np.abs(m[:, 2] - eye[:, 2]).max()))
        worst = max(worst, float(np.abs(m[2, :] - eye[2, :]).max()))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.normalization")
def _chk_wp_norm(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = max(
        abs(slit_state(cfg.geometry, cfg.grid, s).norm() - 1.0) for s in (1, 2)
    )
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.momentum_oracle")
def _chk_wp_momentum(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    hbar = cfg.units.hbar
    sigma = cfg.geometry.sigma
    spec = to_momentum(slit_state(cfg.geometry, cfg.grid, 1), hbar=hbar)
    oracle = (2.0 * sigma**2 / (math.pi * hbar**2)) ** 0.25 * np.exp(
        -(sigma**2) * spec.p**2 / hbar**2
    )
    worst = float(np.abs(spec.amplitudes - oracle).max())
    worst = max(worst, abs(spec.norm() - 1.0))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.roundtrip")
def _chk_wp_roundtrip(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    psi = slit_state(cfg.geometry, cfg.grid, 2)
    back = to_position(to_momentum(psi, hbar=cfg.units.hbar))
    worst = float(np.abs(back.amplitudes - psi.amplitudes).max())
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.propagator_agreement")
def _chk_wp_propagators(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    # The propagated slit pair every later check reads its densities from.
    pair = _propagated(cfg, cfg.detector.c, cfg.detector.theta).pair
    worst = 0.0
    for slit, via_fft in ((1, pair.psi1), (2, pair.psi2)):
        closed = propagate_analytic(cfg.geometry, cfg.grid, cfg.units, slit)
        worst = max(worst, float(np.abs(via_fft.amplitudes - closed.amplitudes).max()))
    return worst <= tol, f"max abs diff {worst:.3g}"


@_check("wavepacket.kick_displacement")
def _chk_wp_kick(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    # A kick by p must move the spectral mean by exactly p (the spectrum
    # translates rigidly), for whole and fractional numbers of bins alike.
    hbar = cfg.units.hbar
    psi = slit_state(cfg.geometry, cfg.grid, 1)
    boost = 12.25 * cfg.grid.dp(cfg.units.hbar)

    def mean_momentum(state):
        spec = to_momentum(state, hbar=hbar)
        return float(np.sum(spec.p * spec.density()) * spec.dp)

    mean0 = mean_momentum(psi)
    worst = 0.0
    for p in (boost, -3.0 * boost):
        worst = max(worst, abs(mean_momentum(apply_kick(psi, p, hbar=hbar)) - mean0 - p))
    return worst <= tol, f"mean off by {worst:.3g}"


@_check("experiment.branch_probabilities")
def _chk_exp_probs(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        expected = np.array([(1.0 - c) / 2.0, (1.0 - c) / 2.0, c])
        for theta in (cfg.detector.theta, 1.0):
            state = assemble(cfg.geometry, cfg.grid, cfg.units, DetectorConfig(c=c, theta=theta))
            for st in (state, change_basis(state, SYMMETRIC)):
                probs = st.branch_probabilities()
                worst = max(worst, float(np.abs(probs - expected).max()))
                worst = max(worst, abs(probs.sum() - 1.0))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("experiment.failure_probability")
def _chk_exp_fail(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    c = cfg.detector.c
    state = _state(cfg, c, cfg.detector.theta)
    dev = abs(state.branch_probabilities()[2] - c)
    return dev <= tol, f"|P(fail) - c| = {dev:.3g}"


@_check("experiment.basis_invariance")
def _chk_exp_basis(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    # The configured state at emission, and a phased one after free flight.
    emitted = assemble(cfg.geometry, cfg.grid, cfg.units, cfg.detector)
    phased = assemble(cfg.geometry, cfg.grid, cfg.units, DetectorConfig(c=0.5, theta=0.8))
    landed = propagate_all(phased)
    worst = 0.0
    for state, bases in (
        (emitted, (SYMMETRIC, tilted(math.pi / 4))),
        (landed, (SYMMETRIC, tilted(1.1))),
    ):
        rho = screen_density(state).values
        for b in bases:
            rho_b = screen_density(change_basis(state, b)).values
            worst = max(worst, float(np.abs(rho_b - rho).max()))
    return worst <= tol, f"max abs diff {worst:.3g}"


@_check("experiment.density_formula")
def _chk_exp_density(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    det = cfg.detector
    psi1 = propagate_analytic(cfg.geometry, cfg.grid, cfg.units, 1).amplitudes
    psi2 = propagate_analytic(cfg.geometry, cfg.grid, cfg.units, 2).amplitudes
    overlap = det.overlap
    direct = 0.5 * (
        np.abs(psi1) ** 2
        + np.abs(psi2) ** 2
        + 2.0 * np.real(overlap * np.conj(psi1) * psi2)
    )
    rho = _pattern(cfg, det.c, det.theta).values
    worst = float(np.abs(rho - direct).max())
    return worst <= tol, f"max abs diff {worst:.3g}"


@_check("experiment.visibility_law")
def _chk_exp_visibility(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        worst = max(worst, abs(_visibility(cfg, c) - c))
    return worst <= tol, f"max |V - c| = {worst:.3g}"


@_check("experiment.kick_fraction")
def _chk_exp_fraction(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        f_branch = _state(cfg, c).branch_probabilities()[1]
        worst = max(worst, abs(f_branch - (1.0 - c) / 2.0))
    return worst <= tol, f"max |F_k - (1-c)/2| = {worst:.3g}"


@_check("experiment.kick_fraction_vs_visibility")
def _chk_exp_fraction_vis(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        f_branch = _state(cfg, c).branch_probabilities()[1]
        worst = max(worst, abs(f_branch - (1.0 - _visibility(cfg, c)) / 2.0))
    return worst <= tol, f"max |F_k - (1-V)/2| = {worst:.3g}"


@_check("experiment.kick_magnitude")
def _chk_exp_kick(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    dp = cfg.grid.dp(cfg.units.hbar)
    p0 = math.pi * cfg.units.hbar / cfg.geometry.d
    worst = 0.0
    for c in _KICK_C_GRID:
        report = kick_report(_state(cfg, c))
        assert report.p0_measured is not None
        worst = max(worst, abs(report.p0_measured - p0) / dp)
    return worst <= tol, f"worst offset {worst:.3g} bins"


@_check("experiment.detector_kick")
def _chk_exp_detector_kick(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    det = cfg.detector
    report = kick_report(_state(cfg, det.c, det.theta))
    if det.c == 1.0:
        ok = report.p0_measured is None
        return ok, (
            "kicked branch empty at c = 1; no estimate (as expected)"
            if ok
            else "expected no kick estimate at c = 1"
        )
    dp = cfg.grid.dp(cfg.units.hbar)
    off = abs(report.p0_measured - math.pi * cfg.units.hbar / cfg.geometry.d) / dp
    return off <= tol, f"off by {off:.3g} bins"


@_check("experiment.tilted_kick")
def _chk_exp_tilted(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    if cfg.detector.c == 1.0:
        raise EmptyBranchError("interfering branches empty at c = 1")
    dp = cfg.grid.dp(cfg.units.hbar)
    p0 = math.pi * cfg.units.hbar / cfg.geometry.d
    worst = 0.0
    state = _state(cfg, cfg.detector.c, cfg.detector.theta)
    for tp in _TILT_GRID:
        worst = max(worst, abs(tilted_relative_kick(state, tp) - p0) / dp)
    return worst <= tol, f"worst offset {worst:.3g} bins"


@_check("experiment.kick_identity")
def _chk_exp_identity(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    worst = 0.0
    last = -1.0
    monotone = True
    for ratio in (0.005, 0.01, 0.02, 0.05):
        geom = SlitGeometry(d=1.0, sigma=ratio)
        grid = GridSpec(n=2048, x_min=-0.78, x_max=1.78)
        pair = SlitPair(slit_state(geom, grid, 1), slit_state(geom, grid, 2), geom, cfg.units)
        measured = pair.kick_identity_residual
        oracle = math.sqrt(2.0 * (1.0 - math.exp(-math.pi**2 * ratio**2 / 2.0)))
        worst = max(worst, abs(measured - oracle) / oracle)
        monotone = monotone and measured > last
        last = measured
    detail = f"max rel dev {worst:.3g}" + ("" if monotone else "; NOT monotone in sigma/d")
    return worst <= tol and monotone, detail


@_check("experiment.phase_kick")
def _chk_exp_phase(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    dp = cfg.grid.dp(cfg.units.hbar)
    worst = 0.0
    for theta in _PHASE_GRID:
        state = _state(cfg, 0.5, theta)
        shift = phase_kick_shift(state)
        expected = theta * cfg.units.hbar / cfg.geometry.d
        worst = max(worst, abs(shift - expected) / dp)
    return worst <= tol, f"worst offset {worst:.3g} bins"


@_check("experiment.phase_visibility")
def _chk_exp_phase_vis(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    v0 = _visibility(cfg, 0.5, 0.0)
    worst = max(abs(_visibility(cfg, 0.5, theta) - v0) for theta in _PHASE_GRID)
    return worst <= tol, f"max |V(theta) - V(0)| = {worst:.3g}"


@_check("experiment.storey_bound")
def _chk_exp_storey(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    for v in np.arange(0.0, 1.0 + 1e-9, 0.1):
        rep = storey_bound_report(float(v))
        if not rep.satisfied or abs(rep.lhs - math.pi) > tol + 1e-15:
            return False, f"bound violated at V = {v:.1f}"
    return True, "lhs = pi >= 1 - V on the whole V grid"


@_check("experiment.sampler_outcomes")
def _chk_exp_sampler(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    det = cfg.detector
    state = _propagated(cfg, det.c, det.theta)
    count = max(cfg.sample_count, 10_000)
    codes, _ = sample_events(state, count, cfg.seed)
    probs = state.branch_probabilities()
    freqs = np.bincount(codes, minlength=3) / count
    worst = 0.0
    for p, freq in zip(probs, freqs):
        if p < 1e-12:
            continue
        # Quadrature norms can land a hair above 1; clamp so the variance
        # stays non-negative.
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / count)
        if sigma == 0.0:  # deterministic branch (p = 1): all events land there
            worst = max(worst, 0.0 if abs(freq - p) < 1e-9 else math.inf)
        else:
            worst = max(worst, abs(freq - p) / sigma)
    return worst <= tol, f"worst {worst:.3g} sigma"


@_check("experiment.sampler_gof")
def _chk_exp_gof(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    det = cfg.detector
    state = _propagated(cfg, det.c, det.theta)
    count = max(cfg.sample_count, 10_000)
    _, xs = sample_events(state, count, cfg.seed)
    _, pvalue = screen_goodness_of_fit(xs, _pattern(cfg, det.c, det.theta))
    return pvalue > tol, f"p = {pvalue:.4f}"


@_check("experiment.sampler_determinism")
def _chk_exp_determinism(cfg: RunConfig, tol: float) -> tuple[bool, str]:
    det = cfg.detector
    state = _propagated(cfg, det.c, det.theta)
    codes_a, xs_a = sample_events(state, 512, cfg.seed)
    codes_b, xs_b = sample_events(state, 512, cfg.seed)
    identical = np.array_equal(codes_a, codes_b) and np.array_equal(xs_a, xs_b)
    return identical, (
        "same seed reproduces events exactly" if identical else "event streams diverged"
    )


def run_checks(cfg: RunConfig) -> list[CheckResult]:
    """One result per check, in registry order, at the current ``TOLERANCES``."""
    token = _visibilities.set({})
    try:
        return [check(cfg, TOLERANCES[name]) for name, check in _CHECKS]
    finally:
        _visibilities.reset(token)


def run_suite(cfg: RunConfig) -> int:
    """Run every check; print one line each; return 0 iff none failed."""
    results = run_checks(cfg)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"[{r.status:^4}] {r.name:<{width}}  {r.detail}")
    n_pass = sum(r.status == "PASS" for r in results)
    n_fail = sum(r.status == "FAIL" for r in results)
    n_skip = sum(r.status == "SKIP" for r in results)
    print(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return 0 if n_fail == 0 else 1
