"""Self-check suite: module invariants evaluated at a configured scale.

Each named check compares a computed quantity against an independent
expectation (closed-form oracle, algebraic identity, or statistical bound)
at its tolerance in ``TOLERANCES``.  The registry is the one place a claim
is written down: ``run_checks`` returns one `CheckResult` per check, in
``TOLERANCES`` order, and the desk-scale acceptance tests assert on those
results.  ``run_suite`` prints one PASS/FAIL/SKIP line per result and
returns a process exit code: 0 when nothing failed, 1 otherwise.

A check that raises ``EmptyBranchError`` is a SKIP (nothing to measure at
this setting, as for every row that reads the configured detector's kick
at c = 1), and one that raises any other error is a FAIL.  The
exceptions are ``ConfigurationError`` and ``MemoryError``: the config
itself cannot be checked, so they propagate and ``kickscope verify``
exits 2 without printing a table.

The claims of the paper's abstract, in its order, and the rows that check
them (the README quotes each sentence):

* imperfect which-way detection: ``hilbert.normalization``,
  ``experiment.branch_probabilities``, ``experiment.failure_probability``;
* lost interference read as kicks, whatever the detector:
  ``experiment.kick_identity``, ``experiment.visibility_law``,
  ``experiment.phase_kick``, ``experiment.phase_visibility``;
* kicks of h/2d at any c: ``experiment.kick_magnitude``,
  ``experiment.detector_kick``, ``experiment.tilted_kick``, read at the
  geometry's d rather than at the separation the slits were built at, off
  the comb matrix that ``experiment.comb_closed_form`` holds to its closed
  form at the geometry's slit centers;
* contrary to earlier literature: ``experiment.storey_bound``, the measured
  kick ``p0_measured*d/hbar`` against ``1 - V`` at the configured detector;
* how often: ``experiment.kick_fraction`` (half the time at c = 0, less
  often above), and against the visibility ``experiment.kick_fraction_vs_visibility``.

The other rows are the oracles these rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .wavepacket import GridSpec, SlitGeometry, inner, momentum_chunks, propagate_analytic
from .experiment import (
    BranchState,
    Reading,
    SlitPair,
    assemble,
    change_basis,
    phase_kick_shift,
    read,
    relative_kick,
    sample_events,
    screen_bins,
    screen_density,
    screen_goodness_of_fit,
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
    "wavepacket.kick_displacement": 1e-9,  # momentum bins
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
    "experiment.comb_closed_form": 2e-10,  # relative to max |A|
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


def _draw(state: BranchState, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # The blocks of one positive-count draw, joined into (codes, xs).
    codes, xs = zip(*sample_events(state, count, seed))
    return np.concatenate(codes), np.concatenate(xs)


class _Run:
    """One config's checks on its slit pair, emitted once.

    Every state a check builds shares ``pair``, so the pair flies once, to
    its `SlitPair.screen`.  A `read` forms the density on the fringe window
    alone, so `reading` keeps no memo: a row that asks again reads again,
    at the window's cost.  ``dp`` is one momentum bin of its grid and
    ``p0`` its kick ``pi*hbar/d``.  The configured state and its one seeded
    event draw are built on first use, so an error there fails the rows
    that read them.
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.pair = SlitPair.emit(cfg.geometry, cfg.grid, cfg.units)
        hbar = self.pair.units.hbar
        self.dp, self.p0 = self.pair.grid.dp(hbar), math.pi * hbar / self.pair.geom.d

    def state(self, c: float, theta: float = 0.0) -> BranchState:
        return change_basis(assemble(self.pair, DetectorConfig(c=c, theta=theta)), SYMMETRIC)

    def reading(self, c: float, theta: float = 0.0) -> Reading:
        return read(self.pair, DetectorConfig(c=c, theta=theta))

    @cached_property
    def configured(self) -> BranchState:
        """The configured detector's state, in the symmetric basis."""
        det = self.cfg.detector
        return self.state(det.c, det.theta)

    @cached_property
    def events(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, xs)`` of ``max(sampling.count, 10_000)`` events drawn from `configured`."""
        return _draw(self.configured, max(self.cfg.sample_count, 10_000), self.cfg.seed)


_CHECKS: list[tuple[str, Callable[[_Run, float], CheckResult]]] = []


def _check(name: str):
    # Register fn(run, tol) -> (ok, detail) as check `name`.  The registered
    # callable makes its CheckResult, with the SKIP/FAIL rule stated above.
    def wrap(fn: Callable[[_Run, float], tuple[bool, str]]):
        def check(run: _Run, tol: float) -> CheckResult:
            try:
                ok, detail = fn(run, tol)
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
def _chk_hilbert_norm(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        for theta in (0.0, math.pi / 3, run.cfg.detector.theta):
            det = DetectorConfig(c=c, theta=theta)
            d = detector_states(det)
            gram = d.conj().T @ d  # <d_i|d_j>
            norms = np.sqrt(gram.diagonal().real)
            worst = max(worst, float(np.abs(norms - 1.0).max()), abs(gram[0, 1] - det.overlap))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("hilbert.unitarity")
def _chk_hilbert_unitarity(run: _Run, tol: float) -> tuple[bool, str]:
    eye = np.eye(3)
    worst = 0.0
    bases = [COMPUTATIONAL, SYMMETRIC, tilted(math.pi / 4), tilted(math.pi / 2), tilted(1.0)]
    for b in bases:
        m = basis_matrix(COMPUTATIONAL, b)
        worst = max(worst, float(np.abs(m @ m.conj().T - eye).max()))
        back = basis_matrix(b, COMPUTATIONAL) @ m
        worst = max(worst, float(np.abs(back - eye).max()))
        # q3 must be fixed by every transform.
        worst = max(worst, float(np.abs(m[:, 2] - eye[:, 2]).max()))
        worst = max(worst, float(np.abs(m[2, :] - eye[2, :]).max()))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.normalization")
def _chk_wp_norm(run: _Run, tol: float) -> tuple[bool, str]:
    worst = max(abs(psi.norm() - 1.0) for psi in (run.pair.psi1, run.pair.psi2))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.momentum_oracle")
def _chk_wp_momentum(run: _Run, tol: float) -> tuple[bool, str]:
    # Slit 1's spectrum against its closed form, chunk by chunk, and its
    # norm sum |phi|^2 dp, summed as inner of each chunk, added in order.
    hbar, sigma = run.pair.units.hbar, run.pair.geom.sigma
    raw = [np.fft.fft(run.pair.psi1.amplitudes)]
    norm, worst = 0j, 0.0
    for _, _, p, (phi,) in momentum_chunks(raw, run.pair.grid, hbar):
        norm += inner(phi, phi)
        oracle = (2.0 * sigma**2 / (math.pi * hbar**2)) ** 0.25 * np.exp(
            -(sigma**2) * p**2 / hbar**2
        )
        worst = max(worst, float(np.abs(phi - oracle).max()))
    worst = max(abs(float(norm.real * run.dp) - 1.0), worst)
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.roundtrip")
def _chk_wp_roundtrip(run: _Run, tol: float) -> tuple[bool, str]:
    # The inverse of momentum_chunks, written out: undo the x_min phase and
    # the centering, then scale the inverse FFT.
    psi, hbar = run.pair.psi2, run.pair.units.hbar
    grid = psi.grid
    back = np.empty_like(psi.amplitudes)
    for lo, hi, p, (phi,) in momentum_chunks([np.fft.fft(psi.amplitudes)], grid, hbar):
        phase = np.exp(1j * p * (grid.x_min / hbar))
        np.multiply(phi, phase, out=back[lo:hi])
    back = np.fft.ifftshift(back)
    np.fft.ifft(back, out=back)
    back *= math.sqrt(2.0 * math.pi * hbar) / grid.dx
    worst = 0.0
    for lo, hi in grid.blocks():
        worst = max(worst, float(np.abs(back[lo:hi] - psi.amplitudes[lo:hi]).max()))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("wavepacket.propagator_agreement")
def _chk_wp_propagators(run: _Run, tol: float) -> tuple[bool, str]:
    # The screen every later check reads its densities from.
    pair = run.pair
    worst = 0.0
    for slit, via_fft in zip((1, 2), pair.screen):
        closed = propagate_analytic(pair.geom, via_fft.grid, pair.units, slit).amplitudes
        for lo, hi in via_fft.grid.blocks():
            diff = via_fft.amplitudes[lo:hi] - closed[lo:hi]
            worst = max(worst, float(np.abs(diff).max()))
    return worst <= tol, f"max abs diff {worst:.3g}"


@_check("wavepacket.kick_displacement")
def _chk_wp_kick(run: _Run, tol: float) -> tuple[bool, str]:
    # A kick by p, the phase exp(i*p*x/hbar), must move the spectral mean by
    # exactly p (the spectrum translates rigidly), for whole and fractional
    # numbers of bins alike.  The error is counted in bins, like the kick
    # rows', so it does not scale with the unit of momentum.  The kicked
    # amplitudes are formed block by block and transformed in place, the
    # terms p*|phi|^2 are formed chunk by chunk, and the terms are summed
    # once over the whole grid.
    psi, hbar = run.pair.psi1, run.pair.units.hbar
    grid, boost = psi.grid, 12.25 * run.dp

    def kicked_fft(p):
        kicked = np.empty_like(psi.amplitudes)
        for lo, hi in grid.blocks():
            kicked[lo:hi] = psi.amplitudes[lo:hi] * np.exp(1j * (p / hbar) * grid.points(lo, hi))
        return np.fft.fft(kicked, out=kicked)

    def mean_momentum(raw):
        terms = np.empty(grid.n)
        for lo, hi, p, (phi,) in momentum_chunks([raw], grid, hbar):
            np.multiply(p, np.abs(phi) ** 2, out=terms[lo:hi])
        return float(np.sum(terms) * run.dp)

    mean0 = mean_momentum(np.fft.fft(psi.amplitudes))
    worst = 0.0
    for p in (boost, -3.0 * boost):
        worst = max(worst, abs(mean_momentum(kicked_fft(p)) - mean0 - p) / run.dp)
    return worst <= tol, f"mean off by {worst:.3g} bins"


@_check("experiment.branch_probabilities")
def _chk_exp_probs(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        expected = np.array([(1.0 - c) / 2.0, (1.0 - c) / 2.0, c])
        for theta in (run.cfg.detector.theta, 1.0):
            state = assemble(run.pair, DetectorConfig(c=c, theta=theta))
            for st in (state, change_basis(state, SYMMETRIC)):
                probs = st.branch_probabilities()
                worst = max(worst, float(np.abs(probs - expected).max()))
                worst = max(worst, abs(probs.sum() - 1.0))
    return worst <= tol, f"max dev {worst:.3g}"


@_check("experiment.failure_probability")
def _chk_exp_fail(run: _Run, tol: float) -> tuple[bool, str]:
    c = run.cfg.detector.c
    dev = abs(run.configured.branch_probabilities()[2] - c)
    return dev <= tol, f"|P(fail) - c| = {dev:.3g}"


@_check("experiment.basis_invariance")
def _chk_exp_basis(run: _Run, tol: float) -> tuple[bool, str]:
    # The configured state and a phased one, each read on the screen in
    # two other bases, block by block.  The difference is relative to the
    # density's peak, so the tolerance does not scale with the unit of length.
    worst = 0.0
    for det, bases in (
        (run.cfg.detector, (SYMMETRIC, tilted(math.pi / 4))),
        (DetectorConfig(c=0.5, theta=0.8), (SYMMETRIC, tilted(1.1))),
    ):
        state = assemble(run.pair, det)
        others = [change_basis(state, b) for b in bases]
        peak, diffs = 0.0, [0.0] * len(others)
        for lo, hi in run.pair.screen[0].grid.blocks():
            rho = screen_density(state, lo, hi)
            peak = max(peak, float(rho.max()))
            for k, other in enumerate(others):
                diff = float(np.abs(screen_density(other, lo, hi) - rho).max())
                diffs[k] = max(diffs[k], diff)
        worst = max(worst, *(diff / peak for diff in diffs))
    return worst <= tol, f"max rel diff {worst:.3g}"


@_check("experiment.density_formula")
def _chk_exp_density(run: _Run, tol: float) -> tuple[bool, str]:
    det, pair = run.cfg.detector, run.pair
    grid = pair.screen[0].grid
    psi1 = propagate_analytic(pair.geom, grid, pair.units, 1).amplitudes
    psi2 = propagate_analytic(pair.geom, grid, pair.units, 2).amplitudes
    overlap = det.overlap
    worst = 0.0
    for lo, hi in grid.blocks():
        a, b = psi1[lo:hi], psi2[lo:hi]
        direct = 0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2 + 2.0 * np.real(overlap * np.conj(a) * b))
        rho = screen_density(run.configured, lo, hi)
        worst = max(worst, float(np.abs(rho - direct).max()))
    return worst <= tol, f"max abs diff {worst:.3g}"


@_check("experiment.visibility_law")
def _chk_exp_visibility(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        worst = max(worst, abs(run.reading(c).visibility - c))
    return worst <= tol, f"max |V - c| = {worst:.3g}"


@_check("experiment.kick_fraction")
def _chk_exp_fraction(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        worst = max(worst, abs(run.reading(c).kick_fraction - (1.0 - c) / 2.0))
    return worst <= tol, f"max |F_k - (1-c)/2| = {worst:.3g}"


@_check("experiment.kick_fraction_vs_visibility")
def _chk_exp_fraction_vis(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _C_GRID:
        r = run.reading(c)
        worst = max(worst, abs(r.kick_fraction - (1.0 - r.visibility) / 2.0))
    return worst <= tol, f"max |F_k - (1-V)/2| = {worst:.3g}"


@_check("experiment.kick_magnitude")
def _chk_exp_kick(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for c in _KICK_C_GRID:
        try:
            kick = relative_kick(run.state(c))
        except EmptyBranchError as exc:  # both branches hold (1 - c)/2 > 0 here
            return False, f"no kick at c = {c}: {exc}"
        worst = max(worst, abs(kick - run.p0) / run.dp)
    return worst <= tol, f"worst offset {worst:.3g} bins"


@_check("experiment.detector_kick")
def _chk_exp_detector_kick(run: _Run, tol: float) -> tuple[bool, str]:
    off = abs(relative_kick(run.configured) - run.p0) / run.dp
    return off <= tol, f"off by {off:.3g} bins"


@_check("experiment.tilted_kick")
def _chk_exp_tilted(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for tp in _TILT_GRID:
        kick = relative_kick(change_basis(run.configured, tilted(tp)))
        worst = max(worst, abs(kick - run.p0) / run.dp)
    return worst <= tol, f"worst offset {worst:.3g} bins"


@_check("experiment.kick_identity")
def _chk_exp_identity(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    last = -1.0
    monotone = True
    for ratio in (0.005, 0.01, 0.02, 0.05):
        geom = SlitGeometry(d=1.0, sigma=ratio)
        grid = GridSpec(n=2048, x_min=-0.78, x_max=1.78)
        pair = SlitPair.emit(geom, grid, run.pair.units)
        measured = pair.kick_identity_residual
        oracle = math.sqrt(2.0 * (1.0 - math.exp(-math.pi**2 * ratio**2 / 2.0)))
        worst = max(worst, abs(measured - oracle) / oracle)
        monotone = monotone and measured > last
        last = measured
    detail = f"max rel dev {worst:.3g}" + ("" if monotone else "; NOT monotone in sigma/d")
    return worst <= tol and monotone, detail


@_check("experiment.comb_closed_form")
def _chk_exp_comb(run: _Run, tol: float) -> tuple[bool, str]:
    # Gaussian slits at x_i have comb matrix A_ij = exp(-(x_j + d - x_i)^2 /
    # (8 sigma^2)) / dp: the sum over the momentum grid of their shared
    # Gaussian momentum density times exp(-i*p*(x_j + d - x_i)/hbar).
    geom = run.pair.geom
    x = np.array(geom.centers)
    gap = x[np.newaxis, :] + geom.d - x[:, np.newaxis]
    closed = np.exp(-(gap**2) / (8.0 * geom.sigma**2)) / run.dp
    worst = float(np.abs(run.pair.comb - closed).max() / np.abs(closed).max())
    return worst <= tol, f"max rel dev {worst:.3g}"


@_check("experiment.phase_kick")
def _chk_exp_phase(run: _Run, tol: float) -> tuple[bool, str]:
    worst = 0.0
    for theta in _PHASE_GRID:
        state = run.state(0.5, theta)
        shift = phase_kick_shift(state)
        expected = theta * run.pair.units.hbar / run.pair.geom.d
        worst = max(worst, abs(shift - expected) / run.dp)
    return worst <= tol, f"worst offset {worst:.3g} bins"


@_check("experiment.phase_visibility")
def _chk_exp_phase_vis(run: _Run, tol: float) -> tuple[bool, str]:
    v0 = run.reading(0.5).visibility
    worst = max(abs(run.reading(0.5, theta).visibility - v0) for theta in _PHASE_GRID)
    return worst <= tol, f"max |V(theta) - V(0)| = {worst:.3g}"


@_check("experiment.storey_bound")
def _chk_exp_storey(run: _Run, tol: float) -> tuple[bool, str]:
    det, pair = run.cfg.detector, run.pair
    lhs = relative_kick(run.configured) * pair.geom.d / pair.units.hbar
    rhs = 1.0 - run.reading(det.c, det.theta).visibility
    return lhs >= rhs - tol, f"p0_measured*d/hbar = {lhs:.4g} >= 1 - V = {rhs:.3g}"


@_check("experiment.sampler_outcomes")
def _chk_exp_sampler(run: _Run, tol: float) -> tuple[bool, str]:
    codes, _ = run.events
    count = codes.size
    probs = run.configured.branch_probabilities()
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
def _chk_exp_gof(run: _Run, tol: float) -> tuple[bool, str]:
    _, xs = run.events
    observed, _ = np.histogram(xs, screen_bins(run.configured))
    _, pvalue = screen_goodness_of_fit(observed, xs.size)
    return pvalue > tol, f"p = {pvalue:.4f}"


@_check("experiment.sampler_determinism")
def _chk_exp_determinism(run: _Run, tol: float) -> tuple[bool, str]:
    seed = run.cfg.seed
    codes_a, xs_a = _draw(run.configured, 512, seed)
    codes_b, xs_b = _draw(run.configured, 512, seed)
    identical = np.array_equal(codes_a, codes_b) and np.array_equal(xs_a, xs_b)
    return identical, (
        "same seed reproduces events exactly" if identical else "event streams diverged"
    )


def run_checks(cfg: RunConfig) -> list[CheckResult]:
    """One result per check, in registry order, at the current ``TOLERANCES``."""
    run = _Run(cfg)
    return [check(run, TOLERANCES[name]) for name, check in _CHECKS]


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
