"""Branch-resolved two-slit interference with a which-way detector.

A run of the experiment is represented as a `BranchState`: the slit pair
``psi1``, ``psi2``, a detector basis, and a 3x2 complex matrix ``coeffs``
whose row ``i`` makes branch ``i`` as ``coeffs[i, 0]*psi1 + coeffs[i, 1]*psi2``,
one row per basis vector.  In the computational basis the branches are the
two flagged paths and the discrimination failure; rotating to the symmetric basis
``q+- = (q1 +- q2)/sqrt(2)`` re-expresses the same state as an un-kicked
branch, a branch carrying an apparent momentum kick of half a fringe
period, and the failure branch.  Basis changes act on the matrix and free
flight on the pair alone.  Everything observable is extracted from a
`BranchState` by the functions in this module, from the state alone: its
pair keeps the `SlitGeometry`, the run's `PhysicalUnits` and the pair it
flew from.  The detector's ``c`` and ``theta`` live only in ``coeffs``,
where `assemble` put them; their closed forms (``V = c``, ``F_k = (1 -
c)/2``, ``p_e = theta*hbar/d``) are the caller's to set beside a reading.

`read` takes one detector setting on an emitted pair to its `Reading`.  It
always reads the symmetric-basis state, so no readout basis moves a digit
of it; a caller's basis only labels branches and events.

Momentum kicks are read off the slit pair's 2x2 comb matrix ``A`` (see
`SlitPair.comb`), which free flight cannot change: a landed pair reads its
emission pair's.  The comb phase of a coefficient row ``r`` is the
argument of ``conj(r) @ A @ r``, and the kick between two rows follows
from the difference of their comb phases.  It lies in ``(-p0, p0]`` with
``p0 = pi*hbar/d`` and ``d`` the pair's slit separation; a shift of
exactly half a momentum fringe is its own mirror image and is reported
as ``+p0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EmptyBranchError
from .hilbert import COMPUTATIONAL, SYMMETRIC, Basis, DetectorConfig, basis_matrix, detector_states
from .wavepacket import (
    GridSpec,
    MomentumSpectrum,
    PhysicalUnits,
    SlitGeometry,
    Wavefunction,
    propagate_fft,
    slit_state,
    to_momentum,
)

__all__ = [
    "SlitPair",
    "BranchState",
    "ScreenPattern",
    "Reading",
    "assemble",
    "change_basis",
    "propagate_all",
    "screen_density",
    "fringe_window",
    "read",
    "relative_kick",
    "phase_kick_shift",
    "sample_events",
    "screen_goodness_of_fit",
]

#: Branch probabilities below this are treated as empty (no kick estimate).
EMPTY_BRANCH_TOL = 1e-14

#: Equal-probability bins in `screen_goodness_of_fit`.
GOF_BINS = 50

#: Fewest samples `screen_goodness_of_fit` accepts: ten expected per bin.
GOF_MIN_SAMPLES = 10 * GOF_BINS

#: Events `sample_events` draws per block: 2 MB of uniforms, whatever the
#: event count.
_SAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class SlitPair:
    """The slit wavefunctions ``psi1`` and ``psi2`` of ``geom`` on one grid.

    ``units`` are the run's: ``hbar`` reads its momenta and ``t`` is its
    flight.  ``emitted`` is the pair it flew from (set by `landed`),
    ``None`` at emission; a landed pair asks ``emitted`` about momentum.
    A run emits its pair once (`emit`) and `assemble`s every detector
    setting on it; the pair keeps its landed pair and comb matrix, so those
    settings share one of each.
    """

    psi1: Wavefunction
    psi2: Wavefunction
    geom: SlitGeometry
    units: PhysicalUnits
    emitted: SlitPair | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.psi1.grid != self.psi2.grid:
            raise ConfigurationError("both slit states must share one grid")

    @classmethod
    def emit(cls, geom: SlitGeometry, grid: GridSpec, units: PhysicalUnits) -> SlitPair:
        """The slit states of ``geom`` on ``grid``, emitted for a run in ``units``."""
        return cls(slit_state(geom, grid, 1), slit_state(geom, grid, 2), geom, units)

    @property
    def grid(self) -> GridSpec:
        return self.psi1.grid

    @cached_property
    def gram(self) -> np.ndarray:
        """The 2x2 overlap matrix ``<psi_i|psi_j> dx``."""
        a, b = self.psi1.amplitudes, self.psi2.amplitudes
        g = np.array([[np.vdot(a, a), np.vdot(a, b)], [np.vdot(b, a), np.vdot(b, b)]])
        g *= self.grid.dx
        g.setflags(write=False)  # shared by every state built on the pair
        return g

    @cached_property
    def landed(self) -> SlitPair:
        """Both states evolved freely for ``units.t``; a pair that has flown refuses."""
        if self.emitted is not None:
            raise ConfigurationError(f"this slit pair has already flown for t = {self.units.t}")
        psis = (propagate_fft(psi, self.geom, self.units) for psi in (self.psi1, self.psi2))
        pair = SlitPair(*psis, self.geom, self.units)
        object.__setattr__(pair, "emitted", self)
        return pair

    @cached_property
    def comb(self) -> np.ndarray:
        """The 2x2 comb matrix ``A_ij = sum_p conj(phi_i) phi_j exp(-i*p*d/hbar)``.

        ``phi_i`` is slit ``i``'s momentum spectrum and ``d`` the pair's slit
        separation.  For a row ``r = (a, b)``, ``conj(r) @ A @ r`` is the
        projection of the momentum density ``|a*phi1 + b*phi2|^2`` at the
        fringe frequency ``d/hbar``, whose argument is that row's comb phase.
        A landed pair returns its emission pair's.  Two FFTs per pair; the
        spectra themselves are not kept.
        """
        if self.emitted is not None:
            return self.emitted.comb
        hbar = self.units.hbar
        spec1 = to_momentum(self.psi1, hbar=hbar)
        phis = (spec1.amplitudes, to_momentum(self.psi2, hbar=hbar).amplitudes)
        w = np.exp(-1j * spec1.p * (self.geom.d / hbar))
        w_phi = np.empty_like(w)
        a = np.empty((2, 2), dtype=np.complex128)
        for j, phi_j in enumerate(phis):
            np.multiply(w, phi_j, out=w_phi)
            a[:, j] = [np.vdot(phi_i, w_phi) for phi_i in phis]
        a.setflags(write=False)
        return a

    @cached_property
    def kick_identity_residual(self) -> float:
        """How far the path-difference state is from a kicked path-sum state.

        The L2 norm of ``(psi1 - psi2)/sqrt2 - exp(i*pi*x/d) * (psi1 +
        psi2)/sqrt2`` at emission.  For slits much narrower than their
        separation the phase factor is nearly constant across each slit and
        the residual scales like ``pi*sigma/d``; it vanishes only in the
        zero-width limit.  A landed pair returns its emission pair's value.
        """
        if self.emitted is not None:
            return self.emitted.kick_identity_residual
        psi1, psi2 = self.psi1.amplitudes, self.psi2.amplitudes
        s = 1.0 / math.sqrt(2.0)
        phase = np.exp(1j * math.pi * self.grid.x / self.geom.d)
        diff = s * (psi1 - psi2) - phase * s * (psi1 + psi2)
        return float(math.sqrt(np.vdot(diff, diff).real * self.grid.dx))

    def spectra(self, rows: np.ndarray) -> list[MomentumSpectrum]:
        """Momentum spectra of ``a*psi1 + b*psi2``, one per row ``(a, b)``."""
        hbar = self.units.hbar
        phi1, phi2 = (to_momentum(psi, hbar=hbar).amplitudes for psi in (self.psi1, self.psi2))
        return [MomentumSpectrum(self.grid, a * phi1 + b * phi2, hbar=hbar) for a, b in rows]


@dataclass(frozen=True, eq=False)
class BranchState:
    """Branch ``i`` (outcome ``basis.outcomes[i]``) is ``coeffs[i] @ (psi1, psi2)``."""

    basis: Basis
    coeffs: np.ndarray
    pair: SlitPair

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (3, 2):
            raise ConfigurationError(f"coefficients have shape {coeffs.shape}, expected (3, 2)")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def branch(self, i: int) -> Wavefunction:
        """Branch ``i`` on the pair's grid, computed on each call."""
        (a, b), pair = self.coeffs[i], self.pair
        return Wavefunction(pair.grid, a * pair.psi1.amplitudes + b * pair.psi2.amplitudes)

    def branch_probabilities(self) -> np.ndarray:
        """Probability carried by each branch (its squared norm)."""
        c = self.coeffs
        return np.einsum("ij,jk,ik->i", c.conj(), self.pair.gram, c).real


@dataclass(frozen=True, eq=False)
class ScreenPattern:
    """A density on the grid of ``pair``, the slit pair that made it."""

    pair: SlitPair
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n,):
            raise ConfigurationError(
                f"pattern has shape {vals.shape}, expected ({self.grid.n},)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> GridSpec:
        return self.pair.grid


@dataclass(frozen=True)
class Reading:
    """One detector setting's fringes, kick fraction and kicks; see `read`.

    ``kick`` (q- against q+) and ``phase_kick`` (the failure branch) are
    ``nan`` where their branch is empty.
    """

    visibility: float
    fringe_period: float
    central_fringe_shift: float
    kick_fraction: float
    kick: float
    phase_kick: float


def assemble(pair: SlitPair, detector: DetectorConfig) -> BranchState:
    """Entangle the slit pair of a run with the detector.

    The run is ``(psi1*d1 + psi2*d2)/sqrt2``, so the coefficient matrix is
    `detector_states` over ``sqrt2``: the computational-basis branches

        (alpha*psi1/sqrt2, alpha*psi2/sqrt2, (beta*psi1 + delta*psi2)/sqrt2)

    with branch probabilities ``(1-c)/2, (1-c)/2, c``.
    """
    rows = detector_states(detector) * (1.0 / math.sqrt(2.0))
    return BranchState(COMPUTATIONAL, rows, pair)


def change_basis(state: BranchState, to: Basis) -> BranchState:
    """Re-express the branch state in another detector basis.

    The transform is unitary, so branch probabilities re-distribute while
    the summed screen density stays exactly the same.
    """
    return replace(state, basis=to, coeffs=basis_matrix(state.basis, to) @ state.coeffs)


def propagate_all(state: BranchState) -> BranchState:
    """Propagate every branch freely for the pair's ``units.t``.

    Propagation is linear, so it acts on the slit pair alone and commutes
    with :func:`change_basis`.  The wraparound guard reads the pair's own
    geometry; a state that has already flown raises ``ConfigurationError``.
    """
    return replace(state, pair=state.pair.landed)


def screen_density(state: BranchState) -> ScreenPattern:
    """Total screen density: the incoherent sum of branch densities.

    With ``M = coeffs^H coeffs`` it is ``M00 |psi1|^2 + M11 |psi2|^2 +
    2 Re(M01 conj(psi1) psi2)``.  Independent of the detector basis, since
    basis changes are unitary and leave ``M`` alone.
    """
    m = state.coeffs.conj().T @ state.coeffs
    psi1, psi2 = state.pair.psi1.amplitudes, state.pair.psi2.amplitudes
    cross = np.conj(psi1) * psi2
    cross *= 2.0 * m[0, 1]
    rho = m[0, 0].real * np.abs(psi1) ** 2 + m[1, 1].real * np.abs(psi2) ** 2 + cross.real
    return ScreenPattern(state.pair, rho)


def _far_field_period(pattern: ScreenPattern) -> float:
    pair, units = pattern.pair, pattern.pair.units
    if pair.emitted is None:
        raise ConfigurationError("the pattern never flew, so it has no far-field fringes")
    return 2.0 * math.pi * units.hbar * units.t / (units.mass * pair.geom.d)


def fringe_window(pattern: ScreenPattern) -> tuple[float, float]:
    """Analysis window: two far-field fringe periods around x = d/2."""
    period = _far_field_period(pattern)
    center = pattern.pair.geom.d / 2.0
    return (center - period, center + period)


def _refine_extremum(x: np.ndarray, v: np.ndarray, i: int, dx: float) -> tuple[float, float]:
    # Parabolic refinement through (i-1, i, i+1); assumes 0 < i < len(v)-1.
    vm, v0, vp = v[i - 1], v[i], v[i + 1]
    denom = vm - 2.0 * v0 + vp
    if denom == 0.0:
        return float(x[i]), float(v0)
    delta = 0.5 * (vm - vp) / denom
    return float(x[i] + delta * dx), float(v0 - 0.25 * (vm - vp) * delta)


def _fringe_analysis(pattern: ScreenPattern) -> tuple[float, float, float]:
    """``(visibility, fringe_period, central_fringe_shift)`` of a landed pattern.

    Visibility is ``(I_max - I_min)/(I_max + I_min)`` from the adjacent
    extremum pair nearest the centre of :func:`fringe_window`.  When the
    window holds no interior minima (no fringes, e.g. a fully decohered
    pattern) the contrast of the windowed values is reported instead, and
    the period falls back to the far-field estimate ``2*pi*hbar*t/(m*d)``
    so it stays positive.  A pattern whose pair never flew raises
    ``ConfigurationError``.
    """
    lo, hi = fringe_window(pattern)
    x = pattern.grid.x
    sel = (x >= lo) & (x <= hi)
    if lo >= hi or int(sel.sum()) < 5:
        raise ConfigurationError(f"analysis window {(lo, hi)} is malformed for this grid")
    xs = x[sel]
    vals = pattern.values[sel]
    dx = pattern.grid.dx
    center = 0.5 * (lo + hi)

    interior = np.arange(1, len(vals) - 1)
    v0, vm, vp = vals[interior], vals[interior - 1], vals[interior + 1]
    max_idx = interior[(v0 > vm) & (v0 > vp)]
    min_idx = interior[(v0 < vm) & (v0 < vp)]

    maxima = [_refine_extremum(xs, vals, i, dx) for i in max_idx]
    minima = [_refine_extremum(xs, vals, i, dx) for i in min_idx]

    if maxima and minima:
        x_max, v_max = min(maxima, key=lambda mv: abs(mv[0] - center))
        x_min, v_min = min(minima, key=lambda mv: abs(mv[0] - x_max))
        visibility = (v_max - v_min) / (v_max + v_min)
        if len(maxima) >= 2:
            pos = sorted(mv[0] for mv in maxima)
            period = float(np.median(np.diff(pos)))
        else:
            period = 2.0 * abs(x_max - x_min)
        central_max = x_max
    else:
        # No fringe structure worth the name: report the windowed contrast.
        v_max = float(vals.max())
        v_min = float(vals.min())
        visibility = (v_max - v_min) / (v_max + v_min)
        period = _far_field_period(pattern)
        i = int(np.argmax(vals))
        central_max = (
            _refine_extremum(xs, vals, i, dx)[0] if 0 < i < len(vals) - 1 else float(xs[i])
        )

    return float(visibility), float(period), float(central_max - pattern.pair.geom.d / 2.0)


def _comb_offset(pair: SlitPair, row_a: np.ndarray, row_b: np.ndarray) -> float:
    """Momentum displacement of row ``a``'s fringe comb against row ``b``'s.

    Slit 2's spectrum is slit 1's times ``exp(-i*p*d/hbar)``, so ``|phi2| =
    |phi1|`` and every row's momentum density is ``|phi1|^2 |a +
    b*exp(-i*p*d/hbar)|^2``: a comb of period ``2*p0 = 2*pi*hbar/d`` under
    one shared envelope.  Two such combs differ only by their comb phases,
    so the displacement is fixed by the phase difference, in ``(-p0, p0]``,
    with no whole fringe left to resolve.  A half-turn is reported as
    ``+p0``.

    Raises
    ------
    EmptyBranchError
        If either row has no fringe comb (a vanishing comb projection).
    """
    d, hbar = pair.geom.d, pair.units.hbar
    z_a, z_b = (np.vdot(r, pair.comb @ r) for r in (row_a, row_b))
    if min(abs(z_a), abs(z_b)) < EMPTY_BRANCH_TOL:
        raise EmptyBranchError("no fringe comb to read a phase from")
    p0 = math.pi * hbar / d
    offset = -np.angle(z_a * np.conj(z_b)) * hbar / d
    # Rounding can land an exact half-turn a hair inside -p0.
    if offset <= -p0 * (1.0 - 1e-12):
        offset += 2.0 * p0
    return float(offset)


def relative_kick(state: BranchState) -> float:
    """Momentum displacement of branch 1's comb against branch 0's, in the state's basis.

    In the symmetric basis that is the q- comb against the q+ comb: the
    half-fringe kick ``p0 = pi*hbar/d``, ``d`` the pair's.  A tilted basis
    slides both combs together and leaves their displacement at ``p0``;
    read a state in another basis with `change_basis` first.

    Raises
    ------
    EmptyBranchError
        If branch 0 or 1 is empty (as at c = 1) or has no fringe comb.
    """
    if state.branch_probabilities()[:2].min() < EMPTY_BRANCH_TOL:
        raise EmptyBranchError("interfering branches are empty; no relative kick")
    q_plus, q_minus = state.coeffs[:2]
    return _comb_offset(state.pair, q_minus, q_plus)


def phase_kick_shift(state: BranchState) -> float:
    """Momentum displacement of the failure branch against the phase-free one.

    The failure branch ``(beta*psi1 + delta*psi2)/sqrt2`` is common to all
    three bases, so any basis is accepted.  Returns the displacement of its
    momentum comb against the ``theta = 0`` failure spectrum's, which is
    ``theta*hbar/d`` for ``theta`` in ``(-pi, pi]``, ``d`` the pair's.
    """
    if state.branch_probabilities()[2] < EMPTY_BRANCH_TOL:
        raise EmptyBranchError("failure branch is empty; no phase kick to measure")
    phase_free = np.full(2, 1.0 / math.sqrt(2.0))
    return _comb_offset(state.pair, state.coeffs[2], phase_free)


def _or_nan(measure, state: BranchState) -> float:
    try:
        return measure(state)
    except EmptyBranchError:
        return math.nan


def read(pair: SlitPair, detector: DetectorConfig) -> Reading:
    """The `Reading` of ``detector`` on the emitted ``pair``, in the symmetric basis.

    The pair flies once, however many settings are read on it.
    """
    sym = change_basis(assemble(pair, detector), SYMMETRIC)
    visibility, period, shift = _fringe_analysis(screen_density(propagate_all(sym)))
    return Reading(
        visibility=visibility,
        fringe_period=period,
        central_fringe_shift=shift,
        kick_fraction=float(sym.branch_probabilities()[1]),
        kick=_or_nan(relative_kick, sym),
        phase_kick=_or_nan(phase_kick_shift, sym),
    )


def _cell_edges(grid: GridSpec) -> np.ndarray:
    # The n + 1 cell edges x_min + j*dx, filled in place.
    edges = np.arange(grid.n + 1, dtype=np.float64)
    edges *= grid.dx
    edges += grid.x_min
    return edges


def _cell_cdf(pattern_values: np.ndarray, grid: GridSpec) -> np.ndarray:
    # Piecewise-constant density per cell -> piecewise-linear CDF on the
    # cell edges, filled in place with no n-point temporaries.
    cdf = np.empty(grid.n + 1)
    cdf[0] = 0.0
    masses = np.multiply(pattern_values, grid.dx, out=cdf[1:])
    np.cumsum(masses, out=masses)
    total = cdf[-1]
    if total <= 0.0:
        raise EmptyBranchError("density integrates to zero; nothing to sample")
    cdf /= total
    return cdf


def sample_events(state: BranchState, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw detection events from a (propagated) branch state.

    Returns ``(codes, xs)``: for each event, the index of the outcome that
    fired in ``state.basis.outcomes`` and the landing position.  Outcomes
    follow the branch probabilities; positions are drawn from the selected
    branch's conditional density by inverting its piecewise-linear CDF.
    The generator is ``numpy.random.default_rng(seed)`` (PCG64), so a fixed
    seed reproduces the events bit for bit on any platform.

    Events are drawn ``_SAMPLE_BLOCK`` at a time, two uniforms each, so
    memory beyond the returned arrays does not grow with ``count``.  PCG64
    hands out its doubles in order, so the stream is the one a single
    ``(count, 2)`` draw gives.  A branch's cell CDF is built when its first
    event is drawn, on cell edges that all branches share.
    """
    if count < 0:
        raise DomainError(f"event count must be non-negative, got {count}")
    cum = np.cumsum(state.branch_probabilities())
    rng = np.random.default_rng(seed)
    codes = np.empty(count, dtype=np.intp)
    xs = np.empty(count)
    cdfs: dict[int, np.ndarray] = {}
    edges = _cell_edges(state.pair.grid)
    for start in range(0, count, _SAMPLE_BLOCK):
        u = rng.random((min(_SAMPLE_BLOCK, count - start), 2))
        block = slice(start, start + len(u))
        block_codes, block_xs = codes[block], xs[block]
        np.minimum(np.searchsorted(cum, u[:, 0], side="right"), 2, out=block_codes)
        for i in range(3):
            mask = block_codes == i
            if not mask.any():
                continue
            if i not in cdfs:
                cdfs[i] = _cell_cdf(state.branch(i).density(), state.pair.grid)
            block_xs[mask] = np.interp(u[mask, 1], cdfs[i], edges)
    return codes, xs


def screen_goodness_of_fit(
    xs: Sequence[float] | np.ndarray, pattern: ScreenPattern
) -> tuple[float, float]:
    """Chi-square goodness of fit of sampled positions against a pattern.

    Bins are ``GOF_BINS`` equal-probability quantiles of the pattern's
    cell-wise CDF, so every bin expects ``len(xs)/GOF_BINS`` counts.
    Returns Pearson's ``(statistic, p_value)`` with ``GOF_BINS - 1``
    degrees of freedom.  The statistic is the one ``scipy.stats.chisquare``
    gives; the p-value is the chi-square tail as a finite sum (Abramowitz &
    Stegun 26.4.4-5), so no scipy import is needed.
    Meant for strictly positive patterns such as propagated totals; exact
    zero-density stretches would collapse quantile bins.

    Raises
    ------
    DomainError
        If there are fewer than `GOF_MIN_SAMPLES` samples, or if some fall
        outside the pattern's bins.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size < GOF_MIN_SAMPLES:
        raise DomainError("too few samples for a meaningful binned test")
    cdf = _cell_cdf(pattern.values, pattern.grid)
    quantiles = np.linspace(0.0, 1.0, GOF_BINS + 1)
    bin_edges = np.interp(quantiles, cdf, _cell_edges(pattern.grid))
    observed, _ = np.histogram(xs, bins=bin_edges)
    missing = xs.size - int(observed.sum())
    if missing:
        raise DomainError(f"{missing} of {xs.size} samples fall outside the pattern's bins")
    expected = np.full(GOF_BINS, xs.size / GOF_BINS)
    stat = float(np.sum((observed.astype(np.float64) - expected) ** 2 / expected))
    return stat, _chi2_sf(GOF_BINS - 1, stat)


def _chi2_sf(dof: int, stat: float) -> float:
    # Chi-square survival function Q(dof/2, stat/2) for whole dof, as the
    # finite sums of Abramowitz & Stegun 26.4.4-5: the recurrence
    # Q(a + 1, x) = Q(a, x) + x**a * exp(-x) / Gamma(a + 1), started at
    # Q(1/2, x) = erfc(sqrt(x)) for odd dof and Q(1, x) = exp(-x) for even.
    # Every term is positive, so the sum cancels nothing.
    x = 0.5 * stat
    if dof % 2:
        a, q, term = 0.5, math.erfc(math.sqrt(x)), 2.0 * math.sqrt(x / math.pi) * math.exp(-x)
    else:
        a, q, term = 1.0, math.exp(-x), x * math.exp(-x)
    while a < 0.5 * dof:
        q += term
        a += 1.0
        term *= x / a
    return q
