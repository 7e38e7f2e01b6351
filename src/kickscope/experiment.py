"""Branch-resolved two-slit interference with a which-way detector.

A run of the experiment is represented as a `BranchState`: the slit pair
``psi1``, ``psi2``, a detector basis, and a 3x2 complex matrix ``coeffs``
whose row ``i`` makes branch ``i`` as ``coeffs[i, 0]*psi1 + coeffs[i, 1]*psi2``,
one row per basis vector.  In the computational basis the branches are the
two flagged paths and the discrimination failure; rotating to the symmetric basis
``q+- = (q1 +- q2)/sqrt(2)`` re-expresses the same state as an un-kicked
branch, a branch carrying an apparent momentum kick of half a fringe
period, and the failure branch.  Basis changes act on the matrix alone.
Everything observable is extracted from a `BranchState` by the functions
in this module, from the state alone: its pair keeps the `SlitGeometry`
and the run's `PhysicalUnits`.  The detector's ``c`` and ``theta`` live
only in ``coeffs``, where `assemble` put them; their closed forms (``V =
c``, ``F_k = (1 - c)/2``, ``p_e = theta*hbar/d``) are the caller's to set
beside a reading.

A state is prepared once, at the slits.  Position reads (branches,
densities, fringes, events) use its pair's free flight, `SlitPair.screen`,
on the screen's own grid; momentum reads (probabilities, spectra, kicks)
use the emitted slits.

`read` takes one detector setting on a pair to its `Reading`.  It always
reads the symmetric-basis state, so no readout basis moves a digit of it;
a caller's basis only labels branches and events.  Its fringes come from
the screen density on `fringe_window` alone, about 1% of the default
grid, so a reading never forms the whole screen; `screen_density` does
that for the callers that want every point.

Momentum kicks are read off the slit pair's 2x2 comb matrix ``A`` (see
`SlitPair.comb`).  The comb phase of a coefficient row ``r`` is the
argument of ``conj(r) @ A @ r``, and the kick between two rows follows
from the difference of their comb phases.  It lies in ``(-p0, p0]`` with
``p0 = pi*hbar/d`` and ``d`` the pair's slit separation; a shift of
exactly half a momentum fringe is its own mirror image and is reported
as ``+p0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EmptyBranchError
from .hilbert import COMPUTATIONAL, SYMMETRIC, Basis, DetectorConfig, basis_matrix, detector_states
from .wavepacket import (
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    Wavefunction,
    check_headroom,
    fly,
    inner,
    momentum_chunks,
    slit_state,
)

__all__ = [
    "SlitPair",
    "BranchState",
    "Reading",
    "assemble",
    "change_basis",
    "screen_density",
    "fringe_window",
    "read",
    "relative_kick",
    "phase_kick_shift",
    "sample_events",
    "screen_bins",
    "screen_goodness_of_fit",
]

#: Branch probabilities below this are treated as empty (no kick estimate).
EMPTY_BRANCH_TOL = 1e-14

#: Equal-probability bins in `screen_goodness_of_fit`.
GOF_BINS = 50

#: Fewest samples `screen_goodness_of_fit` accepts: ten expected per bin.
GOF_MIN_SAMPLES = 10 * GOF_BINS

#: Events `sample_events` draws per block: 512 KiB of uniforms, and about
#: 1.6 MiB with the block's sort and interpolation temporaries, whatever
#: the event count.
_SAMPLE_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class SlitPair:
    """The slit wavefunctions ``psi1`` and ``psi2`` of ``geom`` on one grid.

    ``units`` are the run's: ``hbar`` reads its momenta and ``t`` is its
    flight.  A run emits its pair once (`emit`) and `assemble`s every
    detector setting on it; the pair keeps its `screen` and comb matrix,
    so those settings share one of each.  Both come from one forward FFT
    per slit, made when either is first read.

    Those two raw transforms are held by one reader at a time.  A
    `spectral_densities` pass takes the ones the pair holds, or makes its
    own, and once exhausted hands them back unless the pair has flown; the
    flight takes the held ones, or makes its own, and flies them in place.
    So a pass read before the flight leaves the flight no transform to
    make, and no array is read by one holder while another flies it.
    """

    psi1: Wavefunction
    psi2: Wavefunction
    geom: SlitGeometry
    units: PhysicalUnits

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

    def _live_chunks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """``(lo, hi, psi1[lo:hi], psi2[lo:hi])`` for `inner`'s chunks, in its order.

        A chunk where both slits are all zero is left out: it adds zero to
        every chunk-summed product of the two, which leaves `inner`'s
        running sum the same bit for bit.
        """
        psi1, psi2 = self.psi1.amplitudes, self.psi2.amplitudes
        for lo, hi in self.grid.sum_chunks():
            p1, p2 = psi1[lo:hi], psi2[lo:hi]
            if p1.any() or p2.any():
                yield lo, hi, p1, p2

    @cached_property
    def gram(self) -> np.ndarray:
        """The 2x2 overlap matrix ``<psi_i|psi_j> dx``, each entry summed in `inner`'s order."""
        g = np.zeros((2, 2), dtype=np.complex128)
        for _, _, *chunks in self._live_chunks():
            for i, u in enumerate(chunks):
                for j, v in enumerate(chunks):
                    g[i, j] += inner(u, v)
        g *= self.grid.dx
        g.setflags(write=False)  # shared by every state built on the pair
        return g

    def _take_transforms(self) -> list[np.ndarray]:
        """The raw slit transforms the pair holds, which pass to the caller, or two fresh ones."""
        raw = self.__dict__.pop("_transforms", None)
        if raw is None:
            raw = [np.fft.fft(psi.amplitudes) for psi in (self.psi1, self.psi2)]
        return raw

    @cached_property
    def _flight(self) -> tuple[np.ndarray, tuple[Wavefunction, Wavefunction]]:
        """``(comb, screen)`` from one forward FFT of each slit.

        The headroom is checked first.  The transforms are those a finished
        `spectral_densities` pass handed back, or fresh ones.  The comb is
        read off the two raw spectra chunk by chunk; then both fly in place
        and become the screen.
        """
        check_headroom(self.grid, self.geom, self.units)
        raw = self._take_transforms()
        hbar, grid = self.units.hbar, self.grid
        a = np.zeros((2, 2), dtype=np.complex128)
        for _, _, p, chunks in momentum_chunks(raw, grid, hbar):
            w = np.exp(-1j * p * (self.geom.d / hbar))
            for j, phi_j in enumerate(chunks):
                w_phi = w * phi_j
                for i, phi_i in enumerate(chunks):
                    a[i, j] += inner(phi_i, w_phi)
        a.setflags(write=False)
        return a, tuple(fly(raw, grid, self.units))

    @property
    def screen(self) -> tuple[Wavefunction, Wavefunction]:
        """``(psi1_t, psi2_t)``: both states evolved freely for ``units.t``.

        Every position read takes its grid from these wavefunctions.  A box
        without the wraparound headroom raises ``ConfigurationError`` here.
        """
        return self._flight[1]

    @property
    def comb(self) -> np.ndarray:
        """The 2x2 comb matrix ``A_ij = sum_p conj(phi_i) phi_j exp(-i*p*d/hbar)``.

        ``phi_i`` is slit ``i``'s momentum spectrum and ``d`` the pair's slit
        separation.  For a row ``r = (a, b)``, ``conj(r) @ A @ r`` is the
        projection of the momentum density ``|a*phi1 + b*phi2|^2`` at the
        fringe frequency ``d/hbar``, whose argument is that row's comb phase.
        Free flight multiplies both spectra by one phase, so the emitted
        slits give the comb on the screen too.  It shares the screen's two
        forward FFTs, so it also needs the screen's headroom.  One pass over
        `inner`'s chunks forms the spectra (`momentum_chunks`) and
        ``exp(-i*p*d/hbar)`` once per chunk and adds all four entries, each
        summed in `inner`'s order.
        """
        return self._flight[0]

    @cached_property
    def kick_identity_residual(self) -> float:
        """How far the path-difference state is from a kicked path-sum state.

        The L2 norm of ``(psi1 - psi2)/sqrt2 - exp(i*pi*x/d) * (psi1 +
        psi2)/sqrt2`` at emission.  For slits much narrower than their
        separation the phase factor is nearly constant across each slit and
        the residual scales like ``pi*sigma/d``; it vanishes only in the
        zero-width limit.
        """
        s = 1.0 / math.sqrt(2.0)
        squared = 0j
        for lo, hi, p1, p2 in self._live_chunks():
            phase = np.exp(1j * math.pi * self.grid.points(lo, hi) / self.geom.d)
            diff = s * (p1 - p2) - phase * s * (p1 + p2)
            squared += inner(diff, diff)
        return float(math.sqrt(squared.real * self.grid.dx))

    def spectral_densities(self, rows: np.ndarray) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
        """``(p, densities)`` per `inner` chunk: the momenta and ``|a*phi1 + b*phi2|^2`` per row.

        ``phi_i`` is slit ``i``'s momentum spectrum, read off a forward FFT
        of the emitted slit by `momentum_chunks`; only the two raw
        transforms are held whole.  The pass takes the transforms the pair
        holds, or makes its own, and once exhausted hands them back to the
        pair unless it has flown meanwhile, so a flight after the pass takes
        no transform of its own.
        """
        raw = self._take_transforms()
        for _, _, p, (phi1, phi2) in momentum_chunks(raw, self.grid, self.units.hbar):
            yield p, [np.abs(a * phi1 + b * phi2) ** 2 for a, b in rows]
        if "_flight" not in self.__dict__:
            self.__dict__["_transforms"] = raw


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

    def density_blocks(self, i: int) -> Iterator[np.ndarray]:
        """Branch ``i``'s density on the screen, one grid block at a time.

        Each block is ``|a*psi1_t + b*psi2_t|^2`` there, with ``(a, b)``
        row ``i`` of ``coeffs`` and ``(psi1_t, psi2_t)`` the pair's
        `SlitPair.screen`; no full-grid array is formed.
        """
        (a, b), (psi1, psi2) = self.coeffs[i], self.pair.screen
        for lo, hi in psi1.grid.blocks():
            yield np.abs(a * psi1.amplitudes[lo:hi] + b * psi2.amplitudes[lo:hi]) ** 2

    def branch_probabilities(self) -> np.ndarray:
        """Probability carried by each branch (its squared norm)."""
        c = self.coeffs
        return np.einsum("ij,jk,ik->i", c.conj(), self.pair.gram, c).real


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


def _density(coeffs: np.ndarray, psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    # M00 |psi1|^2 + M11 |psi2|^2 + 2 Re(M01 conj(psi1) psi2), M = coeffs^H coeffs,
    # point by point, so a slice of the pair gives the same slice of the density.
    m = coeffs.conj().T @ coeffs
    cross = np.conj(psi1) * psi2
    cross *= 2.0 * m[0, 1]
    return m[0, 0].real * np.abs(psi1) ** 2 + m[1, 1].real * np.abs(psi2) ** 2 + cross.real


def screen_density(state: BranchState, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Total density on the screen's grid points ``lo:hi``, all of them by default.

    It is the incoherent sum of branch densities: with ``M = coeffs^H
    coeffs``, ``M00 |psi1|^2 + M11 |psi2|^2 + 2 Re(M01 conj(psi1) psi2)``
    over the pair's `SlitPair.screen`, point by point, so a block of points
    reads the same values as the whole screen.  Independent of the detector
    basis, since basis changes are unitary and leave ``M`` alone.
    """
    psi1, psi2 = state.pair.screen
    return _density(state.coeffs, psi1.amplitudes[lo:hi], psi2.amplitudes[lo:hi])


def _far_field_period(pair: SlitPair) -> float:
    units = pair.units
    return 2.0 * math.pi * units.hbar * units.t / (units.mass * pair.geom.d)


def fringe_window(pair: SlitPair) -> tuple[float, float]:
    """Analysis window on the pair's screen: two far-field fringe periods around x = d/2."""
    period = _far_field_period(pair)
    center = pair.geom.d / 2.0
    return (center - period, center + period)


def _refine_extremum(x: np.ndarray, v: np.ndarray, i: int, dx: float) -> tuple[float, float]:
    # Parabolic refinement through (i-1, i, i+1); assumes 0 < i < len(v)-1.
    vm, v0, vp = v[i - 1], v[i], v[i + 1]
    denom = vm - 2.0 * v0 + vp
    if denom == 0.0:
        return float(x[i]), float(v0)
    delta = 0.5 * (vm - vp) / denom
    return float(x[i] + delta * dx), float(v0 - 0.25 * (vm - vp) * delta)


def _search(grid: GridSpec, value: float, side: str) -> int:
    """``np.searchsorted`` of ``value`` in ``grid``'s sorted points, on ``side``.

    The same bisection as numpy's, over points each formed by
    `GridSpec.points`, so no full-grid axis is formed.  NaN sorts after every point, as in numpy.
    """
    if math.isnan(value):
        return grid.n
    lo, hi = 0, grid.n
    while lo < hi:
        mid = (lo + hi) // 2
        x = grid.points(mid, mid + 1)[0]
        if x < value or (side == "right" and x == value):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _window(pair: SlitPair, grid: GridSpec) -> tuple[float, float, int, int]:
    """``(lo, hi, i0, i1)``: :func:`fringe_window` and the indices of ``grid``'s points in it.

    Raises
    ------
    ConfigurationError
        If the window is empty or holds fewer than 5 points.  The message
        names the config keys that set the window's width (two far-field
        periods ``2*pi*hbar*t/(m*d)``), and the grid's keys too when the
        window has a width but too few grid points in it.
    """
    lo, hi = fringe_window(pair)
    # The points lo <= x <= hi of the sorted grid.
    i0, i1 = _search(grid, lo, "left"), _search(grid, hi, "right")
    width_keys = "units.t, units.hbar, units.mass and geometry.d"
    if lo >= hi:
        raise ConfigurationError(
            f"analysis window {(lo, hi)} is malformed for this grid: its width, two "
            f"far-field fringe periods 2*pi*hbar*t/(m*d), is zero; check {width_keys}"
        )
    if i1 - i0 < 5:
        raise ConfigurationError(
            f"analysis window {(lo, hi)} is malformed for this grid: it holds {i1 - i0} "
            f"grid points, fewer than 5; check {width_keys}, which set its width, and "
            "grid.n, grid.x_min and grid.x_max, which set its points"
        )
    return lo, hi, i0, i1


def check_readable(pair: SlitPair) -> tuple[float, float, int, int]:
    """`read`'s two guards on ``pair``, in its order, and its fringe `_window`.

    The window must hold the fringes on the emission grid that the screen
    keeps, and the box must have the wraparound headroom
    (`check_headroom`); either raises ``ConfigurationError``.  Neither
    takes a transform, so a command that writes before it reads runs them
    first and fails before any output.
    """
    window = _window(pair, pair.grid)
    check_headroom(pair.grid, pair.geom, pair.units)
    return window


def _median(values: list[float]) -> float:
    """``np.median(values)`` bit for bit, without the ``numpy.ma`` import it brings.

    The middle value, or the mean ``(a + b)/2`` of the middle two, as numpy takes it.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _fringe_analysis(
    state: BranchState, window: tuple[float, float, int, int]
) -> tuple[float, float, float]:
    """``(visibility, fringe_period, central_fringe_shift)`` of a state on its screen.

    The state's total density is formed on ``window`` alone, the `_window`
    of the state's pair on the grid that its screen keeps.
    Visibility is ``(I_max - I_min)/(I_max + I_min)`` from the adjacent
    extremum pair nearest the centre of the window.  When the window holds
    no interior minima (no fringes, e.g. a fully decohered state) the
    contrast of the windowed values is reported instead, and the period
    falls back to the far-field estimate ``2*pi*hbar*t/(m*d)`` so it stays
    positive.
    """
    pair = state.pair
    psi1, psi2 = pair.screen
    lo, hi, i0, i1 = window
    xs, dx = psi1.grid.points(i0, i1), psi1.grid.dx
    vals = _density(state.coeffs, psi1.amplitudes[i0:i1], psi2.amplitudes[i0:i1])
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
            period = _median([b - a for a, b in zip(pos, pos[1:])])
        else:
            period = 2.0 * abs(x_max - x_min)
        central_max = x_max
    else:
        # No fringe structure worth the name: report the windowed contrast.
        v_max = float(vals.max())
        v_min = float(vals.min())
        visibility = (v_max - v_min) / (v_max + v_min)
        period = _far_field_period(pair)
        i = int(np.argmax(vals))
        central_max = (
            _refine_extremum(xs, vals, i, dx)[0] if 0 < i < len(vals) - 1 else float(xs[i])
        )

    return float(visibility), float(period), float(central_max - pair.geom.d / 2.0)


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
        If either row has no fringe comb: a comb projection ``|z|`` with
        ``|z|*dp``, which is free of units, below `EMPTY_BRANCH_TOL`.
    """
    d, hbar = pair.geom.d, pair.units.hbar
    z_a, z_b = (np.vdot(r, pair.comb @ r) for r in (row_a, row_b))
    if min(abs(z_a), abs(z_b)) * pair.grid.dp(hbar) < EMPTY_BRANCH_TOL:
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
    """The `Reading` of ``detector`` on ``pair``, in the symmetric basis.

    The fringes are read on ``pair.screen``, computed once however many
    settings are read; the kick fraction and the kicks on the emitted slits,
    the kicks off ``pair.comb``.  The comb and the screen share one forward
    FFT per slit, made at the first read of either.  Its guards
    (`check_readable`) run before both, so a config that cannot hold the
    fringe window or the flight fails before any transform.
    """
    window = check_readable(pair)
    sym = change_basis(assemble(pair, detector), SYMMETRIC)
    kick, phase_kick = _or_nan(relative_kick, sym), _or_nan(phase_kick_shift, sym)
    visibility, period, shift = _fringe_analysis(sym, window)
    return Reading(
        visibility=visibility,
        fringe_period=period,
        central_fringe_shift=shift,
        kick_fraction=float(sym.branch_probabilities()[1]),
        kick=kick,
        phase_kick=phase_kick,
    )


def _cell_cdf(blocks: Iterable[np.ndarray], grid: GridSpec) -> np.ndarray:
    # Piecewise-constant density per cell -> piecewise-linear CDF on the
    # cell edges.  The density comes in consecutive blocks, each scaled by
    # dx into place, so no n-point temporary is formed.
    cdf = np.empty(grid.n + 1)
    cdf[0] = 0.0
    masses, lo = cdf[1:], 0
    for values in blocks:
        np.multiply(values, grid.dx, out=masses[lo : lo + len(values)])
        lo += len(values)
    np.cumsum(masses, out=masses)
    total = cdf[-1]
    if total <= 0.0:
        raise EmptyBranchError("density integrates to zero; nothing to sample")
    cdf /= total
    return cdf


def sample_events(
    state: BranchState, count: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Draw detection events on the screen from a branch state, one block at a time.

    Yields ``(codes, xs)`` blocks of at most ``_SAMPLE_BLOCK`` events: for
    each event, the index of the outcome that fired in
    ``state.basis.outcomes`` and the landing position.  Outcomes follow
    the branch probabilities; positions are drawn from the selected
    branch's conditional density by inverting its piecewise-linear CDF
    (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. 2).  The
    generator is ``numpy.random.default_rng(seed)`` (PCG64), so a fixed
    seed reproduces the events bit for bit on any platform.

    Each block takes two uniforms per event.  PCG64 hands out its doubles
    in order, so the blocks, joined, are the stream a single ``(count,
    2)`` draw gives, and a caller that writes, counts or bins each block
    before asking for the next holds one block, whatever ``count``.  A
    block's position uniforms are inverted in ascending order, so each
    interpolation walks its CDF forwards.  A branch's cell CDF is built
    when its first event is drawn, on cell edges that all branches share.

    Raises
    ------
    DomainError
        If ``count`` is negative.  The count is checked and the pair's
        screen read on the call, before any block is asked for, so a box
        without the wraparound headroom raises ``ConfigurationError`` here
        too.
    """
    if count < 0:
        raise DomainError(f"event count must be non-negative, got {count}")
    grid = state.pair.screen[0].grid
    cum = np.cumsum(state.branch_probabilities())
    rng = np.random.default_rng(seed)
    cdfs: dict[int, np.ndarray] = {}
    edges = grid._edges

    def block(n: int) -> tuple[np.ndarray, np.ndarray]:
        # One block's events; its uniforms and their sort die when it returns.
        u = rng.random((n, 2))
        codes = np.searchsorted(cum, u[:, 0], side="right")
        np.minimum(codes, 2, out=codes)
        # Position uniforms in ascending order, so each branch's np.interp
        # walks its CDF forwards.
        order = np.argsort(u[:, 1])
        v = u[order, 1]
        del u
        sorted_codes = codes[order]
        xs = np.empty(n)
        for i in range(3):
            mask = sorted_codes == i
            if not mask.any():
                continue
            if i not in cdfs:
                cdfs[i] = _cell_cdf(state.density_blocks(i), grid)
            xs[order[mask]] = np.interp(v[mask], cdfs[i], edges)
        return codes, xs

    return (block(min(_SAMPLE_BLOCK, count - lo)) for lo in range(0, count, _SAMPLE_BLOCK))


def screen_bins(state: BranchState) -> np.ndarray:
    """The ``GOF_BINS + 1`` edges of equal-probability bins of a state's screen density.

    They are the quantiles ``0, 1/GOF_BINS, ..., 1`` of the cell-wise CDF
    of `screen_density`, so each bin expects the same share of the
    events.  ``np.histogram(xs, bins)`` counts positions into them, block
    by block if need be, for `screen_goodness_of_fit`.
    """
    grid = state.pair.screen[0].grid
    cdf = _cell_cdf((screen_density(state, lo, hi) for lo, hi in grid.blocks()), grid)
    return np.interp(np.linspace(0.0, 1.0, GOF_BINS + 1), cdf, grid._edges)


def screen_goodness_of_fit(
    observed: Sequence[int] | np.ndarray, count: int
) -> tuple[float, float]:
    """Chi-square goodness of fit of binned event counts against equal expectations.

    ``observed`` holds the counts of ``count`` sampled positions in the
    ``GOF_BINS`` bins of `screen_bins`, so every bin expects
    ``count/GOF_BINS`` of them.  Returns Pearson's ``(statistic,
    p_value)`` with ``GOF_BINS - 1`` degrees of freedom.  The statistic is
    the one ``scipy.stats.chisquare`` gives; the p-value is the chi-square
    tail as a finite sum (Abramowitz & Stegun 26.4.4-5), so no scipy
    import is needed.  Meant for strictly positive densities such as those
    on the screen; exact zero-density stretches would collapse quantile
    bins.

    Raises
    ------
    DomainError
        If ``count`` is below `GOF_MIN_SAMPLES`, if ``observed`` is not
        ``GOF_BINS`` counts, or if the bins hold other than ``count``
        samples, as when some fall outside the pattern's bins.
    """
    observed = np.asarray(observed)
    if count < GOF_MIN_SAMPLES:
        raise DomainError("too few samples for a meaningful binned test")
    if observed.shape != (GOF_BINS,):
        raise DomainError(f"expected {GOF_BINS} bin counts, got shape {observed.shape}")
    missing = count - int(observed.sum())
    if missing:
        raise DomainError(f"{missing} of {count} samples fall outside the pattern's bins")
    expected = np.full(GOF_BINS, count / GOF_BINS)
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
