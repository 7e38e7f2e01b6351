"""Full-grid spectra and kick estimators, kept as the oracle for the package's forms.

`kickscope.wavepacket.momentum_chunks` reads a centered spectrum chunk by
chunk off a raw FFT, and `kickscope.experiment` reads every momentum kick
off a slit pair's 2x2 comb matrix.  `centered_spectrum` forms a whole
spectrum straight from its definition, and the estimators here compute
the kicks the long way, from momentum densities on the whole grid: a
circular cross-correlation argmax (`momentum_shift`), the single-frequency
projection at ``d/hbar`` (`_comb_projection`), and their combination
(`_comb_shift`), which takes the comb phase for the sub-bin offset and
the argmax for the whole fringe.  `apply_kick` boosts a state by a known
momentum, to give them a kick to find.
"""

from __future__ import annotations

import math

import numpy as np

from kickscope import EmptyBranchError, Wavefunction
from kickscope.experiment import EMPTY_BRANCH_TOL


def apply_kick(psi: Wavefunction, p: float, hbar: float) -> Wavefunction:
    """Impart a momentum boost ``p``: multiply by ``exp(i*p*x/hbar)``.

    Displaces the momentum spectrum by ``+p`` and leaves the position
    density untouched.
    """
    x = psi.grid.points(0, psi.grid.n)
    return Wavefunction(psi.grid, psi.amplitudes * np.exp(1j * (p / hbar) * x))


def centered_spectrum(psi: Wavefunction, hbar: float) -> np.ndarray:
    """``psi``'s momentum amplitudes on the whole grid ``grid.momenta(hbar, 0, n)``.

    ``dx/sqrt(2*pi*hbar) * exp(-i*p*x_min/hbar) * fftshift(fft(psi))``:
    the FFT's halves swapped whole, with no index arithmetic of
    `momentum_chunks`'.
    """
    grid = psi.grid
    p = grid.momenta(hbar, 0, grid.n)
    phase = grid.dx / math.sqrt(2.0 * math.pi * hbar) * np.exp(-1j * p * (grid.x_min / hbar))
    # Bound to a name, so numpy cannot reuse fftshift's temporary for the
    # product and take it as shifted*phase: AVX-512's complex multiply is
    # not bitwise commutative.
    shifted = np.fft.fftshift(np.fft.fft(psi.amplitudes))
    return phase * shifted


def branch_densities(pair, rows) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(p, densities)``: the whole momentum grid and ``|a*phi1 + b*phi2|^2`` per row.

    ``(a, b)`` is a row and ``phi_i`` `centered_spectrum` of the pair's emitted slit ``i``.
    """
    hbar, grid = pair.units.hbar, pair.grid
    phi1, phi2 = (centered_spectrum(psi, hbar) for psi in (pair.psi1, pair.psi2))
    return grid.momenta(hbar, 0, grid.n), [np.abs(a * phi1 + b * phi2) ** 2 for a, b in rows]


def momentum_shift(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, tie_rel_tol: float = 1e-9
) -> float:
    """Displacement of momentum density ``a`` relative to ``b``, both on the centered grid ``p``.

    Computed as the argmax of the circular cross-correlation of the two
    densities.  A displacement of exactly half a momentum-fringe period
    correlates equally well at the opposite sign, so candidates within
    ``tie_rel_tol`` of the maximum are tied and the tie is broken toward
    the smallest magnitude, then toward the non-negative shift.

    Raises
    ------
    EmptyBranchError
        If either density carries no probability.
    """
    if a.sum() < EMPTY_BRANCH_TOL or b.sum() < EMPTY_BRANCH_TOL:
        raise EmptyBranchError("cannot estimate a shift from an empty spectrum")
    n = len(p)
    corr = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), n)
    cmax = corr.max()
    ties = np.flatnonzero(corr >= cmax - tie_rel_tol * abs(cmax))
    # Map to signed bins; the Nyquist bin n//2 stays positive so the
    # tie-break below can prefer the non-negative half-turn.
    signed = np.where(ties > n // 2, ties - n, ties)
    best = min(signed, key=lambda s: (abs(int(s)), int(s) < 0))
    return float(best * p[n // 2 + 1])  # p[n/2] is 0, so p[n/2 + 1] is dp


def _comb_projection(p: np.ndarray, rho: np.ndarray, d: float, hbar: float) -> complex:
    """Single-frequency transform of the momentum density at the fringe
    frequency ``d/hbar``; its argument is the comb phase."""
    return complex(np.sum(rho * np.exp(-1j * p * (d / hbar))))


def _comb_shift(p: np.ndarray, a: np.ndarray, b: np.ndarray, d: float, hbar: float) -> float:
    """Relative displacement of two fringe-comb densities on ``p``, to sub-bin accuracy.

    The comb phase gives the offset within one fringe, in ``(-p0, p0]``;
    the cross-correlation argmax picks the whole fringe.  Half-turn
    displacements are reported as ``+p0``, matching `momentum_shift`.
    """
    p0 = math.pi * hbar / d
    z_a = _comb_projection(p, a, d, hbar)
    z_b = _comb_projection(p, b, d, hbar)
    if min(abs(z_a), abs(z_b)) < EMPTY_BRANCH_TOL:
        # No comb structure to read a phase from; fall back to the argmax.
        return momentum_shift(p, a, b)
    offset = -np.angle(z_a * np.conj(z_b)) * hbar / d
    if offset <= -p0 * (1.0 - 1e-12):
        offset += 2.0 * p0
    coarse = momentum_shift(p, a, b)
    branch = round((coarse - offset) / (2.0 * p0))
    return float(offset + 2.0 * p0 * branch)
