"""Full-grid kick estimators, kept as the oracle for the comb-matrix forms.

`kickscope.experiment` reads every momentum kick off a slit pair's 2x2
comb matrix.  The estimators here compute the same numbers the long way,
from the branch momentum densities on the whole grid: a circular
cross-correlation argmax (`momentum_shift`), the single-frequency
projection at ``d/hbar`` (`_comb_projection`), and their combination
(`_comb_shift`), which takes the comb phase for the sub-bin offset and
the argmax for the whole fringe.  `apply_kick` boosts a state by a known
momentum, to give them a kick to find.
"""

from __future__ import annotations

import math

import numpy as np

from kickscope import ConfigurationError, EmptyBranchError, MomentumSpectrum, Wavefunction
from kickscope.experiment import EMPTY_BRANCH_TOL


def apply_kick(psi: Wavefunction, p: float, hbar: float) -> Wavefunction:
    """Impart a momentum boost ``p``: multiply by ``exp(i*p*x/hbar)``.

    Displaces the momentum spectrum by ``+p`` and leaves the position
    density untouched.
    """
    return Wavefunction(psi.grid, psi.amplitudes * np.exp(1j * (p / hbar) * psi.grid.x))


def momentum_shift(
    spec_a: MomentumSpectrum, spec_b: MomentumSpectrum, tie_rel_tol: float = 1e-9
) -> float:
    """Displacement of spectrum ``a`` relative to ``b`` in momentum.

    Computed as the argmax of the circular cross-correlation of the two
    momentum densities.  A displacement of exactly half a momentum-fringe
    period correlates equally well at the opposite sign, so candidates
    within ``tie_rel_tol`` of the maximum are tied and the tie is broken
    toward the smallest magnitude, then toward the non-negative shift.

    Raises
    ------
    EmptyBranchError
        If either spectrum carries no probability.
    ConfigurationError
        If the spectra live on different grids.
    """
    if spec_a.grid != spec_b.grid or spec_a.hbar != spec_b.hbar:
        raise ConfigurationError("spectra must share one momentum grid")
    a = spec_a.density()
    b = spec_b.density()
    if a.sum() < EMPTY_BRANCH_TOL or b.sum() < EMPTY_BRANCH_TOL:
        raise EmptyBranchError("cannot estimate a shift from an empty spectrum")
    n = spec_a.grid.n
    corr = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), n)
    cmax = corr.max()
    ties = np.flatnonzero(corr >= cmax - tie_rel_tol * abs(cmax))
    # Map to signed bins; the Nyquist bin n//2 stays positive so the
    # tie-break below can prefer the non-negative half-turn.
    signed = np.where(ties > n // 2, ties - n, ties)
    best = min(signed, key=lambda s: (abs(int(s)), int(s) < 0))
    return float(best * spec_a.dp)


def _comb_projection(spec: MomentumSpectrum, d: float) -> complex:
    """Single-frequency transform of the momentum density at the fringe
    frequency ``d/hbar``; its argument is the comb phase."""
    rho = spec.density()
    return complex(np.sum(rho * np.exp(-1j * spec.p * (d / spec.hbar))))


def _comb_shift(spec_a: MomentumSpectrum, spec_b: MomentumSpectrum, d: float) -> float:
    """Relative displacement of two fringe-comb spectra, to sub-bin accuracy.

    The comb phase gives the offset within one fringe, in ``(-p0, p0]``;
    the cross-correlation argmax picks the whole fringe.  Half-turn
    displacements are reported as ``+p0``, matching `momentum_shift`.
    """
    p0 = math.pi * spec_a.hbar / d
    z_a = _comb_projection(spec_a, d)
    z_b = _comb_projection(spec_b, d)
    if min(abs(z_a), abs(z_b)) < EMPTY_BRANCH_TOL:
        # No comb structure to read a phase from; fall back to the argmax.
        return momentum_shift(spec_a, spec_b)
    offset = -np.angle(z_a * np.conj(z_b)) * spec_a.hbar / d
    if offset <= -p0 * (1.0 - 1e-12):
        offset += 2.0 * p0
    coarse = momentum_shift(spec_a, spec_b)
    branch = round((coarse - offset) / (2.0 * p0))
    return float(offset + 2.0 * p0 * branch)
