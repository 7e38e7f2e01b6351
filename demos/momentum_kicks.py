"""Where the lost interference goes: a fixed transverse momentum kick.

In the symmetric readout the q+ branch looks exactly like the detector-free
double slit, while the q- branch is the same comb of momentum fringes slid
by half a period, p0 = pi*hbar/d = h/(2d).  Rotating the readout basis
slides both combs together but never changes their relative displacement —
the kick is a property of the decomposition, not of how we look at it.
"""

import math

import numpy as np

from kickscope import (
    SYMMETRIC,
    DetectorConfig,
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    SlitPair,
    assemble,
    change_basis,
    relative_kick,
    tilted,
)

GEOM = SlitGeometry(d=1.0, sigma=0.02)
GRID = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
UNITS = PhysicalUnits(t=1.0)
DETECTOR = DetectorConfig(c=0.5)


def comb_peaks(p, rho, count=3):
    """Positions of the first few maxima at p >= 0 of the momentum density ``rho``."""
    interior = np.arange(1, len(rho) - 1)
    peaks = interior[(rho[interior] > rho[interior - 1]) & (rho[interior] > rho[interior + 1])]
    positive = p[peaks][p[peaks] >= -1e-9]
    return np.sort(positive)[:count]


def main() -> None:
    print(__doc__)
    state = change_basis(assemble(SlitPair.emit(GEOM, GRID, UNITS), DETECTOR), SYMMETRIC)
    p0 = math.pi * UNITS.hbar / GEOM.d
    f_k = state.branch_probabilities()[1]
    # The q+ and q- momentum densities, joined from their chunks, read
    # before the first kick flies the pair, so the flight takes the pass's
    # two transforms.
    columns = zip(*([p, *rho] for p, rho in state.pair.spectral_densities(state.coeffs[:2])))
    p, plus, minus = (np.concatenate(column) for column in columns)

    print(f"expected kick   p0 = pi*hbar/d = {p0:.6f}")
    print(f"measured kick        q- vs q+  = {relative_kick(state):.6f}")
    print(f"kicked fraction                = {f_k:.4f}  (theory {(1.0 - DETECTOR.c) / 2.0})")
    print()

    plus_peaks = comb_peaks(p, plus)
    minus_peaks = comb_peaks(p, minus)
    print("first momentum-comb maxima at p >= 0 (comb period 2*p0):")
    print("  q+ branch:", "  ".join(f"{p:8.4f}" for p in plus_peaks))
    print("  q- branch:", "  ".join(f"{p:8.4f}" for p in minus_peaks))
    print()

    print("relative kick measured in tilted readout bases:")
    for tp in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
        shift = relative_kick(change_basis(state, tilted(tp)))
        print(f"  tilt {tp:8.5f} rad -> kick {shift:.6f}")
    print()
    print("Half of the no-click events took a kick of exactly p0; none of")
    print("them took anything bigger or smaller.")


if __name__ == "__main__":
    main()
