"""Sweep the which-way detector quality and watch the fringes fade.

The detector's two pointer states overlap by c*exp(i*theta).  Splitting
the run into unambiguous outcomes leaves three branches: two that still
interfere (one of them kicked by half a fringe) and a failure branch with
weight c.  This scan shows the two faces of the same number:

* the interference pattern's visibility equals c, and
* the kicked branch carries probability (1 - c)/2 = (1 - V)/2.

Decoherence, read event by event, is just a coin flip that sometimes
hands the particle a transverse momentum p0 = pi*hbar/d.
"""

import math

import numpy as np

from kickscope import (
    SYMMETRIC,
    DetectorConfig,
    EmptyBranchError,
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    SlitPair,
    assemble,
    change_basis,
    fringe_analysis,
    propagate_all,
    relative_kick,
    screen_density,
)

GEOM = SlitGeometry(d=1.0, sigma=0.02)
GRID = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
UNITS = PhysicalUnits(t=1.0)


def main() -> None:
    print(__doc__)
    print(f"{'c':>6} {'V':>8} {'F_k':>8} {'(1-V)/2':>9} {'kick/p0':>8}")
    pair = SlitPair.emit(GEOM, GRID, UNITS)  # every detector setting flies this pair once
    p0 = math.pi * UNITS.hbar / GEOM.d
    for c in np.linspace(0.0, 1.0, 11):
        detector = DetectorConfig(c=float(c))
        state = change_basis(assemble(pair, detector), SYMMETRIC)
        pattern = screen_density(propagate_all(state))
        fringes = fringe_analysis(pattern)
        try:
            kick = f"{relative_kick(state) / p0:8.5f}"
        except EmptyBranchError:  # c = 1: nothing kicked, no comb to read
            kick = "--"
        print(
            f"{c:6.2f} {fringes.visibility:8.4f} {state.branch_probabilities()[1]:8.4f} "
            f"{(1.0 - fringes.visibility) / 2.0:9.4f} {kick:>8}"
        )
    print()
    print("F_k follows (1 - V)/2 all the way from perfect fringes (c = 1,")
    print("nothing kicked) to a perfect which-way readout (c = 0, half of")
    print("all particles kicked), and the kick never changes size.")


if __name__ == "__main__":
    main()
