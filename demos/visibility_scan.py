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

from kickscope import DetectorConfig, GridSpec, PhysicalUnits, SlitGeometry, SlitPair, read

GEOM = SlitGeometry(d=1.0, sigma=0.02)
GRID = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
UNITS = PhysicalUnits(t=1.0)


def main() -> None:
    print(__doc__)
    print(f"{'c':>6} {'V':>8} {'F_k':>8} {'(1-V)/2':>9} {'kick/p0':>8}")
    pair = SlitPair.emit(GEOM, GRID, UNITS)  # every detector setting flies this pair once
    p0 = math.pi * UNITS.hbar / GEOM.d
    for c in np.linspace(0.0, 1.0, 11):
        r = read(pair, DetectorConfig(c=float(c)))
        # At c = 1 nothing is kicked, so there is no comb to read.
        kick = "--" if math.isnan(r.kick) else f"{r.kick / p0:8.5f}"
        print(
            f"{c:6.2f} {r.visibility:8.4f} {r.kick_fraction:8.4f} "
            f"{(1.0 - r.visibility) / 2.0:9.4f} {kick:>8}"
        )
    print()
    print("F_k follows (1 - V)/2 all the way from perfect fringes (c = 1,")
    print("nothing kicked) to a perfect which-way readout (c = 0, half of")
    print("all particles kicked), and the kick never changes size.")


if __name__ == "__main__":
    main()
