"""Event-by-event view: seeded detections sorted by detector outcome.

Draws a run of individual particles, each tagged with the unambiguous
detector outcome (q+, q-, or failure) and a landing position.  Binning
the positions per outcome shows three textures of the same experiment:
plain fringes (q+), fringes slid half a period (q-), and fringes again
for the failures (which at theta = 0 match q+).
"""

import argparse

import numpy as np

from kickscope import (
    SYMMETRIC,
    DetectorConfig,
    GridSpec,
    Outcome,
    PhysicalUnits,
    SlitGeometry,
    SlitPair,
    assemble,
    change_basis,
    fringe_window,
    propagate_all,
    sample_events,
    screen_density,
)

GEOM = SlitGeometry(d=1.0, sigma=0.02)
GRID = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
UNITS = PhysicalUnits(t=1.0)


def histogram_row(xs, lo, hi, bins=61, width=40):
    counts, _ = np.histogram(xs, bins=bins, range=(lo, hi))
    top = counts.max() if counts.max() else 1
    return ["#" * int(round(width * c / top)) for c in counts]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--count", type=int, default=200_000)
    args = parser.parse_args()

    print(__doc__)
    detector = DetectorConfig(c=0.5)
    state = change_basis(assemble(SlitPair.emit(GEOM, GRID, UNITS), detector), SYMMETRIC)
    propagated = propagate_all(state)
    codes, xs = sample_events(propagated, args.count, args.seed)
    fired = {o: codes == i for i, o in enumerate(propagated.basis.outcomes)}

    print(f"{args.count} events, seed {args.seed}:")
    for outcome in (Outcome.Q_PLUS, Outcome.Q_MINUS, Outcome.Q3):
        n = int(np.count_nonzero(fired[outcome]))
        print(f"  {outcome.value:8s} {n:7d}  ({n / args.count:.4f})")
    print()

    lo, hi = fringe_window(screen_density(propagated))
    print(f"landing histograms inside the fringe window [{lo:.2f}, {hi:.2f}]:")
    in_window = (xs >= lo) & (xs <= hi)
    rows = {
        o: histogram_row(xs[fired[o] & in_window], lo, hi)
        for o in (Outcome.Q_PLUS, Outcome.Q_MINUS, Outcome.Q3)
    }
    header = f"{'x':>8}  {'q_plus':<42}{'q_minus':<42}{'q3':<42}"
    print(header)
    edges = np.linspace(lo, hi, len(rows[Outcome.Q_PLUS]) + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    for i, x in enumerate(centers):
        print(
            f"{x:8.3f}  {rows[Outcome.Q_PLUS][i]:<42}"
            f"{rows[Outcome.Q_MINUS][i]:<42}{rows[Outcome.Q3][i]:<42}"
        )
    print()
    print("q- peaks sit exactly in the q+ valleys: those particles took a")
    print("momentum kick of half a fringe.  The failures mirror q+ because")
    print("the detector overlap is real here (theta = 0).")


if __name__ == "__main__":
    main()
