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
    PhysicalUnits,
    SlitGeometry,
    SlitPair,
    assemble,
    change_basis,
    fringe_window,
    sample_events,
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
    codes, xs = sample_events(state, args.count, args.seed)
    fired = {o: codes == i for i, o in enumerate(state.basis.outcomes)}

    print(f"{args.count} events, seed {args.seed}:")
    for outcome in state.basis.outcomes:
        n = int(np.count_nonzero(fired[outcome]))
        print(f"  {outcome:8s} {n:7d}  ({n / args.count:.4f})")
    print()

    lo, hi = fringe_window(state.pair)
    print(f"landing histograms inside the fringe window [{lo:.2f}, {hi:.2f}]:")
    in_window = (xs >= lo) & (xs <= hi)
    rows = {o: histogram_row(xs[fired[o] & in_window], lo, hi) for o in fired}
    print(f"{'x':>8}  " + "".join(f"{o:<42}" for o in rows))
    edges = np.linspace(lo, hi, len(rows["q_plus"]) + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    for i, x in enumerate(centers):
        print(f"{x:8.3f}  " + "".join(f"{row[i]:<42}" for row in rows.values()))
    print()
    print("q- peaks sit exactly in the q+ valleys: those particles took a")
    print("momentum kick of half a fringe.  The failures mirror q+ because")
    print("the detector overlap is real here (theta = 0).")


if __name__ == "__main__":
    main()
