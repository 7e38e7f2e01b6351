"""Command-line tools: run, scan, sample, and verify.

All commands read a flat ``key = value`` config file (every key optional;
see `kickscope.config`) and write plain CSV/text outputs into ``--out``,
or into the working directory without it.  A command commits its files as
one set: it writes all of them or, if anything fails first, none.  Outputs
are deterministic: the same config and seed produce byte-identical files.
Every number in a CSV is written ``%.17g``, which reads back as the same
float64, and tables are formatted in fixed blocks of rows, so the writer's
memory does not grow with the grid.  ``sample`` draws, writes, counts and
bins its events one sampler block at a time, so its memory is one block,
whatever ``sampling.count``.

Exit codes: 0 on success, 1 when verification fails, 2 on a configuration
or usage error (from every command, ``verify`` included) or when the
configured arrays do not fit in memory.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import RunConfig, default_config, load_config, parse_c_values
from .errors import KickscopeError
from .hilbert import DetectorConfig
from .experiment import (
    GOF_BINS,
    GOF_MIN_SAMPLES,
    SlitPair,
    assemble,
    change_basis,
    read,
    sample_events,
    screen_bins,
    screen_goodness_of_fit,
)
from .verify import run_suite

__all__ = ["main", "cmd_run", "cmd_scan", "cmd_sample"]

#: Rows formatted per write.  The writer's memory is one block, whatever
#: the table length; 2^16-row blocks already cost over 20 MB of Python
#: floats and text for a five-column table.
_BLOCK_ROWS = 1 << 12


def _fmt(value: float) -> str:
    return "%.17g" % value


def _commit(out_dir: Path, files: dict) -> None:
    """Write a command's output files as one set: all of them, or none.

    ``files`` maps each output name to a writer ``fn(fh)``.  Every file is
    written into one temporary directory inside ``out_dir``; only after
    every writer has returned is each renamed into place, in order, and
    reported.  A writer that raises, or a target that is a directory,
    leaves ``out_dir`` as it was.  What stays open is another rename
    failing part way through that final loop, which can still leave a
    mixed set.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".kickscope-", dir=out_dir))
    try:
        for name, write in files.items():
            if (out_dir / name).is_dir():
                raise IsADirectoryError(f"output {out_dir / name} is a directory")
            with open(tmp / name, "w", encoding="utf-8", newline="\n") as fh:
                write(fh)
        for name in files:
            os.replace(tmp / name, out_dir / name)
            print(f"wrote {out_dir / name}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_rows(
    fh, row_fmt: str, columns: list[np.ndarray], labels: np.ndarray | None = None
) -> None:
    """Write one ``row_fmt`` line per row of ``columns``, ``_BLOCK_ROWS`` rows per write.

    Each block is formatted by one ``%`` call over its cells in row order.
    With ``labels`` (an object array), the first column holds integer codes
    and is written as ``labels[code]``.
    """
    n_rows = len(columns[0])
    for lo in range(0, n_rows, _BLOCK_ROWS):
        cols = [col[lo : lo + _BLOCK_ROWS] for col in columns]
        if labels is not None:
            cols[0] = labels[cols[0]]
        block = np.column_stack(cols)
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_table(fh, header: list[str], columns: list[np.ndarray]) -> None:
    fh.write(",".join(header) + "\n")
    _write_rows(fh, ",".join(["%.17g"] * len(columns)) + "\n", columns)


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    """Simulate once; write pattern.csv, momentum.csv, and summary.txt.

    summary.txt is the setting's `read`, which does not depend on
    ``basis``: the basis picks only the branch columns of pattern.csv and
    momentum.csv.
    """
    pair = SlitPair.emit(cfg.geometry, cfg.grid, cfg.units)
    reading = read(pair, cfg.detector)
    state = change_basis(assemble(pair, cfg.detector), cfg.basis)
    # Theory from the config, each beside what the state measures.
    det, hbar, d = cfg.detector, cfg.units.hbar, cfg.geometry.d
    lines = [
        ("V_theory", _fmt(det.c)),
        ("V_measured", _fmt(reading.visibility)),
        ("fringe_period", _fmt(reading.fringe_period)),
        ("central_fringe_shift", _fmt(reading.central_fringe_shift)),
        ("F_k_theory", _fmt((1.0 - det.c) / 2.0)),
        ("F_k_branch", _fmt(reading.kick_fraction)),
        ("p0", _fmt(math.pi * hbar / d)),
        ("p0_measured", _fmt(reading.kick)),
        ("kick_identity_residual", _fmt(pair.kick_identity_residual)),
        ("p_e", _fmt(det.theta * hbar / d)),
        ("storey_lhs", _fmt(reading.kick * d / hbar)),
        ("storey_rhs", _fmt(1.0 - reading.visibility)),
    ]

    # Each table's columns live only inside its writer, one table at a time.
    def write_pattern(fh) -> None:
        branch_rho = [state.branch(i).density() for i in range(3)]
        total = branch_rho[0] + branch_rho[1] + branch_rho[2]
        _write_table(
            fh,
            ["x", "rho_total", "rho_branch1", "rho_branch2", "rho_branch3"],
            [pair.screen[0].grid.x, total] + branch_rho,
        )

    def write_momentum(fh) -> None:
        # Spectra are reported at emission time; free flight only changes
        # the phases, not these densities.
        spectra = pair.spectra(state.coeffs)
        _write_table(
            fh,
            ["p", "spec_branch1", "spec_branch2", "spec_branch3"],
            [spectra[0].p] + [s.density() for s in spectra],
        )

    _commit(
        out_dir,
        {
            "pattern.csv": write_pattern,
            "momentum.csv": write_momentum,
            "summary.txt": lambda fh: fh.writelines(f"{k}={v}\n" for k, v in lines),
        },
    )
    return 0


def cmd_scan(cfg: RunConfig, out_dir: Path, c_values: list[float]) -> int:
    """Sweep the overlap magnitude; write scan.csv with one row per c."""
    pair = SlitPair.emit(cfg.geometry, cfg.grid, cfg.units)
    rows = []
    for c in c_values:
        r = read(pair, DetectorConfig(c=c, theta=cfg.detector.theta))
        rows.append((c, r.visibility, r.kick_fraction, r.kick, pair.kick_identity_residual))
        print(f"c = {c:.4g}: V = {r.visibility:.4f}, F_k = {r.kick_fraction:.4f}")
    arr = np.array(rows)
    header = ["c", "V_measured", "F_k_branch", "p0_measured", "kick_identity_residual"]
    columns = [arr[:, i] for i in range(arr.shape[1])]
    _commit(out_dir, {"scan.csv": lambda fh: _write_table(fh, header, columns)})
    return 0


def cmd_sample(cfg: RunConfig, out_dir: Path) -> int:
    """Draw detection events; write events.csv and sample_summary.txt.

    events.csv's writer takes the events one `sample_events` block at a
    time: it writes each block, adds it to the outcome counts and the fit's
    bin counts, and drops it.  The summary is written from those counts.
    """
    pair = SlitPair.emit(cfg.geometry, cfg.grid, cfg.units)
    state = change_basis(assemble(pair, cfg.detector), cfg.basis)
    count = cfg.sample_count
    # The pair's screen is read here, so a box without the wraparound
    # headroom fails before any output.
    blocks = sample_events(state, count, cfg.seed)
    bins = screen_bins(state) if count >= GOF_MIN_SAMPLES else None
    counts = np.zeros(3, dtype=np.int64)
    observed = np.zeros(GOF_BINS, dtype=np.int64)
    outcomes = state.basis.outcomes
    labels = np.array(outcomes, dtype=object)

    def write_events(fh) -> None:
        fh.write("outcome,x\n")
        for codes, xs in blocks:
            _write_rows(fh, "%s,%.17g\n", [codes, xs], labels)
            counts[:] += np.bincount(codes, minlength=3)
            if bins is not None:
                observed[:] += np.histogram(xs, bins)[0]

    def write_summary(fh) -> None:
        lines = [f"count={count}\n", f"seed={cfg.seed}\n"]
        for o, n, p in zip(outcomes, counts.tolist(), state.branch_probabilities()):
            freq = n / count if count else 0.0
            lines.append(f"{o}: n={n} freq={freq:.6f} prob={_fmt(p)}\n")
        if bins is not None:
            stat, pvalue = screen_goodness_of_fit(observed, count)
            lines.append(f"chi_square={_fmt(stat)}\n")
            lines.append(f"chi_square_p={_fmt(pvalue)}\n")
        fh.writelines(lines)

    _commit(out_dir, {"events.csv": write_events, "sample_summary.txt": write_summary})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickscope",
        description="Two-slit interference with an imperfect which-way detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "simulate one configuration and write pattern/momentum/summary"),
        ("scan", "sweep the detector overlap magnitude c"),
        ("sample", "draw seeded detection events"),
        ("verify", "run the self-check suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="key=value config file")
        if name != "verify":
            cmd.add_argument(
                "--out", default=".", metavar="DIR", help="output directory (default: %(default)s)"
            )
        if name == "scan":
            cmd.add_argument(
                "--c-values",
                default="0,0.25,0.5,0.75,1",
                metavar="LIST",
                help="comma-separated overlap magnitudes (default: %(default)s)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.command == "verify":
            return run_suite(cfg)
        out_dir = Path(args.out)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, parse_c_values(args.c_values))
        return cmd_sample(cfg, out_dir)
    except (KickscopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(
            f"error: out of memory ({exc}); grid.n and sampling.count set the array sizes",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
