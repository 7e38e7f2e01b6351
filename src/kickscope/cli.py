"""Command-line tools: run, scan, sample, and verify.

All commands read a flat ``key = value`` config file (every key optional;
see `kickscope.config`) and write plain CSV/text outputs into ``--out``,
or into the working directory without it.  A command commits its files as
one set: it writes all of them or, if anything fails first, none.  Outputs
are deterministic: the same config and seed produce byte-identical files,
and ``verify`` the same stdout, on any core count, since every inner
product over the grid is summed in one fixed order (`wavepacket.inner`),
and at any numpy SIMD dispatch level from AVX2 (``X86_V3``) up, since the
slit Gaussians take numpy's complex ``exp``, whose bits do not change with
it.  The ``X86_V2`` baseline and AArch64 were not tested.
Every number in a CSV is the text of ``"%.17g" % value``, which reads back
as the same float64.  The writer forms that text in numpy, in fixed blocks
of rows, so its memory does not grow with the grid; it leaves to ``%``
only inf, nan and the values within 1e-9 of a 17-digit rounding tie.
``sample`` draws, writes, counts and bins its events one sampler block at
a time, so its memory is one block, whatever ``sampling.count``.

Memory grows with the grid ``n`` alone, counted in arrays of ``n`` complex
values (``16*n`` bytes).  The slit pair, its screen and the grid's cell
edges are 4.5 of them, and each stage adds only its own result, since
every elementwise pass over the grid runs in fixed-size blocks.  ``run``
holds at most 7.5 arrays (``momentum.csv``'s two slit spectra are its
largest stage), ``scan`` 5.0, ``sample`` 6.5 (three cell CDFs) and
``verify`` 7.0 (the ``kick_displacement`` row's kicked state and its
spectrum), beside fixed-size blocks and the interpreter.

At start-up, before numpy loads, the module sets ``OPENBLAS_NUM_THREADS=1``
unless the environment chose a BLAS thread count, so OpenBLAS starts no
worker threads; only ``verify`` loads `kickscope.verify`.

Exit codes: 0 on success, 1 when verification fails, 2 on a configuration
or usage error (from every command, ``verify`` included) or when the
configured arrays do not fit in memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

# OpenBLAS starts a spin-waiting worker per core while numpy loads.  No BLAS
# call here multiplies more than 3x3 and every inner product over a grid is
# BLAS-free (`wavepacket.inner`), so the command runs OpenBLAS on one thread
# unless the environment chose a count.  Where numpy is already loaded, its
# pool exists and the process is a host program's, so nothing is set.
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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

__all__ = ["main", "cmd_run", "cmd_scan", "cmd_sample"]

#: Rows formatted per write.  The writer's memory is one block, whatever
#: the table length: about 150 bytes of numpy scratch per cell, 3 MiB for
#: a five-column block.
_BLOCK_ROWS = 1 << 12


def _fmt(value: float) -> str:
    return "%.17g" % value


# Every CSV number is the text of ``"%.17g" % x``, formed in numpy a block
# at a time.  For finite x != 0 with decimal exponent E, its 17 digits are
# D = round(P), P = |x|*10^(16-E) in [10^16, 10^17).  P is a double-double
# (Dekker, Numer. Math. 18, 224 (1971)): frexp's mantissa m times 10^(16-E),
# held to 106 bits as (hi + lo)*2^exp.  Dekker's two-product gives m*hi
# exactly; m*lo and the sum are rounded once each.  Against m*hi >= 1/4,
# those roundings and the table's truncation err by under 1.5*2^-105, so P
# errs by under 1.5*2^-105 * 4e17 < 2e-14.  Where P's fraction lies within
# _TIE_MARGIN of 1/2 the product cannot decide the rounding, and ``%``
# formats the value instead, as it does inf and nan.  The tables are built
# on the first call that formats a number, so commands that write no CSV
# never build them.
_TIE_MARGIN = 1e-9
_Q_MIN, _Q_MAX = -294, 342  # q = 16 - E for E in [-326, 310]
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit mantissas


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10^q = (hi + lo) * 2^exp for q in [_Q_MIN, _Q_MAX], hi in [0.5, 1).

    hi holds the top 53 bits of 10^q's 128-bit mantissa (truncated) and lo
    the other 75, rounded to 53 bits.  Returns hi, hi's two halves for
    Dekker's product, lo and exp.
    """
    hi, lo = np.empty((2, _Q_MAX + 1 - _Q_MIN))
    exp = np.empty(len(hi), dtype=np.int32)
    for i, q in enumerate(range(_Q_MIN, _Q_MAX + 1)):
        if q >= 0:
            n = 10**q
            shift = n.bit_length() - 128
            m = n >> shift if shift >= 0 else n << -shift
        else:
            n = 10**-q
            shift = -(n.bit_length() + 127)
            m = (1 << -shift) // n  # in [2^127, 2^128)
        hi[i], lo[i], exp[i] = m >> 75, m & ((1 << 75) - 1), shift + 128
    hi = np.ldexp(hi, -53)
    t = _SPLIT * hi
    hi_head = t - (t - hi)
    return hi, hi_head, hi - hi_head, np.ldexp(lo, -128), exp


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Every integer below 10^4 as four ASCII digits in one uint32, and its trailing zeros.

    Zero has four trailing zeros.
    """
    digits = np.empty((10_000, 4), dtype=np.uint8)
    zeros = np.zeros(10_000, dtype=np.uint8)
    for k in range(4):
        # Digit k of i is i // 10^(3 - k) % 10; i ends in k + 1 zeros or
        # more when 10^(k + 1) divides it.
        digits[:, k].reshape(10**k, 10, -1)[:] = np.arange(48, 58, dtype=np.uint8)[:, None]
        zeros[:: 10 ** (k + 1)] += 1
    return digits.view(np.uint32).ravel(), zeros


_DIGITS_DTYPE = np.dtype([("first", "u1"), ("groups", "<u4", 4)])

# A cell is one value laid out in fixed slots, then its separator:
#   "-" "0.000" <17 digits> "." <the same 17 digits> "e+-" <3 digits> ","
# and a keep-mask picks out the bytes of its "%.17g" text: the integer
# digits from the first copy of the digits, the fraction from the second.
_CELL_DTYPE = np.dtype(
    [("head", "S6"), ("int", "V17"), ("point", "S1"), ("frac", "V17"), ("exp", "S6"), ("sep", "S1")]
)
_CELL = _CELL_DTYPE.itemsize
_PREFIX, _INT, _POINT, _FRAC, _EXP, _SEP = 1, 6, 23, 24, 41, 47


@functools.cache
def _exp_text() -> np.ndarray:
    """The exponent slots for every |E| below 400."""
    return np.array([b"e+-%03d" % i for i in range(400)], dtype="S6")


@functools.cache
def _keep_table() -> np.ndarray:
    """The keep-mask of every cell layout, one row per `_layout` code.

    A layout is a notation (fixed at exponent E for -4 <= E < 17, or
    exponent form by the sign of E and whether |E| has three digits), a
    count of significant digits once trailing zeros are stripped, and a
    sign.
    """
    n_sig = np.arange(1, 18)[:, None, None]
    negative = np.array([False, True])[:, None]
    j = np.arange(_CELL)
    rows = []
    for exp10 in (*range(-4, 17), 17, 100, -5, -100):
        fixed = -4 <= exp10 < 17
        # Integer digits: E + 1 in fixed notation, one in exponent form,
        # none below one, where "0.000" holds the point and leading zeros.
        n_int = max(exp10 + 1, 0) if fixed else 1
        n_prefix = 1 - exp10 if fixed and exp10 < 0 else 0
        keep = (
            ((j == 0) & negative)
            | ((_PREFIX <= j) & (j < _PREFIX + n_prefix))
            | ((_INT <= j) & (j < _INT + n_int))
            | ((j == _POINT) & (n_sig > n_int) & (n_prefix == 0))
            | ((_FRAC + n_int <= j) & (j < _FRAC + n_sig))
            | (j == _SEP)
        )
        if not fixed:
            first_digit = _EXP + 3 if abs(exp10) >= 100 else _EXP + 4
            keep |= (j == _EXP) | (j == _EXP + (1 if exp10 > 0 else 2)) | (j >= first_digit)
        rows.append(keep)
    return np.stack(rows).view(f"V{_CELL}").ravel()


def _layout(exp10: np.ndarray, n_sig: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Each value's row of `_keep_table`."""
    fixed = (exp10 >= -4) & (exp10 < 17)
    notation = np.where(fixed, exp10 + 4, 21 + (np.abs(exp10) >= 100) + 2 * (exp10 < 0))
    return (notation * 17 + n_sig - 1) * 2 + negative


def _scaled(m: np.ndarray, e: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = m * 2^e * 10^(16 - exp10) as its floor and fractional part."""
    p10_hi, p10_head, p10_tail, p10_lo, p10_exp = _pow10_table()
    k = 16 - exp10 - _Q_MIN
    hi_head, hi_tail = p10_head[k], p10_tail[k]
    t = _SPLIT * m
    m_head = t - (t - m)
    m_tail = m - m_head
    p = m * p10_hi[k]
    err = ((m_head * hi_head - p) + m_head * hi_tail + m_tail * hi_head) + m_tail * hi_tail
    s = err + m * p10_lo[k]
    head = p + s
    shift = e + p10_exp[k]
    tail = np.ldexp(s - (head - p), shift)
    floor_tail = np.floor(tail)
    whole = np.ldexp(head, shift).astype(np.int64) + floor_tail.astype(np.int64)
    return whole, tail - floor_tail


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's 17 significant digits D, as an integer, and exponent E.

    ``|x| = D * 10^(E - 16)`` rounded to nearest, with D in [10^16, 10^17)
    (D = E = 0 for zero).  The third array marks the values whose digits
    this cannot decide: inf, nan and those within `_TIE_MARGIN` of a tie.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0
    a[~finite | zero] = 1.0
    m, e = np.frexp(a)
    exp10 = np.floor(np.log10(a)).astype(np.int32)
    whole, frac = _scaled(m, e, exp10)
    # log10 can miss by one next to a power of ten: correct E once.
    off = np.flatnonzero((whole < 10**16) | (whole >= 10**17))
    if len(off):
        exp10[off] += np.where(whole[off] < 10**16, -1, 1).astype(np.int32)
        whole[off], frac[off] = _scaled(m[off], e[off], exp10[off])
    undecided = ~finite | (np.abs(frac - 0.5) < _TIE_MARGIN)
    undecided |= (whole < 10**16) | (whole >= 10**17)
    digits17 = whole + (frac > 0.5)
    carry = digits17 == 10**17
    digits17[carry] = 10**16
    exp10 += carry
    digits17[zero] = 0
    exp10[zero] = 0
    return digits17, exp10, undecided


def _digit_text(digits17: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D (`_DIGITS_DTYPE`) and how many are significant.

    Trailing zeros are counted in the 16 digits after the first, so zero
    has one significant digit: its 0.
    """
    # D = first*10^16 + g[0]*10^12 + g[1]*10^8 + g[2]*10^4 + g[3].
    upper = digits17 // 10**8
    lower = (digits17 - upper * 10**8).astype(np.uint32)
    upper = upper.astype(np.uint32)
    top = upper // 10**4
    first = top // 10**4
    g = np.empty((4, len(digits17)), dtype=np.uint32)
    g[0] = top - first * 10**4
    g[1] = upper - top * 10**4
    g[2] = lower // 10**4
    g[3] = lower - g[2] * 10**4
    digits4, zeros4 = _digit_tables()
    zeros = zeros4[g]
    trailing = zeros[3] + (g[3] == 0) * (
        zeros[2] + (g[2] == 0) * (zeros[1] + (g[1] == 0) * zeros[0])
    )
    text = np.empty(len(digits17), dtype=_DIGITS_DTYPE)
    text["first"] = first + 48
    text["groups"] = digits4[g].T
    return text, 17 - trailing


def _format_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay out each float64 of ``x`` as a `_CELL`-byte cell ending in ``,``.

    Returns the cells and their keep-mask, both ``(len(x), _CELL)``:
    ``cells[i][keep[i]]`` is the text of ``"%.17g" % x[i]`` and a comma.
    """
    digits17, exp10, undecided = _decimal(x)
    text, n_sig = _digit_text(digits17)
    cells = np.empty(len(x), dtype=_CELL_DTYPE)
    cells["head"] = b"-0.000"
    cells["int"] = cells["frac"] = text.view("V17")
    cells["point"] = b"."
    cells["exp"] = _exp_text()[np.abs(exp10)]
    cells["sep"] = b","
    keep = _keep_table()[_layout(exp10, n_sig, np.signbit(x))]
    cells = cells.view(np.uint8).reshape(len(x), _CELL)
    keep = keep.view(bool).reshape(len(x), _CELL)
    for i in np.flatnonzero(undecided):
        percent = _fmt(x[i]).encode("ascii")
        cells[i, : len(percent)] = np.frombuffer(percent, dtype=np.uint8)
        keep[i, :_SEP] = np.arange(_SEP) < len(percent)
    return cells, keep


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


def _rows_text(columns: list[np.ndarray], label_cells: np.ndarray | None) -> str:
    """One block of `_write_rows`' rows as text."""
    numbers = columns if label_cells is None else columns[1:]
    cells, keep = _format_cells(np.column_stack(numbers).ravel())
    cells = cells.reshape(len(columns[0]), -1)
    keep = keep.reshape(cells.shape)
    cells[:, -1] = ord("\n")
    if label_cells is not None:
        labelled = label_cells[columns[0]]
        cells = np.concatenate([labelled, cells], axis=1)
        keep = np.concatenate([labelled != 0, keep], axis=1)
    return cells[keep].tobytes().decode("ascii")


def _write_rows(fh, columns: list[np.ndarray], labels: Sequence[str] | None = None) -> None:
    """Write ``columns`` as comma-separated rows, ``_BLOCK_ROWS`` rows per write.

    Every number is written as ``"%.17g" % value`` would write it (see
    `_format_cells`).  With ``labels``, the first column holds integer
    codes and is written as ``labels[code]``.
    """
    label_cells = None
    if labels is not None:
        # One NUL-padded cell per label, its comma included.
        label_cells = np.array([s + "," for s in labels], dtype="S")
        label_cells = label_cells.view(np.uint8).reshape(len(labels), -1)
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        fh.write(_rows_text([col[lo : lo + _BLOCK_ROWS] for col in columns], label_cells))


def _write_blocks(fh, header: list[str], blocks: Iterable[list[np.ndarray]]) -> None:
    """Write ``header`` and a table whose columns come one block of rows at a time."""
    fh.write(",".join(header) + "\n")
    for columns in blocks:
        _write_rows(fh, columns)


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

    # Each table's columns are formed one grid block at a time, inside its
    # writer: from the screen amplitudes, or from the two slit spectra.
    def write_pattern(fh) -> None:
        grid = pair.screen[0].grid
        branches = zip(grid.blocks(), *(state.density_blocks(i) for i in range(3)))
        _write_blocks(
            fh,
            ["x", "rho_total", "rho_branch1", "rho_branch2", "rho_branch3"],
            ([grid.x[lo:hi], rho[0] + rho[1] + rho[2], *rho] for (lo, hi), *rho in branches),
        )

    def write_momentum(fh) -> None:
        # Spectra are reported at emission time; free flight only changes
        # the phases, not these densities.
        _write_blocks(
            fh,
            ["p", "spec_branch1", "spec_branch2", "spec_branch3"],
            ([p, *rho] for p, rho in pair.spectral_densities(state.coeffs)),
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
    _commit(out_dir, {"scan.csv": lambda fh: _write_blocks(fh, header, [columns])})
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

    def write_events(fh) -> None:
        fh.write("outcome,x\n")
        for codes, xs in blocks:
            _write_rows(fh, [codes, xs], outcomes)
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
            from .verify import run_suite  # loaded only here: no other command needs it

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
