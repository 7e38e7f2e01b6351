"""End-to-end command-line runs on small and reduced grids, plus the check suite.

Every command runs through `run_cli`, in this process, or through
`conftest.run_python`, in a child.  Where several tests read one command
on one config, a module-scoped fixture runs it once: REDUCED `run`, `scan`
and `sample`, and each command's SMALL outputs at the default block sizes.
"""

import cmath
import collections
import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import math
import os
import stat
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from comb_oracle import apply_kick
from conftest import run_python, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from kickscope import cli, config, experiment, wavepacket
from kickscope import verify as verify_module
from kickscope.cli import main
from kickscope.config import parse_config_text
from kickscope.hilbert import COMPUTATIONAL, Basis
from kickscope.verify import _CHECKS, TOLERANCES, _Run, run_suite
from kickscope.wavepacket import GridSpec, Wavefunction, gaussian_state

# 2^17 points keep every subcommand comfortably under two seconds while
# leaving the propagated envelope (sigma(t) = 25) far from the box edges.
REDUCED = """
geometry.sigma = 0.02
units.t = 1.0
grid.n = 131072
grid.x_min = -327.18
grid.x_max = 328.18
detector.c = 0.5
sampling.count = 2000
sampling.seed = 7
"""

# A 2^12 desk grid (dx = sigma/4) on which run, scan, sample and verify all
# exit 0; sampling.count sits exactly at the goodness-of-fit floor.  It is
# near field (sigma_t is about 0.4*d at t = 0.008), so tests run here assert
# on files, exit codes, call counts and exact identities, not on fringes.
SMALL = """
geometry.sigma = 0.01
units.t = 0.008
grid.n = 4096
grid.x_min = -4.62
grid.x_max = 5.62
sampling.count = 500
"""

# A valid grid whose spacing is wider than the two-period fringe window at
# t = 1e-6; only the fringe estimator behind read notices.
LATE_WINDOW = "units.t = 1e-6\ngrid.n = 4096\ngrid.x_min = -4.62\ngrid.x_max = 5.62\n"
NINE_C = "0,0.125,0.25,0.375,0.5,0.625,0.75,0.875,1"  # scan's pins: more than 7 rows

# sha256 of REDUCED verify's stdout; see TestVerifyCommand.test_passes_on_reduced_config.
REDUCED_VERIFY_SHA256 = "aca7c5c97db6f32caa2693e3cb64133d21ea46e03668e8e5f13fcb261a0895cd"


def _with(base: str, extra: str) -> str:
    """``base`` with every key that ``extra`` sets taken from ``extra``."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


class Run(NamedTuple):
    code: int
    out: Path  # the --out directory; verify writes none
    stdout: str
    stderr: str


def run_cli(
    work: Path, command: str, text: str | None, *args: str, out: bool = True, expect: int = 0
) -> Run:
    """``kickscope command *args`` in this process, from the directory ``work``.

    ``text`` is written to ``work/kickscope.cfg`` and passed as ``--config``
    (None passes neither), and every command but verify gets ``--out out``
    unless ``out`` is false.  Both paths are relative, so what a command
    prints does not depend on ``work``.  The exit code, an argparse exit's
    included, must be ``expect``.
    """
    work.mkdir(parents=True, exist_ok=True)
    argv = [command, *args]
    if text is not None:
        (work / "kickscope.cfg").write_text(text)
        argv += ["--config", "kickscope.cfg"]
    if out and command != "verify":
        argv += ["--out", "out"]
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code == expect, stderr.getvalue()
    return Run(code, work / "out", stdout.getvalue(), stderr.getvalue())


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = float(value)
    return out


def assert_digests(out, golden):
    for name, digest in golden.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.fixture(scope="module")
def reduced_run(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("run"), "run", REDUCED)


@pytest.fixture(scope="module")
def reduced_scan(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("scan"), "scan", REDUCED, "--c-values", NINE_C)


@pytest.fixture(scope="module")
def reduced_sample(tmp_path_factory):
    """REDUCED `sample`, run once under umask 027."""
    work, old = tmp_path_factory.mktemp("sample"), os.umask(0o027)
    try:
        return run_cli(work, "sample", REDUCED)
    finally:
        os.umask(old)


# Each command's arguments on SMALL; nine c-values give scan more than 7 rows.
SMALL_ARGS = {"run": (), "scan": ("--c-values", NINE_C), "sample": (), "verify": ()}


def small_outputs(work: Path, command: str) -> tuple[str, dict[str, bytes]]:
    """The stdout and every output file of ``command`` on SMALL, run from ``work``."""
    run = run_cli(work, command, SMALL, *SMALL_ARGS[command])
    files = sorted(run.out.iterdir()) if run.out.exists() else []
    return run.stdout, {f.name: f.read_bytes() for f in files}


@pytest.fixture(scope="module")
def unblocked(tmp_path_factory):
    """``unblocked(command)``: `small_outputs` at the default block sizes, once per command."""
    return functools.cache(lambda command: small_outputs(tmp_path_factory.mktemp(command), command))


# Block sizes that must not move a byte, as (module, constant, size): 7 rows
# split every table, scan's nine rows too; 1000 points divides no grid size,
# so grid block edges fall inside every transform, column, cell CDF and
# verify row; 7 events split the event stream, its counts and the fit's bins.
BLOCK_VARIANTS = {
    "7": (cli, "_BLOCK_ROWS", 7),
    "grid-1000": (wavepacket, "_GRID_BLOCK", 1000),
    "events-7": (experiment, "_SAMPLE_BLOCK", 7),
}


def assert_block_edges_move_no_byte(command, blocks, tmp_path, unblocked):
    # SMALL's 4096 points, 4096-row tables and 500 events each fit in one
    # default block of each kind, so ``unblocked`` holds unblocked bytes.
    # Each named size must give the same files and stdout (a size the
    # command does not use makes a plain rerun).  The REDUCED pins are one
    # run each, at the default sizes.
    assert min(wavepacket._GRID_BLOCK, cli._BLOCK_ROWS) >= 4096 and experiment._SAMPLE_BLOCK >= 500
    expected = unblocked(command)
    for block in blocks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(*BLOCK_VARIANTS[block])
            assert small_outputs(tmp_path / block, command) == expected, block


class TestRun:
    def test_writes_pattern_momentum_summary(self, reduced_run):
        out = reduced_run.out
        header = (out / "pattern.csv").read_text().splitlines()[0]
        assert header == "x,rho_total,rho_branch1,rho_branch2,rho_branch3"
        data = np.loadtxt(out / "pattern.csv", delimiter=",", skiprows=1)
        assert data.shape == (131072, 5)
        np.testing.assert_allclose(
            data[:, 1], data[:, 2:].sum(axis=1), rtol=0, atol=1e-18
        )

        header = (out / "momentum.csv").read_text().splitlines()[0]
        assert header == "p,spec_branch1,spec_branch2,spec_branch3"

        summary = read_summary(out / "summary.txt")
        assert abs(summary["V_measured"] - 0.5) <= 0.02
        assert abs(summary["F_k_branch"] - 0.25) <= 1e-10
        assert abs(summary["p0"] - math.pi) <= 1e-15
        dp = 2.0 * math.pi / (131072 * 0.005)
        assert abs(summary["p0_measured"] - math.pi) <= dp
        assert summary["storey_lhs"] >= summary["storey_rhs"]

    def test_full_overlap_leaves_storey_lhs_unmeasured(self, tmp_path):
        # At c = 1 no branch is kicked, so there is no kick to bound.
        out = run_cli(tmp_path, "run", _with(SMALL, "detector.c = 1.0\n")).out
        summary = read_summary(out / "summary.txt")
        assert math.isnan(summary["p0_measured"]) and math.isnan(summary["storey_lhs"])
        assert summary["storey_rhs"] == 1.0 - summary["V_measured"]

    def test_reruns_are_byte_identical(self, tmp_path, unblocked):
        assert small_outputs(tmp_path, "run") == unblocked("run")

    @pytest.mark.parametrize("block", [None, "7", "grid-1000"])
    def test_output_bytes_are_pinned(self, reduced_run, unblocked, tmp_path, block):
        # A block size holds its bytes to the default-size bytes on SMALL
        # (see assert_block_edges_move_no_byte), so REDUCED runs once.
        if block is not None:
            return assert_block_edges_move_no_byte("run", [block], tmp_path, unblocked)
        # sha256 of the REDUCED run, recorded with the np.savetxt writer that
        # the block writer replaced.  Re-recorded when the slit Gaussian took numpy's complex exp, whose
        # bits are the same under AVX-512 and AVX2 dispatch: the tables moved
        # by at most 1.1e-15 of a column's peak, fringe_period by 7.8e-14 and
        # central_fringe_shift by 4.3e-14.
        assert_digests(
            reduced_run.out,
            {
                "pattern.csv": "cf382c8a31c54ce0380c1c6b4828b90501c380394efc834b7642fc416ed59f86",
                "momentum.csv": "3de45073058bb5ac593aadacec2c779f36f1d49b485869ba4ba9e83a60de86e2",
                "summary.txt": "e4417adc8923f5137e80b5888394e968744514b71421693507a60c938f6ecd6c",
            },
        )


class TestScan:
    def test_scan_rows(self, reduced_scan):
        # NINE_C's first, middle and last rows: c = 0, 0.5 and 1.
        lines = (reduced_scan.out / "scan.csv").read_text().splitlines()
        assert lines[0] == "c,V_measured,F_k_branch,p0_measured,kick_identity_residual"
        data = np.loadtxt(reduced_scan.out / "scan.csv", delimiter=",", skiprows=1)[[0, 4, 8]]
        np.testing.assert_allclose(data[:, 0], [0.0, 0.5, 1.0], atol=0)
        np.testing.assert_allclose(data[:, 2], [0.5, 0.25, 0.0], rtol=0, atol=1e-10)
        assert np.isnan(data[2, 3])  # no interfering branches left at c = 1
        assert abs(data[1, 3] - math.pi) <= 2.0 * math.pi / (131072 * 0.005)

    @pytest.mark.parametrize("block", [None, "7", "grid-1000"])
    def test_output_bytes_are_pinned(self, reduced_scan, unblocked, tmp_path, block):
        if block is not None:  # as in TestRun's pins
            return assert_block_edges_move_no_byte("scan", [block], tmp_path, unblocked)
        # Recorded like TestRun's pins, over nine c-values.  At the complex
        # exp, V_measured moved by one ulp at c = 0.125, 0.625 and 0.875.
        assert_digests(
            reduced_scan.out,
            {"scan.csv": "421a526977a755a3dd656550243d2c21d84764c35e814ef2d84bc3dee63542d0"},
        )

    def test_rejects_bad_c_list(self, tmp_path):
        run = run_cli(tmp_path, "scan", REDUCED, "--c-values", "0,2", expect=2)
        assert "outside [0, 1]" in run.stderr


class TestSample:
    def test_events_and_summary(self, reduced_sample):
        lines = (reduced_sample.out / "events.csv").read_text().splitlines()
        assert lines[0] == "outcome,x"
        assert len(lines) == 2001
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels <= {"q_plus", "q_minus", "q3"}
        summary = (reduced_sample.out / "sample_summary.txt").read_text()
        assert "count=2000" in summary and "seed=7" in summary
        assert "chi_square_p=" in summary

    @pytest.mark.parametrize("block", [None, "7", "events-7", "grid-1000"])
    def test_output_bytes_are_pinned(self, reduced_sample, unblocked, tmp_path, block):
        if block is not None:  # as in TestRun's pins
            return assert_block_edges_move_no_byte("sample", [block], tmp_path, unblocked)
        # sha256 of the REDUCED run (seed 7, 2000 events), recorded when the
        # branches became combinations of one propagated slit pair.  Against
        # the earlier three-branch propagation every outcome and count is the
        # same and positions moved by at most 2.1e-14*max(1, |x|).  The
        # summary was re-recorded when the p-value became the exact finite
        # chi-square sum: chi_square_p moved from scipy's 0.19565761419095987
        # to 0.19565761419095995 (exact 0.195657614190959922).  It was
        # re-recorded again when the prob= lines moved to the emitted pair's
        # Gram matrix, the one read uses: 0.25000000000007627 became
        # 0.25000000000007661, and 0.50000000000015254 became
        # 0.50000000000015332.  events.csv was re-recorded at the complex exp
        # of TestRun's pins: 1289 positions moved, by at most 1.0e-12, and
        # every outcome and the summary held.
        assert_digests(
            reduced_sample.out,
            {
                "events.csv": "61fad3c19e88a60749390c2208e2eb756d6cd680b8e96397af678bd7f4591704",
                "sample_summary.txt": "cc1bcb0258e376a7fa1b6a74c6e6f03689da8470278c56c4f97234591c4e2b5e",
            },
        )

    def test_memory_does_not_grow_with_the_event_count(self, tmp_path):
        # The command's tracemalloc peak on SMALL at 2^19 events against 2^17.
        # Holding the whole draw as arrays costs 16 bytes an event, 6 MiB
        # more here.
        peaks = []
        for count in (2**17, 2**19):
            text = _with(SMALL, f"sampling.count = {count}\n")
            _, peak = traced_peak(run_cli, tmp_path / str(count), "sample", text)
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 2**19, peaks

    def test_outputs_honour_the_umask(self, reduced_sample):
        for name in ("events.csv", "sample_summary.txt"):
            assert stat.S_IMODE((reduced_sample.out / name).stat().st_mode) == 0o640, name


def test_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # numpy's AVX-512 and AVX2 kernels for real exp differ in the last bits;
    # its complex exp, the FFTs and the sums do not.  Two children run every
    # command on SMALL in their working directory: one dispatches as the host
    # does, the other with the AVX-512 kernels disabled (X86_V3: AVX2 and
    # FMA), and every output file and the stdout must match.  On a host
    # without AVX-512 both dispatch the same kernels and this passes
    # trivially; naming a feature the host lacks is a no-op.
    code = (
        "import sys; from kickscope.cli import main; "
        "sys.exit(max(main([c, '--config', sys.argv[1]]) for c in sys.argv[2:]))"
    )
    (tmp_path / "small.cfg").write_text(SMALL)
    argv = ["-c", code, str(tmp_path / "small.cfg"), "run", "scan", "sample", "verify"]
    outputs = []
    for env in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}):
        work = tmp_path / str(len(outputs))
        work.mkdir()
        done = run_python(*argv, env=env, drop=["NPY_DISABLE_CPU_FEATURES"], cwd=work)
        assert done.returncode == 0, done.stderr
        outputs.append({"stdout": done.stdout, **{f.name: f.read_bytes() for f in work.iterdir()}})
    assert outputs[0] == outputs[1]


def _percent_17g(columns: list[np.ndarray]) -> str:
    """The oracle: each row written through ``%`` one value at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns))


def assert_same_text(got: str, expected: str) -> None:
    """Assert two tables are equal, reporting only the first row that differs.

    One ``==`` on tables of several hundred KB would leave pytest diffing
    the whole strings when they differ.
    """
    got_rows, expected_rows = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    for i, (g, e) in enumerate(zip(got_rows, expected_rows)):
        assert g == e, f"row {i} differs"
    assert len(got_rows) == len(expected_rows), "row counts differ"


def _count_percent(monkeypatch) -> list[float]:
    """The values that `cli` formats through ``%`` from now on, in call order."""
    calls: list[float] = []
    real_fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda value: calls.append(value) or real_fmt(value))
    return calls


def _ties(values: np.ndarray) -> int:
    """How many values lie exactly halfway between two 17-digit decimals.

    Such a value is N/2^k with N odd and k >= 1, whose exact decimal
    N*5^k/10^k has 18 significant digits, the last a 5: so 5^k < 10^18,
    k <= 25, and |value| < 2^53.
    """
    small = values[np.abs(values) < 2**53]
    dyadic = small[(np.ldexp(small, 25) % 1 == 0) & (small % 1 != 0)]
    n_ties = 0
    for value in dyadic.tolist():
        n, den = abs(value).as_integer_ratio()
        n_ties += len(str(n * 5 ** (den.bit_length() - 1))) == 18
    return n_ties


class TestBlockWriter:
    EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]

    @pytest.mark.parametrize("n_rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_matches_savetxt(self, n_rows):
        # np.savetxt(fmt="%.17g") is the oracle: every table the CLI wrote
        # before the block writer came from it.
        rng = np.random.default_rng(n_rows)
        columns = []
        for j in range(len(self.EDGES)):
            col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
            edges = np.roll(self.EDGES, j)
            col[: len(edges)] = edges[:n_rows]
            col[-len(edges) :] = edges[-n_rows:]
            columns.append(col)
        expected = io.StringIO()
        np.savetxt(expected, np.column_stack(columns), fmt="%.17g", delimiter=",")
        got = io.StringIO()
        cli._write_rows(got, columns)
        assert_same_text(got.getvalue(), expected.getvalue())

    @pytest.mark.parametrize("n_rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_labels_match_the_per_event_format(self, n_rows):
        labels = ["q_plus", "q_minus", "q3"]
        rng = np.random.default_rng(n_rows)
        codes = rng.integers(0, 3, n_rows)
        xs = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        xs[: len(self.EDGES)] = self.EDGES[:n_rows]
        expected = "".join("%s,%.17g\n" % (labels[c], x) for c, x in zip(codes, xs))
        got = io.StringIO()
        cli._write_rows(got, [codes, xs], labels)
        assert_same_text(got.getvalue(), expected)

    # Both neighbours of every power of ten, %g's switches between fixed
    # and exponent notation, exact 17-digit ties (which % rounds to even),
    # the smallest subnormal, the largest double, signed zeros and nan/inf.
    POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
    SWITCHES = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999999e16]
    TIES = [1234567890123456.25, 1234567890123456.75, -1234567890123456.25, -1234567890123456.75]

    def test_hard_values_match_percent(self, monkeypatch):
        assert _ties(np.array(self.TIES)) == 4
        grid = np.concatenate([self.POWERS, self.SWITCHES])
        values = np.concatenate(
            [grid, np.nextafter(grid, 0), np.nextafter(grid, np.inf), self.TIES, self.EDGES, [0.0]]
        )
        by_percent = _count_percent(monkeypatch)
        got = io.StringIO()
        cli._write_rows(got, [values, -values])
        assert_same_text(got.getvalue(), _percent_17g([values, -values]))
        assert "1e+17,-1e+17\n" in got.getvalue()
        assert "1234567890123456.2,-1234567890123456.2\n" in got.getvalue()
        # Only nan, inf and the exact ties (999999999999999.875 among them)
        # go through %: a value beside a power of ten does not.
        assert len(by_percent) == 2 * (3 + _ties(values)) == 2 * (3 + 5)

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=150),
        n_cols=st.integers(1, 3),
        block=st.integers(1, 60),
    )
    def test_every_bit_pattern_matches_percent(self, bits, n_cols, block):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        columns = list(values[: len(values) // n_cols * n_cols].reshape(-1, n_cols).T)
        got = io.StringIO()
        with mock.patch.object(cli, "_BLOCK_ROWS", block):
            cli._write_rows(got, columns)
        assert got.getvalue() == _percent_17g(columns)

    N_ROWS = 1 << 15

    @pytest.mark.parametrize(
        "block,fits", [(cli._BLOCK_ROWS, True), (N_ROWS, False)], ids=["blocks", "whole-table"]
    )
    def test_memory_is_one_block_not_the_table(self, tmp_path, monkeypatch, block, fits):
        # 2^12-row blocks of this table peak near 3.0 MiB of numpy scratch
        # and text; the whole table as one block near 22.8 MiB.  The bound is
        # 5.25 MiB.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(0)
        columns = [rng.standard_normal(self.N_ROWS) for _ in range(5)]
        stacked_nbytes = self.N_ROWS * len(columns) * 8
        with open(tmp_path / "t.csv", "w", encoding="utf-8") as fh:
            _, peak = traced_peak(cli._write_blocks, fh, list("abcde"), [columns])
        assert (peak <= stacked_nbytes + 4 * 2**20) == fits, peak


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _disk_full_after_the_draw(observed, count):
    # The fit's bin counts hold the whole draw before the disk fills.
    assert count == 500 and sum(observed) == count
    _disk_full()


class TestCommitAsASet:
    # A command writes all of its files or none: a rerun that fails part
    # way leaves the previous set as it was, and no temporary directory.

    @staticmethod
    def _contents(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize(
        "command,target,name",
        [
            # run fails while building momentum.csv, before pattern.csv.
            ("run", experiment.SlitPair, "spectral_densities"),
            # sample fails in the summary's fit, after every event is
            # drawn, written to the temporary events.csv and binned.
            ("sample", cli, "screen_goodness_of_fit"),
        ],
        ids=["run", "sample"],
    )
    def test_failed_rerun_keeps_the_previous_set(
        self, tmp_path, monkeypatch, command, target, name
    ):
        out = run_cli(tmp_path, command, SMALL).out
        before = self._contents(out)
        monkeypatch.setattr(
            target, name, _disk_full_after_the_draw if command == "sample" else _disk_full
        )
        rerun = run_cli(tmp_path, command, _with(SMALL, "detector.c = 0.25\n"), expect=2)
        assert "No space left on device" in rerun.stderr and "wrote" not in rerun.stdout
        # The same names (so no leftover .kickscope-* directory), the same bytes.
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert self._contents(out) == before

    def test_a_directory_in_a_files_place_renames_nothing(self, tmp_path):
        # pattern.csv is a directory: os.replace would move momentum.csv into
        # place and then fail, leaving a mixed set.  The target is refused first.
        out = run_cli(tmp_path, "run", SMALL).out
        (out / "pattern.csv").unlink()
        (out / "pattern.csv").mkdir()
        before = {name: (out / name).read_bytes() for name in ("momentum.csv", "summary.txt")}
        rerun = run_cli(tmp_path, "run", _with(SMALL, "detector.c = 0.25\n"), expect=2)
        assert "out/pattern.csv" in rerun.stderr and "wrote" not in rerun.stdout
        assert sorted(p.name for p in out.iterdir()) == sorted(["pattern.csv", *before])
        assert (out / "pattern.csv").is_dir()
        assert {name: (out / name).read_bytes() for name in before} == before


class TestFailureModes:
    def test_bad_config_exits_2_with_no_outputs(self, tmp_path):
        run = run_cli(tmp_path, "run", "detector.c = 1.5\n", expect=2)
        assert "error:" in run.stderr
        assert not run.out.exists()

    @pytest.mark.parametrize("command", ["run", "scan", "sample", "verify"])
    def test_no_command_takes_a_seed_flag(self, tmp_path, command):
        # sampling.seed is the one seed: verify --config checks the events
        # that sample draws from the same file.
        run = run_cli(tmp_path, command, REDUCED, "--seed", "3", expect=2)
        assert run.stderr.startswith("usage: kickscope")
        assert "unrecognized arguments: --seed 3" in run.stderr
        assert run.stdout == "" and not run.out.exists()

    @pytest.mark.parametrize(
        "line,name",
        [
            ("geometry.sigma = inf", "sigma"),
            ("units.hbar = nan", "hbar"),
            ("basis = tilted:nan", "angle"),
        ],
    )
    def test_non_finite_input_exits_2_with_no_outputs(self, tmp_path, line, name):
        (tmp_path / "out").mkdir()
        run = run_cli(tmp_path, "run", _with(REDUCED, line + "\n"), expect=2)
        assert "error:" in run.stderr and name in run.stderr and "finite" in run.stderr
        assert list(run.out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "scan", "sample", "verify"])
    def test_repeated_key_exits_2_with_no_outputs(self, tmp_path, command):
        (tmp_path / "out").mkdir()
        run = run_cli(tmp_path, command, REDUCED + "detector.c = 0.25\n", expect=2)
        assert "line 10: config key 'detector.c' repeats line 7" in run.stderr
        assert run.stdout == "" and list(run.out.iterdir()) == []

    @pytest.mark.parametrize(
        "command,extra,keys",
        [
            ("run", "units.t = 0\n", ["units.t"]),
            ("scan", "units.t = 0\n", ["units.t"]),
            ("verify", "units.t = 0\n", ["units.t"]),
            ("run", "units.hbar = 1e-30\n", ["units.hbar"]),
            ("run", LATE_WINDOW, ["units.t", "grid.n", "grid.x_min", "grid.x_max"]),
            ("sample", "units.t = 0\n", None),
        ],
        ids=["run-t0", "scan-t0", "verify-t0", "run-hbar", "run-coarse-grid", "sample-t0"],
    )
    def test_a_fringe_window_the_config_cannot_hold_names_its_keys(
        self, tmp_path, command, extra, keys
    ):
        # The window is two far-field periods 2*pi*hbar*t/(m*d) around d/2.
        # At t = 0, or at hbar = 1e-30, where both periods round away beside
        # d/2, it has no width; on LATE_WINDOW's grid it holds one point.
        # Each fails before any output and names the keys that set it.
        # sample reads no fringes, and at t = 0 it samples the slits.
        run = run_cli(tmp_path, command, _with(SMALL, extra), expect=2 if keys else 0)
        if keys is None:
            assert sorted(p.name for p in run.out.iterdir()) == ["events.csv", "sample_summary.txt"]
            return
        assert run.stdout == "" and not run.out.exists()
        assert "analysis window (" in run.stderr
        assert ") is malformed for this grid: " in run.stderr
        assert all(key in run.stderr for key in keys), run.stderr

    @pytest.mark.parametrize("command", ["run", "scan", "sample", "verify"])
    def test_overlapping_slits_exit_2_before_any_output(self, tmp_path, command):
        # The model takes the two slit states as orthogonal, but they overlap
        # by exp(-d^2/8 sigma^2): 0.044 at sigma/d = 0.2, where the branch
        # probabilities sum to 1.022 at c = 0.5 and sample drops the excess
        # from the failure branch.
        run = run_cli(tmp_path, command, _with(SMALL, "geometry.sigma = 0.2\n"), expect=2)
        assert run.stdout == "" and not run.out.exists()
        assert "geometry.sigma" in run.stderr and "geometry.d" in run.stderr, run.stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize(
        "text,keys",
        [
            ("geometry.d = 1e-160\n", ["geometry.sigma", "geometry.d"]),
            (
                "geometry.d = 1e300\ngeometry.sigma = 1e298\n"
                "grid.x_min = -1e300\ngrid.x_max = 1.5e300\ngrid.n = 4096\n",
                [],
            ),
        ],
        ids=["sigma-1e158-d", "sigma-1e298"],
    )
    def test_length_scales_out_of_float_range_exit_2_with_no_outputs(
        self, tmp_path, command, text, keys
    ):
        # At sigma/d = 1e158 the overlap guard's exponent, and at sigma =
        # 1e298 the slit Gaussian's sigma^2, leave the range of a float.
        # The first is the guard's usage error, the second an overflow; each
        # exits 2 with one error line, before any output.
        run = run_cli(tmp_path, command, text, expect=2)
        assert run.stdout == "" and not run.out.exists()
        assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1, run.stderr
        assert all(key in run.stderr for key in keys), run.stderr

    @pytest.mark.parametrize(
        "extra,words,key",
        [
            ("grid.x_min = -1\ngrid.x_max = 2\n", "cannot hold the evolved state", "grid.x_min"),
            ("grid.n = 1024\n", "grid too coarse for the slit", "grid.n"),
            ("geometry.d = 20\n", "lies outside the grid extent", "geometry.d"),
            ("grid.n = 4000\n", "grid size must be a power of two", "grid.n"),
            ("grid.x_max = -5\n", "must be finite and non-empty", "grid.x_max"),
            ("detector.c = 1.5\n", "overlap magnitude c must lie in", "detector.c"),
            ("detector.theta = 4\n", "overlap phase theta must lie in", "detector.theta"),
            ("geometry.d = -1\n", "slit separation d must be positive", "geometry.d"),
            ("geometry.sigma = -0.01\n", "slit width sigma must be positive", "geometry.sigma"),
            ("units.hbar = 0\n", "hbar must be positive", "units.hbar"),
            ("units.mass = -1\n", "mass must be positive", "units.mass"),
            ("units.t = -1\n", "flight time t must be non-negative", "units.t"),
        ],
        ids=[
            "wraparound", "coarse-grid", "slit-center", "power-of-two", "extent",
            "detector-c", "detector-theta", "d", "sigma", "hbar", "mass", "t",
        ],
    )
    def test_every_config_error_names_its_key(self, tmp_path, extra, words, key):
        # Each guard keeps its own words and adds the config key to change.
        assert key in config._DEFAULTS
        run = run_cli(tmp_path, "run", _with(SMALL, extra), expect=2)
        assert run.stdout == "" and not run.out.exists()
        assert run.stderr.startswith("error: ") and words in run.stderr, run.stderr
        assert key in run.stderr, run.stderr

    @pytest.mark.parametrize(
        "text,cause",
        [
            # dx = 0.32 on the default extent, against sigma/4 = 0.0025.
            ("grid.n = 16384\n", "too coarse"),
            (_with(REDUCED, "grid.x_min = -5\ngrid.x_max = 6\n"), "wraparound"),
            (_with(REDUCED, LATE_WINDOW), "analysis window"),
        ],
        ids=["coarse", "headroom", "window"],
    )
    def test_verify_config_error_exits_2(self, tmp_path, text, cause):
        # A config no check can run on is a usage error, as in run and scan,
        # not a table of failed checks.
        run = run_cli(tmp_path, "verify", text, expect=2)
        assert "error:" in run.stderr and cause in run.stderr
        assert run.stdout == ""

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_unallocatable_grid_exits_2(self, tmp_path, command):
        # 2^40 points pass validation but need terabytes.  The child caps its
        # own address space at 3 GB before it imports anything, so the
        # allocation fails at once whatever the machine's overcommit policy.
        (tmp_path / "huge.cfg").write_text("grid.n = 1099511627776\n")
        code = (
            "import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard)); "
            "from kickscope.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        out = ["--out", "out"] if command == "run" else []
        done = run_python(
            "-c", code, command, "--config", "huge.cfg", *out,
            env={"OPENBLAS_NUM_THREADS": "1"}, cwd=tmp_path,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: out of memory") and "grid.n" in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert done.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_key_reports_line(self, tmp_path):
        run = run_cli(tmp_path, "run", "# comment\ngrid.m = 4\n", expect=2)
        assert "line 2" in run.stderr

    def test_missing_config_file(self, tmp_path):
        run = run_cli(tmp_path, "run", None, "--config", "nope.cfg", expect=2)
        assert "cannot read" in run.stderr


# One child imports the command, then runs each command on SMALL from its
# working directory, and prints each step's exit code, stdout, the scipy
# modules loaded by the step's end and whether numpy.ma is one of them.
_SCIPY_PROBE = """
import contextlib, io, json, sys
from kickscope.cli import main

def step(code, stdout):
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return [code, stdout, scipy, "numpy.ma" in sys.modules]

report = {"import": step(0, "")}
for command in ("run", "scan", "sample", "verify"):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([command, "--config", "small.cfg"])
    report[command] = step(code, stdout.getvalue())
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def scipy_probe(tmp_path_factory):
    work = tmp_path_factory.mktemp("scipy")
    (work / "small.cfg").write_text(SMALL)
    done = run_python("-c", _SCIPY_PROBE, cwd=work)
    assert done.returncode == 0, done.stderr
    return work, json.loads(done.stdout)


@pytest.mark.parametrize("command", ["import", "run", "scan", "sample", "verify"])
def test_scipy_stays_off_the_command_path(command, scipy_probe):
    # Transforms use numpy.fft and the chi-square p-value is a finite sum,
    # so no command loads any part of scipy.  The probe's steps run in this
    # order in one child, so each id's list also holds what earlier steps loaded.
    work, report = scipy_probe
    code, stdout, scipy, _ = report[command]
    assert code == 0
    if command == "sample":
        assert "chi_square_p=" in (work / "sample_summary.txt").read_text()
    if command == "verify":
        assert "[PASS] experiment.sampler_gof " in stdout
    assert scipy == []


@pytest.mark.parametrize("command", ["run", "scan", "verify"])
def test_numpy_ma_stays_off_the_command_path(command, scipy_probe):
    # The fringe period is the median gap between maxima, taken in Python:
    # np.median would import numpy.ma, about 1.3 MB and 8 ms.  Each id's
    # step also holds what the probe's earlier steps loaded.
    code, _, _, masked = scipy_probe[1][command]
    assert code == 0 and not masked


def _scale_beta(real, cfg):
    def defective(detector):
        states = np.array(real(detector))
        states[2, 0] *= 1.0 + 1e-3
        return states

    return defective


def _conjugate_delta(real, cfg):
    def defective(detector):
        states = np.array(real(detector))
        states[2, 1] = states[2, 1].conjugate()
        return states

    return defective


def _stretch_flight(real, cfg):
    return lambda raw, grid, units: real(raw, grid, replace(units, t=units.t * (1.0 + 1e-6)))


def _scale_row_1(scale):
    def plant(real, cfg):
        def defective(basis):
            m = real(basis)
            m[1] *= scale
            return m

        return defective

    return plant


def _boost_slit_2(real, cfg):
    def defective(geom, grid, slit):
        psi = real(geom, grid, slit)
        if slit != 2:
            return psi
        hbar = cfg.units.hbar
        return apply_kick(psi, 0.01 * grid.dp(hbar), hbar=hbar)

    return defective


def _displace_slit_2(real, cfg):
    def defective(geom, grid, slit):
        if slit != 2:
            return real(geom, grid, slit)
        return gaussian_state(grid, geom.d * (1.0 + 2.5e-3), geom.sigma)

    return defective


def _drop_momentum_phase(real, cfg):
    # momentum_chunks without the phase that moves the origin from x_min to 0.
    def defective(raw, grid, hbar):
        for lo, hi, p, chunks in real(raw, grid, hbar):
            undo = np.exp(1j * p * (grid.x_min / hbar))
            yield lo, hi, p, [chunk * undo for chunk in chunks]

    return defective


def _stretch_momentum_axis(real, cfg):
    # The same amplitudes on a momentum axis 1e-8 too long.
    def defective(raw, grid, hbar):
        for lo, hi, p, chunks in real(raw, grid, hbar):
            yield lo, hi, p * (1.0 + 1e-8), chunks

    return defective


def _inflate_norm(real, cfg):
    def defective(grid, center, sigma):
        return Wavefunction(grid, real(grid, center, sigma).amplitudes * (1.0 + 1e-9))

    return defective


def _zero_kick(real, cfg):
    return lambda state: 0.0


def _count_into_seed(real, cfg):
    calls = itertools.count()
    return lambda state, count, seed: real(state, count, seed + next(calls))


def _uniform_outcomes(real, cfg):
    # The cycle runs on across block edges, as over one whole draw.
    def defective(state, count, seed):
        start = 0
        for _, xs in real(state, count, seed):
            yield np.arange(start, start + xs.size) % 3, xs
            start += xs.size

    return defective


def _branch_0_only(real, cfg):
    return lambda state, i: real(state, 0)


def _with_cross_term(real, change):
    # The density with its cross term's coefficient M01 replaced by change(M01).
    def defective(coeffs, psi1, psi2):
        m01 = (coeffs.conj().T @ coeffs)[0, 1]
        wrong = 2.0 * np.real((change(m01) - m01) * np.conj(psi1) * psi2)
        return real(coeffs, psi1, psi2) + wrong

    return defective


def _damp_cross_term(real, cfg):
    return _with_cross_term(real, lambda m01: 0.9 * m01)


def _real_overlap(real, cfg):
    return _with_cross_term(real, lambda m01: m01.real)


# Each planted defect: the modules whose binding of ``name`` is patched, the
# defect, and the checks it must turn red on REDUCED.
DEFECTS = {
    "beta-scaled": (
        (experiment, verify_module),
        "detector_states",
        _scale_beta,
        ("hilbert.normalization", "experiment.branch_probabilities"),
    ),
    "delta-conjugated": (
        (experiment, verify_module),
        "detector_states",
        _conjugate_delta,
        ("hilbert.normalization", "experiment.phase_kick"),
    ),
    "flight-stretched": (
        (experiment,),
        "fly",
        _stretch_flight,
        ("wavepacket.propagator_agreement", "experiment.density_formula"),
    ),
    "basis-row-scaled": (
        (Basis,),
        "matrix_from_computational",
        _scale_row_1(1.0 + 1e-9),
        ("hilbert.unitarity", "experiment.basis_invariance"),
    ),
    # A hundredth of that: basis_invariance reads about 1e-11 of the
    # density's peak.  An absolute difference would read 2.4e-13 and pass.
    "basis-row-nudged": (
        (Basis,),
        "matrix_from_computational",
        _scale_row_1(1.0 + 1e-11),
        ("hilbert.unitarity", "experiment.basis_invariance"),
    ),
    "slit-2-boosted": (
        (experiment,),
        "slit_state",
        _boost_slit_2,
        (
            "experiment.density_formula",
            "wavepacket.propagator_agreement",
            "experiment.comb_closed_form",
        ),
    ),
    # Slit 2 built 2.5e-3*d further out than the geometry says.  The kick
    # rows read at geom.d and stay green; the closed forms at geom.centers
    # do not.
    "slit-2-displaced": (
        (experiment,),
        "slit_state",
        _displace_slit_2,
        (
            "wavepacket.propagator_agreement",
            "experiment.density_formula",
            "experiment.kick_identity",
            "experiment.comb_closed_form",
        ),
    ),
    # Spectra that keep the grid's x_min offset: densities are unchanged, so
    # only the rows that compare amplitudes see it.
    "momentum-phase-dropped": (
        (verify_module,),
        "momentum_chunks",
        _drop_momentum_phase,
        ("wavepacket.momentum_oracle", "wavepacket.roundtrip"),
    ),
    # Spectra read on momenta 1e-8 too long, so a boost by p moves the mean
    # momentum sum(p*|phi|^2)*dp by about p*(1 + 1e-8).
    "momentum-axis-stretched": (
        (verify_module,),
        "momentum_chunks",
        _stretch_momentum_axis,
        (
            "wavepacket.momentum_oracle",
            "wavepacket.roundtrip",
            "wavepacket.kick_displacement",
        ),
    ),
    # Slit states that carry 1 + 2e-9 of probability.
    "norm-inflated": (
        (wavepacket,),
        "gaussian_state",
        _inflate_norm,
        (
            "wavepacket.normalization",
            "experiment.failure_probability",
            "experiment.kick_fraction",
        ),
    ),
    # No kick at all: every row that reads one, Storey's bound included.
    "kick-zeroed": (
        (verify_module,),
        "relative_kick",
        _zero_kick,
        (
            "experiment.kick_magnitude",
            "experiment.detector_kick",
            "experiment.tilted_kick",
            "experiment.storey_bound",
        ),
    ),
    # Each call draws from the next seed, so two draws never agree.
    "sampler-seed-ignored": (
        (verify_module,),
        "sample_events",
        _count_into_seed,
        ("experiment.sampler_determinism",),
    ),
    # Outcomes cycle through the three branches whatever their weights.
    "sampler-outcomes-uniform": (
        (verify_module,),
        "sample_events",
        _uniform_outcomes,
        ("experiment.sampler_outcomes",),
    ),
    # Every event lands by branch 0's density; the total pattern is untouched.
    # The sampler reads each branch's density block by block, not whole.
    "sampler-one-branch": (
        (experiment.BranchState,),
        "density_blocks",
        _branch_0_only,
        ("experiment.sampler_gof",),
    ),
    # Fringes at 0.9 of their contrast; every branch keeps its weight.
    "cross-term-damped": (
        (experiment,),
        "_density",
        _damp_cross_term,
        (
            "experiment.density_formula",
            "experiment.visibility_law",
            "experiment.kick_fraction_vs_visibility",
        ),
    ),
    # The overlap's phase dropped from the fringes, so V follows c*cos(theta).
    "overlap-phase-real": (
        (experiment,),
        "_density",
        _real_overlap,
        ("experiment.phase_visibility",),
    ),
}

# The row test_tilt_phase_defect_turns_tilted_kick_red plants its defect in.
TILT_PHASE_ROW = "experiment.tilted_kick"


class TestVerifyCommand:
    def test_passes_on_reduced_config(self, tmp_path):
        # Every detail line prints a measured value, so an ulp-level change
        # in a transform shows here first.  Re-recorded when inner products
        # left BLAS for `wavepacket.inner`'s fixed-order sum; three lines
        # moved: momentum_oracle and comb_closed_form "3.06e-13" to
        # "3.07e-13", phase_kick "0 bins" to "1.16e-14 bins".  Re-recorded at
        # the complex exp of TestRun's pins: kick_displacement "4.55e-13" to
        # "2.27e-13" bins, basis_invariance "2.9e-16" to "3.62e-16".  Where the
        # blocks fall is checked on SMALL by test_block_edges_move_no_byte.
        out = run_cli(tmp_path, "verify", REDUCED).stdout
        assert "[PASS]" in out and "0 failed" in out
        assert hashlib.sha256(out.encode()).hexdigest() == REDUCED_VERIFY_SHA256

    def test_block_edges_move_no_byte(self, tmp_path, unblocked):
        assert_block_edges_move_no_byte("verify", list(BLOCK_VARIANTS), tmp_path, unblocked)

    def test_stdout_is_the_same_on_any_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a long dot product across its threads, which moves
        # the last bits of the sum.  verify's inner products take no BLAS
        # call, so its stdout is the same on any thread count.  One child
        # runs REDUCED verify on one thread; its stdout must have the digest
        # that test_passes_on_reduced_config holds in this process, where
        # OpenBLAS runs at the host's count (numpy loads before the command
        # can set one).  On a one-core host both are one thread, and this
        # passes trivially.  It runs REDUCED, because OpenBLAS splits only
        # long vectors: with numpy 2.4.6 on 2 cores, np.vdot's bits differed
        # between one thread and two at 16,384 and 131,072 points, but not at
        # 4,096 or 8,192, so SMALL's 4096 points would pass a BLAS dot.
        (tmp_path / "reduced.cfg").write_text(REDUCED)
        code = "import sys; from kickscope.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["-c", code, "verify", "--config", str(tmp_path / "reduced.cfg")]
        done = run_python(*argv, env={"OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == REDUCED_VERIFY_SHA256

    def test_skips_kick_checks_at_full_overlap(self, tmp_path):
        out = run_cli(tmp_path, "verify", _with(REDUCED, "detector.c = 1.0\n")).stdout
        assert "0 failed" in out
        for name in ("detector_kick", "tilted_kick", "storey_bound"):
            assert f"[SKIP] experiment.{name} " in out, name
        # Re-recorded with the REDUCED digest above; at the complex exp only
        # kick_displacement moved.
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "33524d6e7198e705b61f8f05bf0a048dd917c711f774d94dad0afe91dc6832d2"

    def test_tightened_tolerance_turns_the_suite_red(self, monkeypatch, capsys):
        # Injecting an unreachable tolerance must flip the exit code; this
        # guards against the suite passing vacuously.
        monkeypatch.setitem(TOLERANCES, "experiment.visibility_law", 1e-6)
        assert run_suite(parse_config_text(REDUCED)) == 1
        assert "[FAIL] experiment.visibility_law" in capsys.readouterr().out

    def test_a_raising_check_is_a_fail_row(self, tmp_path, monkeypatch):
        # An error inside one check fails that check's row; the rest of the
        # table still runs.  The four kick rows call relative_kick.
        def broken(*args):
            raise RuntimeError("no comb today")

        monkeypatch.setattr(verify_module, "relative_kick", broken)
        *rows, tally = run_cli(tmp_path, "verify", REDUCED, expect=1).stdout.splitlines()
        status = {row[7:].split()[0]: (row[1:5], row[7:].split(None, 1)[1]) for row in rows}
        assert list(status) == list(TOLERANCES)
        kicks = {
            "experiment.kick_magnitude",
            "experiment.detector_kick",
            "experiment.tilted_kick",
            "experiment.storey_bound",
        }
        for name in kicks:
            assert status[name] == ("FAIL", "raised RuntimeError: no comb today"), name
        assert all(status[name][0] == "PASS" for name in set(status) - kicks)
        assert tally == "21 passed, 4 failed, 0 skipped"

    @pytest.mark.parametrize("error, at_one_bin", [(1e-6, "FAIL"), (-1e-6, "PASS")])
    def test_tilt_phase_defect_turns_tilted_kick_red(self, monkeypatch, error, at_one_bin):
        # A 1e-6 rad error in the q- row's tilt phase moves the relative
        # kick by about 3e-4 momentum bins on this grid.  Outward it carries
        # the half-fringe kick past p0, where it reads as -p0 + 3e-4 bins;
        # inward it stays within one bin, and only the tightened tolerance
        # sees it.
        real = Basis.matrix_from_computational

        def defective(basis):
            m = real(basis)
            if basis != COMPUTATIONAL:
                m[1, 1] *= cmath.exp(1j * error)
            return m

        monkeypatch.setattr(Basis, "matrix_from_computational", defective)
        check = dict(_CHECKS)[TILT_PHASE_ROW]
        run = _Run(parse_config_text(REDUCED))
        assert check(run, TOLERANCES[TILT_PHASE_ROW]).status == "FAIL"
        assert check(run, 1.0).status == at_one_bin


    @pytest.mark.parametrize("defect", DEFECTS)
    def test_planted_defect_turns_its_checks_red(self, monkeypatch, defect):
        owners, name, plant, names = DEFECTS[defect]
        cfg = parse_config_text(REDUCED)
        for owner in owners:
            monkeypatch.setattr(owner, name, plant(getattr(owner, name), cfg))
        checks, run = dict(_CHECKS), _Run(cfg)
        status = {check: checks[check](run, TOLERANCES[check]).status for check in names}
        assert status == dict.fromkeys(names, "FAIL")

    def test_every_row_has_a_defect_or_is_listed(self):
        # Every row is turned red by some planted defect, so a new row
        # fails here until a defect is planted for it.
        killed = {name for *_, names in DEFECTS.values() for name in names} | {TILT_PHASE_ROW}
        assert set(TOLERANCES) == killed

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="at c = 0 there are no fringes, and the fringe estimator reports the "
        "envelope's contrast inside its window, about 0.098 at sigma/d = 0.05"
    )
    def test_visibility_rows_pass_at_wide_slits(self):
        # A valid config at sigma/d = NARROW_SLIT_RATIO, with dx = sigma/4.
        # The full verify exits 1 on it; these are the three rows that fail.
        wide = (
            "geometry.sigma = 0.05\ngrid.n = 131072\ngrid.x_min = -818.7\ngrid.x_max = 819.7\n"
        )
        names = (
            "experiment.visibility_law",
            "experiment.kick_fraction_vs_visibility",
            "experiment.phase_visibility",
        )
        checks, run = dict(_CHECKS), _Run(parse_config_text(wide))
        status = {name: checks[name](run, TOLERANCES[name]).status for name in names}
        assert status == dict.fromkeys(names, "PASS")


def _desk(n):
    # The desk physics (d = 1, sigma = 0.01, dx = 0.0025) on an n-point box
    # around d/2, with the flight scaled with the box (t = 5*n/2^21) so the
    # box keeps the default's headroom.  500 events keep the sampler's
    # blocks small, so at both sizes its cell CDFs, not a block's sort, set
    # its peak.
    half = n * 0.0025 / 2
    return (
        f"units.t = {5.0 * n / 2**21!r}\ngrid.n = {n}\n"
        f"grid.x_min = {0.5 - half!r}\ngrid.x_max = {0.5 + half!r}\nsampling.count = 500\n"
    )


# Full-grid arrays each command may hold per grid point, counted in n-point
# complex arrays.  The emitted pair and its screen are 4 of them:
# tracemalloc counts the zero-filled slits in full, though RSS holds only
# their written pages.  The rest is the largest stage's own arrays: none
# for run (momentum.csv is read off the two slit transforms that then fly
# in place into the screen) or scan (its comb is read off the screen's own
# transforms, and the comb and kick-identity sums go by chunk), and the
# sampler's cell edges and three cell CDFs for sample and verify (verify's
# kick_displacement row transforms its kicked state in place, one array).
# Measured: run 3.99, scan 4.00, sample 6.00 and verify 5.99.
MEMORY_BUDGET = {"run": 4.5, "scan": 4.5, "sample": 6.5, "verify": 6.5}


@pytest.mark.parametrize("command", MEMORY_BUDGET)
def test_memory_per_grid_point_is_within_budget(command, tmp_path, monkeypatch):
    # The traced peak at 2^17 minus the traced peak at 2^16, in 2^16-point
    # complex arrays (1 MiB): whatever a command holds in fixed-size blocks
    # cancels, and what grows with n remains.  One untraced run first loads
    # what numpy imports on first use (numpy.ma, numpy.random), which would
    # otherwise count in whichever run meets it first.  The CSV writer is
    # stubbed out: it formats one block at a time whatever n (TestBlockWriter
    # holds that), and under tracemalloc its text alone takes seconds here.
    monkeypatch.setattr(cli, "_write_rows", lambda fh, columns, labels=None: None)
    peaks = {}
    for n, traced in ((2**17, False), (2**16, True), (2**17, True)):
        args = (tmp_path, command, _desk(n))
        _, peaks[n] = traced_peak(run_cli, *args) if traced else (run_cli(*args), None)
    arrays = (peaks[2**17] - peaks[2**16]) / 2**20
    assert arrays <= MEMORY_BUDGET[command], f"{arrays:.2f} arrays"


def _count_calls(calls, name, real):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def small_calls(tmp_path_factory):
    """``{command: Counter}`` of counted calls in one SMALL run of each command.

    Every counter is installed for every run: forward FFTs, the pair's
    kick-identity residual, fringe analyses and builds of a grid's cell
    edges.  scan sweeps its five default c-values.
    """
    calls = []

    def counted(name, owner):
        real = owner.__dict__[name].func
        prop = functools.cached_property(_count_calls(calls, name, real))
        prop.__set_name__(owner, name)
        return prop

    counts = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.fft, "fft", _count_calls(calls, "fft", np.fft.fft))
        patch.setattr(
            experiment,
            "_fringe_analysis",
            _count_calls(calls, "_fringe_analysis", experiment._fringe_analysis),
        )
        for owner, name in ((experiment.SlitPair, "kick_identity_residual"), (GridSpec, "_edges")):
            patch.setattr(owner, name, counted(name, owner))
        for command in ("scan", "verify", "run", "sample"):
            calls.clear()
            run_cli(tmp_path_factory.mktemp(command), command, SMALL)
            counts[command] = collections.Counter(calls)
    return counts


def test_scan_and_verify_propagate_the_slit_pair_once(small_calls):
    # Every c shares one slit pair, so scan transforms two states however
    # many c-values it sweeps, and its screen and comb share those two
    # forward FFTs.  verify flies the same pair, and its momentum_oracle,
    # roundtrip and kick_displacement rows add one, one and three.
    assert small_calls["scan"]["fft"] == 2
    assert small_calls["verify"]["fft"] == 2 + 5


def test_kick_analysis_transforms_the_slit_pair_once(small_calls):
    # Kicks are read off the pair's comb matrix, which takes no transform
    # beyond the screen's one per slit, so no detector setting adds a
    # full-grid FFT of its own (scan's count above).  run reads momentum.csv
    # off those same two transforms before they fly, and sample flies the
    # pair once for its screen.
    assert small_calls["run"]["fft"] == 2
    assert small_calls["sample"]["fft"] == 2


@pytest.mark.parametrize(
    "extra,cause",
    [(LATE_WINDOW, "analysis window"), ("grid.x_min = -1\ngrid.x_max = 2\n", "wraparound")],
    ids=["window", "headroom"],
)
def test_run_that_cannot_be_read_takes_no_transform_and_makes_no_directory(
    tmp_path, monkeypatch, extra, cause
):
    # run writes momentum.csv before it reads, so read's two guards run
    # before the output directory is made and before any transform.
    calls = []
    monkeypatch.setattr(np.fft, "fft", _count_calls(calls, "fft", np.fft.fft))
    run = run_cli(tmp_path, "run", _with(SMALL, extra), expect=2)
    assert cause in run.stderr and run.stdout == ""
    assert calls == [] and not run.out.exists()


def test_scan_computes_the_kick_identity_residual_once(small_calls):
    assert small_calls["scan"]["kick_identity_residual"] == 1


def test_scan_computes_each_visibility_once(small_calls):
    # One fringe analysis per c, scan's five default c-values.
    assert small_calls["scan"]["_fringe_analysis"] == 5


def test_run_and_scan_build_no_cell_edges(small_calls):
    # Only the sampler reads the grid's n + 1 cell edges whole; run and
    # scan take their points by block.  verify samples, so it builds them.
    assert small_calls["run"]["_edges"] == small_calls["scan"]["_edges"] == 0
    assert small_calls["verify"]["_edges"] >= 1


def test_kick_displacement_transforms_the_unkicked_state_once(monkeypatch):
    calls = []
    monkeypatch.setattr(np.fft, "fft", _count_calls(calls, "fft", np.fft.fft))
    check = dict(_CHECKS)["wavepacket.kick_displacement"]
    tol = TOLERANCES["wavepacket.kick_displacement"]
    assert check(_Run(parse_config_text(REDUCED)), tol).status == "PASS"
    assert len(calls) == 3  # the unkicked state and one per boost


@pytest.mark.parametrize("hbar", [1e6, 1e14])
def test_kick_displacement_reads_in_momentum_bins(hbar):
    # REDUCED in other momentum units, with hbar*t kept at 1: the same
    # packets, so the same error in bins, however large hbar makes p.
    text = _with(REDUCED, f"units.hbar = {hbar!r}\nunits.t = {1.0 / hbar!r}\n")
    check = dict(_CHECKS)["wavepacket.kick_displacement"]
    result = check(_Run(parse_config_text(text)), TOLERANCES["wavepacket.kick_displacement"])
    assert result.status == "PASS", result.detail
