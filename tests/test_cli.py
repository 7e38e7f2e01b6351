"""End-to-end command-line runs on small and reduced grids, plus the check suite."""

import cmath
import errno
import filecmp
import functools
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from comb_oracle import apply_kick

import kickscope
from kickscope import cli, experiment, wavepacket
from kickscope import verify as verify_module
from kickscope.cli import main
from kickscope.config import load_config, parse_config_text
from kickscope.hilbert import COMPUTATIONAL, Basis
from kickscope.verify import _CHECKS, TOLERANCES, _Run, run_suite
from kickscope.wavepacket import MomentumSpectrum, Wavefunction, gaussian_state

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


def _with(base: str, extra: str) -> str:
    """``base`` with every key that ``extra`` sets taken from ``extra``."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


def _write_config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture
def cfg_path(tmp_path):
    return _write_config(tmp_path / "reduced.cfg", REDUCED)


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = float(value)
    return out


def assert_digests(out, golden):
    for name, digest in golden.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestRun:
    def test_writes_pattern_momentum_summary(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0

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
        path = _write_config(tmp_path / "c1.cfg", _with(SMALL, "detector.c = 1.0\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert math.isnan(summary["p0_measured"]) and math.isnan(summary["storey_lhs"])
        assert summary["storey_rhs"] == 1.0 - summary["V_measured"]

    def test_summary_does_not_depend_on_the_readout_basis(self, tmp_path):
        # The basis picks only the branch columns of pattern.csv and
        # momentum.csv; summary.txt reads the setting in one basis.
        summaries = {}
        for i, basis in enumerate(("symmetric", "computational", "tilted:0.9")):
            extra = f"detector.c = 0.3\ndetector.theta = 0.7\nbasis = {basis}\n"
            path = _write_config(tmp_path / f"{i}.cfg", _with(SMALL, extra))
            out = tmp_path / f"out{i}"
            assert main(["run", "--config", path, "--out", str(out)]) == 0
            summaries[basis] = (out / "summary.txt").read_text()
        assert len(set(summaries.values())) == 1, summaries

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = _write_config(tmp_path / "small.cfg", SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(b)]) == 0
        for name in ("pattern.csv", "momentum.csv", "summary.txt"):
            assert filecmp.cmp(a / name, b / name, shallow=False)

    @pytest.mark.parametrize("block", [None, 7])
    def test_output_bytes_are_pinned(self, cfg_path, tmp_path, monkeypatch, block):
        # sha256 of the REDUCED run, recorded with the np.savetxt writer that
        # the block writer replaced.  block = 7 puts block boundaries inside
        # each table.
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert_digests(
            out,
            {
                "pattern.csv": "6d04fa7b1c3caac607fde2036852deed3757fee2850b66b14113cdb2858caad5",
                "momentum.csv": "e0a013cf590ad308d0831863e91936b3fc7ff21e235abc7309f8e6fc1693457b",
                "summary.txt": "79904b332576d938c2780c989809f9be54833449d0b41eb96789d36ff8f26362",
            },
        )


class TestScan:
    def test_scan_rows(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["scan", "--config", cfg_path, "--out", str(out), "--c-values", "0,0.5,1"]
        )
        assert rc == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "c,V_measured,F_k_branch,p0_measured,kick_identity_residual"
        data = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], [0.0, 0.5, 1.0], atol=0)
        np.testing.assert_allclose(data[:, 2], [0.5, 0.25, 0.0], rtol=0, atol=1e-10)
        assert np.isnan(data[2, 3])  # no interfering branches left at c = 1
        assert abs(data[1, 3] - math.pi) <= 2.0 * math.pi / (131072 * 0.005)

    @pytest.mark.parametrize("block", [None, 7])
    def test_output_bytes_are_pinned(self, cfg_path, tmp_path, monkeypatch, block):
        # Recorded like TestRun's pins; nine rows, so block = 7 splits them.
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        out = tmp_path / "out"
        c_values = "0,0.125,0.25,0.375,0.5,0.625,0.75,0.875,1"
        argv = ["scan", "--config", cfg_path, "--out", str(out), "--c-values", c_values]
        assert main(argv) == 0
        assert_digests(
            out, {"scan.csv": "1651a131cbf9a6b1e2a77abfc85bf1a153c2e28f7b751535e662f513dfef5b08"}
        )

    def test_rejects_bad_c_list(self, cfg_path, tmp_path, capsys):
        rc = main(["scan", "--config", cfg_path, "--out", str(tmp_path), "--c-values", "0,2"])
        assert rc == 2
        assert "outside [0, 1]" in capsys.readouterr().err


class TestSample:
    def test_events_and_summary(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "outcome,x"
        assert len(lines) == 2001
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels <= {"q_plus", "q_minus", "q3"}
        summary = (out / "sample_summary.txt").read_text()
        assert "count=2000" in summary and "seed=7" in summary
        assert "chi_square_p=" in summary

    @pytest.mark.parametrize("block", [None, 7, "events-7"])
    def test_output_bytes_are_pinned(self, cfg_path, tmp_path, monkeypatch, block):
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
        # 0.50000000000015332.  block = 7 puts writer block boundaries
        # inside the event stream; "events-7" puts sampler block boundaries
        # inside it, and so inside the outcome counts and the fit's bins.
        if block == "events-7":
            monkeypatch.setattr(experiment, "_SAMPLE_BLOCK", 7)
        elif block is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
        assert_digests(
            out,
            {
                "events.csv": "a22168d8ffc0dc6d19076c2b68f55cdfcd1f1151918d5c82f43d6206974bdebc",
                "sample_summary.txt": "cc1bcb0258e376a7fa1b6a74c6e6f03689da8470278c56c4f97234591c4e2b5e",
            },
        )

    def test_prints_the_branch_probability_that_run_prints(self, tmp_path):
        # The conftest physics on its 8192-point grid.  Both commands read
        # one state prepared at the slits, so the q- probability is
        # summary.txt's F_k_branch to the last digit.
        text = (
            "geometry.sigma = 0.02\nunits.t = 0.05\ngrid.n = 8192\n"
            "grid.x_min = -19.98\ngrid.x_max = 20.98\ndetector.c = 0.3\n"
            "sampling.count = 2000\n"
        )
        path, out = _write_config(tmp_path / "conftest.cfg", text), tmp_path / "out"
        for command in ("run", "sample"):
            assert main([command, "--config", path, "--out", str(out)]) == 0
        f_k = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )["F_k_branch"]
        (q_minus,) = [
            line.rsplit("prob=", 1)[1]
            for line in (out / "sample_summary.txt").read_text().splitlines()
            if line.startswith("q_minus:")
        ]
        assert q_minus == f_k

    def test_memory_does_not_grow_with_the_event_count(self, tmp_path):
        # The command's tracemalloc peak on SMALL at 2^19 events against 2^17.
        # Holding the whole draw as arrays costs 16 bytes an event, 6 MiB
        # more here.
        peaks = []
        for count in (2**17, 2**19):
            text = _with(SMALL, f"sampling.count = {count}\n")
            argv = ["sample", "--config", _write_config(tmp_path / f"{count}.cfg", text)]
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(tmp_path / str(count))]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 2**19, peaks

    def test_outputs_honour_the_umask(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        old = os.umask(0o027)
        try:
            assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        for name in ("events.csv", "sample_summary.txt"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o640, name


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
        cli._write_rows(got, ",".join(["%.17g"] * len(columns)) + "\n", columns)
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("n_rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_labels_match_the_per_event_format(self, n_rows):
        labels = ["q_plus", "q_minus", "q3"]
        rng = np.random.default_rng(n_rows)
        codes = rng.integers(0, 3, n_rows)
        xs = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        xs[: len(self.EDGES)] = self.EDGES[:n_rows]
        expected = "".join("%s,%.17g\n" % (labels[c], x) for c, x in zip(codes, xs))
        got = io.StringIO()
        cli._write_rows(got, "%s,%.17g\n", [codes, xs], np.array(labels, dtype=object))
        assert got.getvalue() == expected

    N_ROWS = 1 << 15

    @pytest.mark.parametrize(
        "block,fits", [(cli._BLOCK_ROWS, True), (N_ROWS, False)], ids=["blocks", "whole-table"]
    )
    def test_memory_is_one_block_not_the_table(self, tmp_path, monkeypatch, block, fits):
        # 2^12-row blocks of this table peak near 1.35 MiB of Python floats
        # and text; the whole table as one block near 10.8 MiB.  The bound is
        # 5.25 MiB.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(0)
        columns = [rng.standard_normal(self.N_ROWS) for _ in range(5)]
        stacked_nbytes = self.N_ROWS * len(columns) * 8
        tracemalloc.start()
        try:
            with open(tmp_path / "t.csv", "w", encoding="utf-8") as fh:
                cli._write_table(fh, list("abcde"), columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
            # run fails while building momentum.csv, after pattern.csv.
            ("run", experiment.SlitPair, "spectra"),
            # sample fails in the summary's fit, after every event is
            # drawn, written to the temporary events.csv and binned.
            ("sample", cli, "screen_goodness_of_fit"),
        ],
        ids=["run", "sample"],
    )
    def test_failed_rerun_keeps_the_previous_set(
        self, tmp_path, monkeypatch, capsys, command, target, name
    ):
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path / "small.cfg", SMALL)
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        before = self._contents(out)
        path = _write_config(tmp_path / "c025.cfg", _with(SMALL, "detector.c = 0.25\n"))
        monkeypatch.setattr(
            target, name, _disk_full_after_the_draw if command == "sample" else _disk_full
        )
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and "wrote" not in captured.out
        # The same names (so no leftover .kickscope-* directory), the same bytes.
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert self._contents(out) == before

    def test_a_directory_in_a_files_place_renames_nothing(self, tmp_path, capsys):
        # momentum.csv is a directory: os.replace would move pattern.csv into
        # place and then fail, leaving a mixed set.  The target is refused first.
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path / "small.cfg", SMALL)
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        (out / "momentum.csv").unlink()
        (out / "momentum.csv").mkdir()
        before = {name: (out / name).read_bytes() for name in ("pattern.csv", "summary.txt")}
        path = _write_config(tmp_path / "c025.cfg", _with(SMALL, "detector.c = 0.25\n"))
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert str(out / "momentum.csv") in captured.err and "wrote" not in captured.out
        assert sorted(p.name for p in out.iterdir()) == ["momentum.csv", *sorted(before)]
        assert (out / "momentum.csv").is_dir()
        assert {name: (out / name).read_bytes() for name in before} == before


class TestFailureModes:
    def test_output_dir_key_is_unknown(self, tmp_path, monkeypatch, capsys):
        # Outputs go to --out or the working directory; a config cannot
        # name a directory of its own.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        path = _write_config(tmp_path / "cfg", REDUCED + f"output.dir = {tmp_path / 'fromcfg'}\n")
        assert main(["run", "--config", path]) == 2
        assert "unknown config key 'output.dir'" in capsys.readouterr().err
        assert not (tmp_path / "fromcfg").exists()
        assert list(work.iterdir()) == []

    def test_bad_config_exits_2_with_no_outputs(self, tmp_path, capsys):
        bad = _write_config(tmp_path / "bad.cfg", "detector.c = 1.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", bad, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "scan", "sample", "verify"])
    def test_no_command_takes_a_seed_flag(self, cfg_path, tmp_path, capsys, command):
        # sampling.seed is the one seed: verify --config checks the events
        # that sample draws from the same file.
        out = tmp_path / "out"
        argv = [command, "--config", cfg_path, "--seed", "3"]
        if command != "verify":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: kickscope")
        assert "unrecognized arguments: --seed 3" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "line,name",
        [
            ("geometry.sigma = inf", "sigma"),
            ("units.hbar = nan", "hbar"),
            ("basis = tilted:nan", "angle"),
        ],
    )
    def test_non_finite_input_exits_2_with_no_outputs(self, tmp_path, capsys, line, name):
        path = _write_config(tmp_path / "bad.cfg", _with(REDUCED, line + "\n"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and name in err and "finite" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "scan", "sample", "verify"])
    def test_repeated_key_exits_2_with_no_outputs(self, tmp_path, capsys, command):
        path = _write_config(tmp_path / "twice.cfg", REDUCED + "detector.c = 0.25\n")
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", path]
        assert main(argv if command == "verify" else argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "line 10: config key 'detector.c' repeats line 7" in captured.err
        assert captured.out == "" and list(out.iterdir()) == []

    def test_late_analysis_error_exits_2_with_no_outputs(self, tmp_path, capsys):
        path = _write_config(tmp_path / "late.cfg", _with(REDUCED, LATE_WINDOW))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--config", path, "--out", str(out)]) == 2
        assert "analysis window" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sample_without_headroom_exits_2_with_no_out_dir(self, tmp_path, capsys):
        # Ten events are too few for the fit, so only the sampler reads the
        # screen; it reads it on the call, before any output.
        text = _with(REDUCED, "grid.x_min = -5\ngrid.x_max = 6\nsampling.count = 10\n")
        out = tmp_path / "out"
        argv = ["sample", "--config", _write_config(tmp_path / "bad.cfg", text)]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "wraparound" in captured.err
        assert captured.out == "" and not out.exists()

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
    def test_verify_config_error_exits_2(self, tmp_path, capsys, text, cause):
        # A config no check can run on is a usage error, as in run and scan,
        # not a table of failed checks.
        path = _write_config(tmp_path / "bad.cfg", text)
        assert main(["verify", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and cause in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_unallocatable_grid_exits_2(self, tmp_path, command):
        # 2^40 points pass validation but need terabytes.  The child caps its
        # own address space at 3 GB before it imports anything, so the
        # allocation fails at once whatever the machine's overcommit policy.
        path = _write_config(tmp_path / "huge.cfg", "grid.n = 1099511627776\n")
        out = tmp_path / "out"
        code = (
            "import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard)); "
            "from kickscope.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        argv = [sys.executable, "-c", code, command, "--config", path]
        if command == "run":
            argv += ["--out", str(out)]
        src = str(Path(kickscope.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: out of memory") and "grid.n" in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert done.stdout == ""
        assert not out.exists()

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        bad = _write_config(tmp_path / "bad.cfg", "# comment\ngrid.m = 4\n")
        assert main(["run", "--config", bad]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["import", "run", "scan", "sample", "verify"])
def test_scipy_stays_off_the_command_path(command, tmp_path):
    # Transforms use numpy.fft and the chi-square p-value is a finite sum,
    # so no command loads any part of scipy.
    path = _write_config(tmp_path / "small.cfg", SMALL)
    code = (
        "import json, sys; sys.path.insert(0, sys.argv.pop(1)); from kickscope.cli import main; "
        "rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')), "
        "file=sys.stderr); "
        "sys.exit(rc)"
    )
    src = str(Path(kickscope.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", code, src]
    if command == "verify":
        argv += [command, "--config", path]
    elif command != "import":
        argv += [command, "--config", path, "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if command == "sample":
        assert "chi_square_p=" in (tmp_path / "out" / "sample_summary.txt").read_text()
    if command == "verify":
        assert "[PASS] experiment.sampler_gof " in done.stdout
    assert json.loads(done.stderr.splitlines()[-1]) == []


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
    return lambda psi, geom, units: real(psi, geom, replace(units, t=units.t * (1.0 + 1e-6)))


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
    # to_momentum without the phase that moves the origin from x_min to 0.
    def defective(psi, hbar):
        grid = psi.grid
        spec = np.fft.fftshift(np.fft.fft(psi.amplitudes))
        return MomentumSpectrum(grid, grid.dx / math.sqrt(2.0 * math.pi * hbar) * spec, hbar=hbar)

    return defective


def _stretch_momentum_axis(real, cfg):
    # The same amplitudes, labelled with hbar*(1 + 1e-8): every p and dp 1e-8 too long.
    def defective(psi, hbar):
        spec = real(psi, hbar=hbar)
        return MomentumSpectrum(spec.grid, spec.amplitudes, hbar=hbar * (1.0 + 1e-8))

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
        "propagate_fft",
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
        "to_momentum",
        _drop_momentum_phase,
        ("wavepacket.momentum_oracle", "wavepacket.roundtrip"),
    ),
    # Spectra whose p and dp are 1e-8 too long, so a boost by p moves the
    # mean momentum sum(p*|phi|^2)*dp by about p*(1 + 2e-8).
    "momentum-axis-stretched": (
        (verify_module,),
        "to_momentum",
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
    "sampler-one-branch": (
        (experiment.BranchState,),
        "branch",
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
    def test_passes_on_reduced_config(self, cfg_path, capsys):
        assert main(["verify", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "0 failed" in out
        # Every detail line prints a measured value, so an ulp-level change
        # in a transform shows here first.  Re-recorded when basis_invariance
        # became relative to the density's peak; its line alone moved, from
        # "max abs diff 6.94e-18" to "max rel diff 2.9e-16".
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "710c2807f0e75cbcbaf7d65fc589f2deccbea557c3822732187e8d4bdb8001f0"

    def test_skips_kick_checks_at_full_overlap(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c1.cfg", _with(REDUCED, "detector.c = 1.0\n"))
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        for name in ("detector_kick", "tilted_kick", "storey_bound"):
            assert f"[SKIP] experiment.{name} " in out, name
        # Re-recorded with the REDUCED digest above, for the same one line.
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "be2b558bbe9a8546d15db70cfcc3ba48464336571986d65481df26df26a9723e"

    def test_tightened_tolerance_turns_the_suite_red(self, cfg_path, monkeypatch, capsys):
        # Injecting an unreachable tolerance must flip the exit code; this
        # guards against the suite passing vacuously.
        monkeypatch.setitem(TOLERANCES, "experiment.visibility_law", 1e-6)
        assert run_suite(load_config(cfg_path)) == 1
        assert "[FAIL] experiment.visibility_law" in capsys.readouterr().out

    def test_a_raising_check_is_a_fail_row(self, cfg_path, monkeypatch, capsys):
        # An error inside one check fails that check's row; the rest of the
        # table still runs.  The four kick rows call relative_kick.
        def broken(*args):
            raise RuntimeError("no comb today")

        monkeypatch.setattr(verify_module, "relative_kick", broken)
        assert main(["verify", "--config", cfg_path]) == 1
        *rows, tally = capsys.readouterr().out.splitlines()
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
    def test_tilt_phase_defect_turns_tilted_kick_red(
        self, cfg_path, monkeypatch, error, at_one_bin
    ):
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
        run = _Run(load_config(cfg_path))
        assert check(run, TOLERANCES[TILT_PHASE_ROW]).status == "FAIL"
        assert check(run, 1.0).status == at_one_bin


    @pytest.mark.parametrize("defect", DEFECTS)
    def test_planted_defect_turns_its_checks_red(self, cfg_path, monkeypatch, defect):
        owners, name, plant, names = DEFECTS[defect]
        cfg = load_config(cfg_path)
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


def _count_calls(calls, name, real):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return wrapper


def _small_path(tmp_path):
    return _write_config(tmp_path / "small.cfg", SMALL)


_SCAN = ["scan", "--c-values", "0,0.25,0.5,0.75,1"]


def test_scan_and_verify_propagate_the_slit_pair_once(tmp_path, monkeypatch):
    # Every c shares one slit pair, so scan propagates two states however
    # many c-values it sweeps, and so does verify: propagator_agreement
    # compares the closed form with that same propagated pair.
    calls = []
    fft = _count_calls(calls, "propagate_fft", experiment.propagate_fft)
    monkeypatch.setattr(experiment, "propagate_fft", fft)
    monkeypatch.setattr(verify_module, "propagate_fft", fft, raising=False)
    path = _small_path(tmp_path)
    for argv in ([*_SCAN, "--out", str(tmp_path / "out")], ["verify"]):
        calls.clear()
        assert main([*argv, "--config", path]) == 0
        assert len(calls) == 2, argv[0]


def test_kick_analysis_transforms_the_slit_pair_once(tmp_path, monkeypatch):
    # Kicks are read off the pair's comb matrix, which costs one transform
    # per slit; no detector setting adds a full-grid FFT of its own.  run
    # adds one per slit for momentum.csv.
    calls = []
    real = experiment.to_momentum
    monkeypatch.setattr(experiment, "to_momentum", _count_calls(calls, "to_momentum", real))
    path, out = _small_path(tmp_path), str(tmp_path / "out")
    for argv, count in (
        ([*_SCAN, "--out", out], 2),
        (["verify"], 2),
        (["run", "--out", out], 4),
    ):
        calls.clear()
        assert main([*argv, "--config", path]) == 0
        assert len(calls) == count, argv[0]


def test_scan_computes_the_kick_identity_residual_once(tmp_path, monkeypatch):
    calls = []
    real = experiment.SlitPair.__dict__["kick_identity_residual"].func
    residual = functools.cached_property(_count_calls(calls, "kick_identity_residual", real))
    residual.__set_name__(experiment.SlitPair, "kick_identity_residual")
    monkeypatch.setattr(experiment.SlitPair, "kick_identity_residual", residual)
    argv = [*_SCAN, "--out", str(tmp_path / "out"), "--config", _small_path(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 1


def test_scan_computes_each_visibility_once(tmp_path, monkeypatch):
    # One fringe analysis per c, five c.
    calls = []
    analysis = _count_calls(calls, "_fringe_analysis", experiment._fringe_analysis)
    monkeypatch.setattr(experiment, "_fringe_analysis", analysis)
    argv = [*_SCAN, "--out", str(tmp_path / "out"), "--config", _small_path(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 5


def test_kick_displacement_transforms_the_unkicked_state_once(cfg_path, monkeypatch):
    calls = []
    real = verify_module.to_momentum

    def counting(psi, hbar):
        calls.append(psi)
        return real(psi, hbar=hbar)

    monkeypatch.setattr(verify_module, "to_momentum", counting)
    check = dict(_CHECKS)["wavepacket.kick_displacement"]
    tol = TOLERANCES["wavepacket.kick_displacement"]
    assert check(_Run(load_config(cfg_path)), tol).status == "PASS"
    assert len(calls) == 3  # the unkicked state and one per boost


@pytest.mark.parametrize("hbar", [1e6, 1e14])
def test_kick_displacement_reads_in_momentum_bins(hbar):
    # REDUCED in other momentum units, with hbar*t kept at 1: the same
    # packets, so the same error in bins, however large hbar makes p.
    text = _with(REDUCED, f"units.hbar = {hbar!r}\nunits.t = {1.0 / hbar!r}\n")
    check = dict(_CHECKS)["wavepacket.kick_displacement"]
    result = check(_Run(parse_config_text(text)), TOLERANCES["wavepacket.kick_displacement"])
    assert result.status == "PASS", result.detail
