"""End-to-end command-line runs on a reduced grid, plus the check suite."""

import cmath
import errno
import filecmp
import functools
import hashlib
import io
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

import kickscope
from kickscope import cli, experiment
from kickscope import verify as verify_module
from kickscope.cli import main
from kickscope.config import load_config, parse_config_text
from kickscope.hilbert import COMPUTATIONAL, Basis
from kickscope.verify import _CHECKS, TOLERANCES, _Run, run_suite
from kickscope.wavepacket import apply_kick

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

# A valid grid whose spacing is wider than the two-period fringe window at
# t = 1e-6; only fringe_analysis notices.
LATE_WINDOW = "units.t = 1e-6\ngrid.n = 4096\ngrid.x_min = -4.62\ngrid.x_max = 5.62\n"


def _reduced_with(extra: str) -> str:
    """REDUCED with every key that ``extra`` sets taken from ``extra``."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in REDUCED.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "reduced.cfg"
    path.write_text(REDUCED)
    return str(path)


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

    def test_reruns_are_byte_identical(self, cfg_path, tmp_path):
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

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["sample", "--config", cfg_path, "--out", str(a)])
        main(["sample", "--config", cfg_path, "--out", str(b), "--seed", "8"])
        main(["sample", "--config", cfg_path, "--out", str(c), "--seed", "7"])
        assert not filecmp.cmp(a / "events.csv", b / "events.csv", shallow=False)
        assert filecmp.cmp(a / "events.csv", c / "events.csv", shallow=False)

    @pytest.mark.parametrize("block", [None, 7])
    def test_output_bytes_are_pinned(self, cfg_path, tmp_path, monkeypatch, block):
        # sha256 of the REDUCED run (seed 7, 2000 events), recorded when the
        # branches became combinations of one propagated slit pair.  Against
        # the earlier three-branch propagation every outcome and count is the
        # same and positions moved by at most 2.1e-14*max(1, |x|).  block = 7
        # puts writer block boundaries inside the event stream.
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
        assert_digests(
            out,
            {
                "events.csv": "a22168d8ffc0dc6d19076c2b68f55cdfcd1f1151918d5c82f43d6206974bdebc",
                "sample_summary.txt": "4a3f0602a7ca8c7eb38cb39085390f3992282f9b47cef4a3e1603330e75c20fb",
            },
        )

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

    def test_memory_is_one_block_not_the_table(self, tmp_path):
        # 2^16-row blocks of this table peak near 21 MB of Python floats and
        # text; 2^12-row blocks near 1.4 MB.
        n = 1 << 17
        rng = np.random.default_rng(0)
        columns = [rng.standard_normal(n) for _ in range(5)]
        stacked_nbytes = n * len(columns) * 8
        tracemalloc.start()
        try:
            with open(tmp_path / "t.csv", "w", encoding="utf-8") as fh:
                cli._write_table(fh, list("abcde"), columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= stacked_nbytes + 4 * 2**20


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


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
            # sample fails in the summary's fit, after drawing the events.
            ("sample", cli, "screen_goodness_of_fit"),
        ],
        ids=["run", "sample"],
    )
    def test_failed_rerun_keeps_the_previous_set(
        self, cfg_path, tmp_path, monkeypatch, capsys, command, target, name
    ):
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        before = self._contents(out)
        path = tmp_path / "c025.cfg"
        path.write_text(_reduced_with("detector.c = 0.25\n"))
        monkeypatch.setattr(target, name, _disk_full)
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and "wrote" not in captured.out
        # The same names (so no leftover .kickscope-* directory), the same bytes.
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert self._contents(out) == before

    def test_a_directory_in_a_files_place_renames_nothing(self, cfg_path, tmp_path, capsys):
        # momentum.csv is a directory: os.replace would move pattern.csv into
        # place and then fail, leaving a mixed set.  The target is refused first.
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        (out / "momentum.csv").unlink()
        (out / "momentum.csv").mkdir()
        before = {name: (out / name).read_bytes() for name in ("pattern.csv", "summary.txt")}
        path = tmp_path / "c025.cfg"
        path.write_text(_reduced_with("detector.c = 0.25\n"))
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
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
        path = tmp_path / "cfg"
        path.write_text(REDUCED + f"output.dir = {tmp_path / 'fromcfg'}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown config key 'output.dir'" in capsys.readouterr().err
        assert not (tmp_path / "fromcfg").exists()
        assert list(work.iterdir()) == []

    def test_bad_config_exits_2_with_no_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("detector.c = 1.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_run_has_no_seed_flag(self, cfg_path, tmp_path, capsys):
        # run draws no events, so a seed would change nothing it writes.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg_path, "--out", str(out), "--seed", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: kickscope")
        assert "unrecognized arguments: --seed 3" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_seed_flag_exits_2_with_no_outputs(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg_path, "--out", str(out), "--seed", "-1"]) == 2
        assert "sampling.seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,name",
        [
            ("geometry.sigma = inf", "sigma"),
            ("units.hbar = nan", "hbar"),
            ("basis = tilted:nan", "angle"),
        ],
    )
    def test_non_finite_input_exits_2_with_no_outputs(self, tmp_path, capsys, line, name):
        path = tmp_path / "bad.cfg"
        path.write_text(_reduced_with(line + "\n"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and name in err and "finite" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "scan", "sample", "verify"])
    def test_repeated_key_exits_2_with_no_outputs(self, tmp_path, capsys, command):
        path = tmp_path / "twice.cfg"
        path.write_text(REDUCED + "detector.c = 0.25\n")
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", str(path)]
        assert main(argv if command == "verify" else argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "line 10: config key 'detector.c' repeats line 7" in captured.err
        assert captured.out == "" and list(out.iterdir()) == []

    def test_late_analysis_error_exits_2_with_no_outputs(self, tmp_path, capsys):
        path = tmp_path / "late.cfg"
        path.write_text(_reduced_with(LATE_WINDOW))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "analysis window" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "text,cause",
        [
            # dx = 0.32 on the default extent, against sigma/4 = 0.0025.
            ("grid.n = 16384\n", "too coarse"),
            (_reduced_with("grid.x_min = -5\ngrid.x_max = 6\n"), "wraparound"),
            (_reduced_with(LATE_WINDOW), "analysis window"),
        ],
        ids=["coarse", "headroom", "window"],
    )
    def test_verify_config_error_exits_2(self, tmp_path, capsys, text, cause):
        # A config no check can run on is a usage error, as in run and scan,
        # not a table of failed checks.
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and cause in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_unallocatable_grid_exits_2(self, tmp_path, command):
        # 2^40 points pass validation but need terabytes.  The child caps its
        # own address space at 3 GB before it imports anything, so the
        # allocation fails at once whatever the machine's overcommit policy.
        path = tmp_path / "huge.cfg"
        path.write_text("grid.n = 1099511627776\n")
        out = tmp_path / "out"
        code = (
            "import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard)); "
            "from kickscope.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        argv = [sys.executable, "-c", code, command, "--config", str(path)]
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
        bad = tmp_path / "bad.cfg"
        bad.write_text("# comment\ngrid.m = 4\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


# A 2^12 desk grid (dx = sigma/4) on which run, scan and sample all succeed;
# sampling.count sits exactly at the goodness-of-fit floor.
SMALL = """
geometry.sigma = 0.01
units.t = 0.008
grid.n = 4096
grid.x_min = -4.62
grid.x_max = 5.62
sampling.count = 500
"""


@pytest.mark.parametrize("command", ["import", "run", "scan", "sample"])
def test_scipy_stays_off_the_command_path(command, tmp_path):
    # Transforms use numpy.fft; only the chi-square p-value of `sample`
    # (and of verify's sampler_gof) loads scipy.special.
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    code = (
        "import json, sys; sys.path.insert(0, sys.argv.pop(1)); from kickscope.cli import main; "
        "rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')), "
        "file=sys.stderr); "
        "sys.exit(rc)"
    )
    src = str(Path(kickscope.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", code, src]
    if command != "import":
        argv += [command, "--config", str(path), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.splitlines()[-1])
    if command == "sample":
        assert "chi_square_p=" in (tmp_path / "out" / "sample_summary.txt").read_text()
        assert "scipy.special" in loaded
        assert not [m for m in loaded if m == "scipy.fft" or m.startswith("scipy.fft.")]
    else:
        assert loaded == []


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(kickscope.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kickscope.cli; "
        "print('scipy.stats' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def _scale_row_1(real, cfg):
    def defective(basis):
        m = real(basis)
        m[1] *= 1.0 + 1e-9
        return m

    return defective


def _boost_slit_2(real, cfg):
    def defective(geom, grid, slit):
        psi = real(geom, grid, slit)
        if slit != 2:
            return psi
        hbar = cfg.units.hbar
        return apply_kick(psi, 0.01 * grid.dp(hbar), hbar=hbar)

    return defective


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
        _scale_row_1,
        ("hilbert.unitarity", "experiment.basis_invariance"),
    ),
    "slit-2-boosted": (
        (experiment,),
        "slit_state",
        _boost_slit_2,
        ("experiment.density_formula", "wavepacket.propagator_agreement"),
    ),
}


class TestVerifyCommand:
    def test_passes_on_reduced_config(self, cfg_path, capsys):
        assert main(["verify", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "0 failed" in out
        # Every detail line prints a measured value, so an ulp-level change
        # in a transform shows here first.
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "31d8bdb09b18a639cd2b8aa3ef0dc73b2d1a1ed18b9dc71b00ec57a04d2a57ed"

    def test_skips_kick_checks_at_full_overlap(self, tmp_path, capsys):
        path = tmp_path / "c1.cfg"
        path.write_text(REDUCED.replace("detector.c = 0.5", "detector.c = 1.0"))
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[SKIP]" in out and "0 failed" in out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "ac3e81addae1707b8abcb7d3dd2dfff9919e20a90e17e0af30a39829aeacba92"

    def test_tightened_tolerance_turns_the_suite_red(self, cfg_path, monkeypatch, capsys):
        # Injecting an unreachable tolerance must flip the exit code; this
        # guards against the suite passing vacuously.
        monkeypatch.setitem(TOLERANCES, "experiment.visibility_law", 1e-6)
        assert run_suite(load_config(cfg_path)) == 1
        assert "[FAIL] experiment.visibility_law" in capsys.readouterr().out

    def test_a_raising_check_is_a_fail_row(self, cfg_path, monkeypatch, capsys):
        # An error inside one check fails that check's row; the rest of the
        # table still runs.  The three kick rows call relative_kick.
        def broken(*args):
            raise RuntimeError("no comb today")

        monkeypatch.setattr(verify_module, "relative_kick", broken)
        assert main(["verify", "--config", cfg_path]) == 1
        *rows, tally = capsys.readouterr().out.splitlines()
        status = {row[7:].split()[0]: (row[1:5], row[7:].split(None, 1)[1]) for row in rows}
        assert list(status) == list(TOLERANCES)
        kicks = {"experiment.kick_magnitude", "experiment.detector_kick", "experiment.tilted_kick"}
        for name in kicks:
            assert status[name] == ("FAIL", "raised RuntimeError: no comb today"), name
        assert all(status[name][0] == "PASS" for name in set(status) - kicks)
        assert tally == "21 passed, 3 failed, 0 skipped"

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
        check = dict(_CHECKS)["experiment.tilted_kick"]
        run = _Run(load_config(cfg_path))
        assert check(run, TOLERANCES["experiment.tilted_kick"]).status == "FAIL"
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

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="at c = 0 there are no fringes, and fringe_analysis reports the envelope's "
        "contrast inside its window, about 0.098 at sigma/d = 0.05"
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


def test_scan_and_verify_propagate_the_slit_pair_once(cfg_path, tmp_path, monkeypatch):
    # Every c shares one slit pair, so scan propagates two states however
    # many c-values it sweeps, and so does verify: propagator_agreement
    # compares the closed form with that same propagated pair.
    calls = []
    real = experiment.propagate_fft

    def counting(psi, geom, units):
        calls.append(psi.grid.n)
        return real(psi, geom, units)

    monkeypatch.setattr(experiment, "propagate_fft", counting)
    monkeypatch.setattr(verify_module, "propagate_fft", counting, raising=False)
    argv = ["scan", "--config", cfg_path, "--out", str(tmp_path), "--c-values", "0,0.25,0.5,0.75,1"]
    assert main(argv) == 0
    assert len(calls) == 2
    calls.clear()
    assert main(["verify", "--config", cfg_path]) == 0
    assert len(calls) == 2


def test_kick_analysis_transforms_the_slit_pair_once(cfg_path, tmp_path, monkeypatch):
    # Kicks are read off the pair's comb matrix, which costs one transform
    # per slit; no detector setting adds a full-grid FFT of its own.  run
    # adds one per slit for momentum.csv.
    calls = []
    real = experiment.to_momentum

    def counting(psi, hbar):
        calls.append(psi.grid.n)
        return real(psi, hbar=hbar)

    monkeypatch.setattr(experiment, "to_momentum", counting)
    for argv, count in (
        (["scan", "--out", str(tmp_path), "--c-values", "0,0.25,0.5,0.75,1"], 2),
        (["verify"], 2),
        (["run", "--out", str(tmp_path)], 4),
    ):
        calls.clear()
        assert main([*argv, "--config", cfg_path]) == 0
        assert len(calls) == count, argv[0]


def test_scan_computes_the_kick_identity_residual_once(cfg_path, tmp_path, monkeypatch):
    calls = []
    real = experiment.SlitPair.__dict__["kick_identity_residual"].func

    def counting(pair):
        calls.append(pair)
        return real(pair)

    prop = functools.cached_property(counting)
    prop.__set_name__(experiment.SlitPair, "kick_identity_residual")
    monkeypatch.setattr(experiment.SlitPair, "kick_identity_residual", prop)
    argv = ["scan", "--config", cfg_path, "--out", str(tmp_path), "--c-values", "0,0.25,0.5,0.75,1"]
    assert main(argv) == 0
    assert len(calls) == 1


def test_verify_computes_each_visibility_once(cfg_path, monkeypatch):
    # visibility_law, kick_fraction_vs_visibility and phase_visibility share
    # V(c, theta) within one run: five c at theta = 0 plus three more thetas.
    calls = []
    real = verify_module.fringe_analysis

    def counting(pattern):
        calls.append(pattern)
        return real(pattern)

    monkeypatch.setattr(verify_module, "fringe_analysis", counting)
    assert main(["verify", "--config", cfg_path]) == 0
    assert len(calls) == 8


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
