"""Workload definitions and output checks for the kickscope benchmark.

Each workload turns a seed into one ``kickscope`` command line plus the
config file it reads, and knows how to check that command's outputs
against the paper's laws.  Everything here is standard library only, so
the benchmark process never imports numpy or kickscope itself.

Grid sizes are below the 2^21-point desk default so that every workload
fits a run of a few seconds per command (see README.md for the budget);
the "desk" workloads keep the desk physics (d = 1, sigma = 0.01,
dx = sigma/4) and scale the flight time with the box so the wraparound
margin stays at the default's 10.5 spreading widths.
"""

from __future__ import annotations

import ast
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

DESK_N = 2**18
# run-desk's writer-bound commands vary more from one to the next than the
# others; half the grid fits twice the samples into a run.
RUN_DESK_N = 2**17
DESK_DX = 0.0025
# The shipped default flies t = 5 on 2^21 points; t grows with the box.
DESK_T_PER_POINT = 5.0 / 2**21

SAMPLE_EVENTS = 10**6
SCAN_INTERIOR = 3

#: Seed whose outputs are compared with reference.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One generated command: config keys, extra CLI flags, expected physics."""

    name: str
    command: str
    config: dict[str, object]
    flags: tuple[str, ...] = ()
    c_values: tuple[float, ...] = ()
    writes_files: bool = True

    def value(self, key: str) -> float:
        return float(self.config.get(key, _DEFAULTS[key]))

    def config_text(self) -> str:
        return "".join(f"{k} = {_fmt(v)}\n" for k, v in self.config.items())

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        args = [self.command, "--config", str(config_path), *self.flags]
        if self.writes_files:
            args += ["--out", str(out_dir)]
        return args


# The subset of kickscope's config defaults the checks read when a
# workload does not set the key.
_DEFAULTS = {
    "geometry.d": 1.0,
    "units.hbar": 1.0,
    "detector.c": 0.5,
}


def _fmt(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _desk_grid(n: int) -> dict[str, object]:
    half = n * DESK_DX / 2.0
    return {
        "geometry.d": 1.0,
        "geometry.sigma": 0.01,
        "units.t": DESK_T_PER_POINT * n,
        "grid.n": n,
        "grid.x_min": 0.5 - half,
        "grid.x_max": 0.5 + half,
    }


# The demos' reduced grid.
_REDUCED_GRID = {
    "geometry.d": 1.0,
    "geometry.sigma": 0.02,
    "units.t": 1.0,
    "grid.n": 2**17,
    "grid.x_min": -327.18,
    "grid.x_max": 328.18,
}


def _rng(name: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512 by random.seed, so it does not
    # depend on PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}")


def _run_desk(seed: int) -> Workload:
    rng = _rng("run-desk", seed)
    cfg = _desk_grid(RUN_DESK_N)
    cfg["detector.c"] = rng.uniform(0.05, 0.95)
    cfg["detector.theta"] = rng.uniform(-math.pi, math.pi)
    return Workload("run-desk", "run", cfg)


def _scan_desk(seed: int) -> Workload:
    rng = _rng("scan-desk", seed)
    interior = sorted(rng.uniform(0.05, 0.95) for _ in range(SCAN_INTERIOR))
    c_values = (0.0, *interior, 1.0)
    flag = ",".join(repr(c) for c in c_values)
    return Workload(
        "scan-desk", "scan", _desk_grid(DESK_N), ("--c-values", flag), c_values
    )


def _verify_desk(seed: int) -> Workload:
    cfg = _desk_grid(DESK_N)
    cfg["sampling.seed"] = _rng("verify-desk", seed).randrange(10**6)
    return Workload("verify-desk", "verify", cfg, writes_files=False)


def _sample_reduced(seed: int) -> Workload:
    cfg = dict(_REDUCED_GRID)
    cfg["sampling.count"] = SAMPLE_EVENTS
    cfg["sampling.seed"] = _rng("sample-reduced", seed).randrange(10**6)
    return Workload("sample-reduced", "sample", cfg)


WORKLOADS = {
    "run-desk": _run_desk,
    "scan-desk": _scan_desk,
    "verify-desk": _verify_desk,
    "sample-reduced": _sample_reduced,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def load_tolerances(verify_py: Path) -> dict[str, float]:
    """Read ``TOLERANCES`` from kickscope/verify.py without importing it."""
    tree = ast.parse(verify_py.read_text(encoding="utf-8"))
    for node in tree.body:
        target = getattr(node, "target", None) or (getattr(node, "targets", None) or [None])[0]
        if isinstance(target, ast.Name) and target.id == "TOLERANCES":
            return {k: float(v) for k, v in ast.literal_eval(node.value).items()}
    raise ValueError(f"no TOLERANCES table in {verify_py}")


# ---------------------------------------------------------------- checks


@dataclass
class Outcome:
    """What one command run produced, as the checks and the reference see it."""

    failures: list[str] = field(default_factory=list)
    values: dict[str, object] = field(default_factory=dict)
    verify_counts: dict[str, int] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _count_bytes(path: Path, needle: bytes) -> int:
    total = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            total += chunk.count(needle)
    return total


def _check_table(out: Outcome, path: Path, rows: int, columns: int) -> None:
    if not path.is_file():
        out.failures.append(f"{path.name} missing")
        return
    lines = _count_bytes(path, b"\n")
    commas = _count_bytes(path, b",")
    out.expect(lines == rows + 1, f"{path.name}: {lines - 1} rows, expected {rows}")
    out.expect(
        commas == (columns - 1) * (rows + 1),
        f"{path.name}: {commas} commas, expected {columns} columns on every line",
    )


def _key_values(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _momentum_bin(wl: Workload) -> float:
    n = int(wl.config["grid.n"])
    dx = (float(wl.config["grid.x_max"]) - float(wl.config["grid.x_min"])) / n
    return 2.0 * math.pi * wl.value("units.hbar") / (n * dx)


def _check_laws(
    out: Outcome, wl: Workload, tol: dict[str, float], label: str,
    c: float, v: float, f_k: float, p0: float,
) -> None:
    """V = c, F_k = (1 - c)/2 and p0 = pi*hbar/d within one momentum bin."""
    out.expect(
        abs(v - c) <= tol["experiment.visibility_law"], f"{label}: V = {v!r} vs c = {c!r}"
    )
    out.expect(
        abs(f_k - (1.0 - c) / 2.0) <= tol["experiment.kick_fraction"],
        f"{label}: F_k = {f_k!r} vs (1 - c)/2 = {(1.0 - c) / 2.0!r}",
    )
    p0_theory = math.pi * wl.value("units.hbar") / wl.value("geometry.d")
    if c == 1.0:  # the kicked branch is empty: no estimate is the right answer
        out.expect(math.isnan(p0), f"{label}: p0 measured {p0!r} at c = 1")
        return
    off = abs(p0 - p0_theory) / _momentum_bin(wl)
    out.expect(
        off <= tol["experiment.kick_magnitude"], f"{label}: p0 off by {off:.3g} bins"
    )


def _check_run(out: Outcome, wl: Workload, out_dir: Path, tol: dict[str, float]) -> None:
    n = int(wl.config["grid.n"])
    _check_table(out, out_dir / "pattern.csv", n, 5)
    _check_table(out, out_dir / "momentum.csv", n, 4)
    summary = out_dir / "summary.txt"
    if not summary.is_file():
        out.failures.append("summary.txt missing")
        return
    values = {k: float(v) for k, v in _key_values(summary).items()}
    out.values.update(values)
    _check_laws(
        out, wl, tol, "summary", wl.value("detector.c"),
        values["V_measured"], values["F_k_branch"], values["p0_measured"],
    )


def _check_scan(out: Outcome, wl: Workload, out_dir: Path, tol: dict[str, float]) -> None:
    path = out_dir / "scan.csv"
    _check_table(out, path, len(wl.c_values), 5)
    if not path.is_file():
        return
    rows = [
        [float(x) for x in line.split(",")]
        for line in path.read_text(encoding="utf-8").splitlines()[1:]
    ]
    for i, (want_c, row) in enumerate(zip(wl.c_values, rows)):
        c, v, f_k, p0, _residual = row
        out.values[f"row{i}"] = row
        out.expect(c == want_c, f"scan row {i}: c = {c!r}, asked for {want_c!r}")
        _check_laws(out, wl, tol, f"scan row {i}", c, v, f_k, p0)


_OUTCOME_LINE = re.compile(r"^(\w+): n=(\d+) freq=(\S+) prob=(\S+)$")


def _check_sample(out: Outcome, wl: Workload, out_dir: Path, tol: dict[str, float]) -> None:
    count = int(wl.config["sampling.count"])
    _check_table(out, out_dir / "events.csv", count, 2)
    path = out_dir / "sample_summary.txt"
    if not path.is_file():
        out.failures.append("sample_summary.txt missing")
        return
    c = wl.value("detector.c")
    # Symmetric basis: q_plus, q_minus, then the failure branch q3.
    expected = {"q_plus": (1.0 - c) / 2.0, "q_minus": (1.0 - c) / 2.0, "q3": c}
    seen = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        m = _OUTCOME_LINE.match(line)
        if m:
            seen[m[1]] = (int(m[2]), float(m[4]))
            out.values[f"{m[1]}.n"] = int(m[2])
            out.values[f"{m[1]}.prob"] = float(m[4])
        else:
            key, _, value = line.partition("=")
            out.values[key] = float(value)
    out.expect(out.values.get("count") == count, f"count = {out.values.get('count')}")
    out.expect(
        out.values.get("seed") == wl.config["sampling.seed"], f"seed = {out.values.get('seed')}"
    )
    out.expect(set(seen) == set(expected), f"outcomes {sorted(seen)}")
    out.expect(
        sum(n for n, _ in seen.values()) == count, "outcome counts do not sum to count"
    )
    for name, (n, prob) in seen.items():
        want = expected.get(name, math.nan)
        out.expect(
            abs(prob - want) <= tol["experiment.branch_probabilities"],
            f"{name}: prob = {prob!r} vs {want!r}",
        )
        if prob < 1e-12:
            out.expect(n == 0, f"{name}: {n} events in an empty branch")
            continue
        sigma = math.sqrt(max(prob * (1.0 - prob), 0.0) / count)
        z = abs(n / count - prob) / sigma if sigma else 0.0
        out.expect(
            z <= tol["experiment.sampler_outcomes"],
            f"{name}: {n} events is {z:.2f} sigma from prob {prob:.6g}",
        )


_VERIFY_LINE = re.compile(r"^\[\s*(PASS|FAIL|SKIP)\s*\]\s+(\S+)")


def _parse_verify(stdout: str) -> tuple[dict[str, str], dict[str, int]]:
    """Per-check statuses and PASS/FAIL/SKIP totals from verify's table."""
    statuses = {}
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            statuses[m[2]] = m[1]
    counts = {s: sum(v == s for v in statuses.values()) for s in ("PASS", "FAIL", "SKIP")}
    return statuses, counts


def _check_verify(out: Outcome, stdout: str, tol: dict[str, float]) -> None:
    statuses, counts = _parse_verify(stdout)
    out.values.update(statuses)
    out.verify_counts = counts
    out.expect(
        set(statuses) == set(tol),
        f"verify table has {len(statuses)} checks, expected {len(tol)}",
    )
    failed = sorted(k for k, v in statuses.items() if v == "FAIL")
    out.expect(not failed, f"verify failed: {', '.join(failed)}")


def check(
    wl: Workload, returncode: int, out_dir: Path, stdout: str, tol: dict[str, float]
) -> Outcome:
    """Check one command run; an empty ``failures`` list means it passed."""
    out = Outcome()
    out.expect(returncode == 0, f"exit code {returncode}")
    try:
        if wl.command == "run":
            _check_run(out, wl, out_dir, tol)
        elif wl.command == "scan":
            _check_scan(out, wl, out_dir, tol)
        elif wl.command == "sample":
            _check_sample(out, wl, out_dir, tol)
        else:
            _check_verify(out, stdout, tol)
    except (KeyError, ValueError, OSError) as exc:
        out.failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return out


def compare_reference(values: dict[str, object], reference: dict[str, object]) -> list[str]:
    """Differences beyond 1e-12 (relative above 1) from the recorded values."""
    problems = []
    for key, want in reference.items():
        got = values.get(key)
        if isinstance(want, str) or isinstance(got, str) or got is None:
            same = got == want
        else:
            g, w = _flat(got), _flat(want)
            same = len(g) == len(w) and all(map(_close, g, w))
        if not same:
            problems.append(f"{key}: {got!r}, reference {want!r}")
    return problems


def _flat(value: object) -> list[float]:
    return [float(v) for v in value] if isinstance(value, list) else [float(value)]


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))
