"""kickscope benchmark: one workload, run as users run the CLI.

    python3 perfbench/run.py --workload scan-desk --seed 3 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it runs one child
interpreter at a time: an untimed warm-up of the workload's ``kickscope``
command, a few timed bare set-ups (import ``kickscope.cli`` and load the
workload config), then the command again and again until ``--seconds``
have passed since the start.  Every
command run is checked against the paper's laws (see workloads.py) and,
for the default seed, against reference.json.  It prints one line per
run, one summary line per end-to-end metric, and last a JSON object with
the medians.

With ``--trace 1`` it runs the command a few times untraced, then twice
in-process under traced.py, and reports the per-layer metrics named in
BENCHMARK.json from the spans.  The two traced runs must agree exactly on
every count.

Standard library only: this process never imports numpy or kickscope.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from traced import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = BENCH_DIR / ".tmp"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPS = 3
MIN_RUNS = 3
UNTRACED_REPS = 3
TRACED_REPS = 2
CHILD_TIMEOUT_S = 170.0

# `python3 -c BOOT SRC_DIR ARGS...` is the `kickscope` console script run
# from a source tree; the inherited environment is left untouched.
BOOT = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from kickscope.cli import main; sys.exit(main())"
)
SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); import kickscope.cli; "
    "from kickscope.config import load_config; load_config(sys.argv[2])"
)
VERSIONS = (
    "import json, platform, numpy, scipy; "
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'blas': blas.get('openblas configuration') or blas}))"
)
_RECORDED_ENV = re.compile(r"NUM_THREADS|^(OMP|MKL|OPENBLAS|PYTHON|KICKSCOPE)")


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; time it from spawn to exit."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Child(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout,
        stderr,
    )


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


class Bench:
    """Runs one workload's children and counts the runs that fail their checks."""

    def __init__(
        self,
        wl: workloads.Workload,
        seed: int,
        tolerances: dict[str, float],
        reference: dict[str, object] | None = None,
    ):
        self.wl = wl
        self.seed = seed
        self.tol = tolerances
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def _workdir(self) -> Path:
        work = Path(tempfile.mkdtemp(prefix=f"{self.wl.name}-", dir=TMP))
        (work / "workload.cfg").write_text(self.wl.config_text(), encoding="utf-8")
        return work

    def setup(self) -> float:
        work = self._workdir()
        try:
            child = spawn([sys.executable, "-c", SETUP, str(SRC), "workload.cfg"], work)
        finally:
            shutil.rmtree(work)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")
        return child.wall_s

    def _judge(self, label: str, child_code: int, work: Path, stdout: str, stderr: str):
        outcome = workloads.check(self.wl, child_code, work / "out", stdout, self.tol)
        if self.reference is not None:
            outcome.failures += workloads.compare_reference(outcome.values, self.reference)
        self.attempted += 1
        if outcome.failures:
            self.failed += 1
            print(f"{label}: FAILED: " + "; ".join(outcome.failures), flush=True)
            if stderr.strip():
                print("  stderr: " + stderr.strip().splitlines()[-1], flush=True)
        return outcome

    def execute(self, label: str) -> tuple[Child, workloads.Outcome, int]:
        """One untraced run of the workload's command, checked."""
        work = self._workdir()
        try:
            argv = self.wl.argv(Path("workload.cfg"), Path("out"))
            child = spawn([sys.executable, "-c", BOOT, str(SRC), *argv], work)
            # The command's own output: its files plus what it printed.
            output = _dir_bytes(work / "out") + len(child.stdout.encode())
            outcome = self._judge(label, child.returncode, work, child.stdout, child.stderr)
        finally:
            shutil.rmtree(work)
        return child, outcome, output

    def command(self, label: str) -> dict[str, float]:
        """One timed run: the end-to-end numbers of a checked command."""
        child, outcome, output = self.execute(label)
        sample = {
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb,
            "output_mb": output / 1e6,
        }
        status = "ok" if not outcome.failures else "FAILED"
        print(
            f"{label}: wall {child.wall_s:.3f} s, cpu {child.cpu_s:.3f} s, "
            f"peak rss {child.peak_rss_mb:.1f} MB, output {output / 1e6:.4f} MB, {status}",
            flush=True,
        )
        return sample

    def traced(self, label: str, run_id: str) -> dict[str, float]:
        """One in-process run under traced.py; returns its per-layer metrics."""
        work = self._workdir()
        try:
            argv = self.wl.argv(Path("workload.cfg"), Path("out"))
            tracer = [sys.executable, str(BENCH_DIR / "traced.py"), str(SRC), "spans.json", run_id]
            child = spawn([*tracer, "--", *argv], work)
            out_txt = work / "stdout.txt"
            stdout = out_txt.read_text(encoding="utf-8") if out_txt.is_file() else ""
            outcome = self._judge(label, child.returncode, work, stdout, child.stderr)
            bytes_written = _dir_bytes(work / "out")
            doc = None
            if (work / "spans.json").is_file():
                doc = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(work)
        if doc is None:
            raise RuntimeError(f"traced run wrote no spans:\n{child.stderr}")
        metrics = span_metrics(doc, child.wall_s)
        metrics["cli.bytes_written"] = bytes_written
        counts = outcome.verify_counts
        for status in ("PASS", "FAIL", "SKIP"):
            metrics[f"verify.checks_{status.lower()}"] = counts.get(status, 0)
        outside = metrics["trace.outside_span_s"]
        print(
            f"{label}: traced wall {child.wall_s:.3f} s = {len(doc['spans'])} spans "
            f"{child.wall_s - outside:.3f} s (import {metrics['trace.import_s']:.3f} s) "
            f"+ outside any span {outside:.3f} s",
            flush=True,
        )
        return metrics


def span_metrics(doc: dict, wall_s: float) -> dict[str, float]:
    """Per-function and per-layer numbers from one traced run's spans."""
    spans = doc["spans"]
    # One thread: a span's children run one after another inside it, so
    # their durations add up to the part of it they cover.
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    m: dict[str, float] = defaultdict(float)
    for fn in doc["functions"]:
        m[f"{fn}.calls"] = 0
        m[f"{fn}.self_s"] = 0.0
    for layer in LAYERS:
        m[f"{layer}.errors"] = 0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.maxrss_growth_mb"] = 0.0
    for key in ("wavepacket.fft_count", "wavepacket.fft_points", "wavepacket.fft_flops_computed"):
        m[key] = 0
    root_s = 0.0
    for i, s in enumerate(spans):
        name = s["name"]
        duration = s["end"] - s["start"]
        if s["parent"] is None:
            root_s += duration
        layer = name.split(".")[0]
        if layer not in LAYERS:
            continue
        own = duration - covered[i]
        grown_mb = s["rss_kb"] / 1024.0
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += own
        m[f"{layer}.self_s"] += own
        m[f"{layer}.maxrss_growth_mb"] += grown_mb
        if layer == "experiment":
            m[f"{name}.maxrss_growth_mb"] += grown_mb
        parent = spans[s["parent"]]["name"].split(".")[0] if s["parent"] is not None else None
        if s["error"] and parent != layer:
            m[f"{layer}.errors"] += 1
        if s["n"]:
            m["wavepacket.fft_count"] += 1
            m["wavepacket.fft_points"] += s["n"]
            m["wavepacket.fft_flops_computed"] += 5 * s["n"] * int(math.log2(s["n"]))
    assembles = m.get("experiment.assemble.calls", 0)
    propagations = m.get("wavepacket.propagate_fft.calls", 0)
    m["experiment.propagate_fft_per_assemble"] = propagations / assembles if assembles else 0.0
    m["trace.import_s"] = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "trace.import"
    )
    m["trace.wall_s"] = wall_s
    m["trace.outside_span_s"] = wall_s - root_s
    return dict(m)


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between two traced runs."""
    return (
        name.endswith((".calls", ".errors"))
        or name.startswith(("wavepacket.fft_", "verify.checks_"))
        or name in ("experiment.propagate_fft_per_assemble", "cli.bytes_written")
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_record() -> dict[str, object]:
    record: dict[str, object] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "free_disk_gb": round(shutil.disk_usage(ROOT).free / 1e9, 1),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            record["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown",
            )
    except OSError:
        record["cpu"] = "unknown"
    info = subprocess.run(
        [sys.executable, "-c", VERSIONS], capture_output=True, text=True, timeout=120
    )
    if info.returncode == 0:
        record.update(json.loads(info.stdout))
    else:
        record["versions_error"] = info.stderr.strip().splitlines()[-1:]
    # Values only for the variables that steer threads or the interpreter;
    # the rest of the environment is recorded as a count and a digest.
    env = sorted(os.environ.items())
    record["env"] = {k: v for k, v in env if _RECORDED_ENV.search(k)}
    record["env_count"] = len(env)
    record["env_sha256"] = hashlib.sha256(repr(env).encode()).hexdigest()[:16]
    return record


def run_e2e(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Every end-to-end metric's samples from one run of ``seconds``."""
    start = time.perf_counter()
    # The first command of a run measured 15-25% slower than the ones after
    # it; it is checked but kept out of the samples.
    bench.command("warm-up")
    setups = [bench.setup() for _ in range(SETUP_REPS)]
    print("setup: " + ", ".join(f"{s:.3f} s" for s in setups), flush=True)
    samples = []
    while len(samples) < MIN_RUNS or time.perf_counter() - start < seconds:
        samples.append(bench.command(f"run {len(samples) + 1}"))
    series = {name: [s[name] for s in samples] for name in samples[0]}
    series["setup_s"] = setups
    return series


def run_traced(bench: Bench) -> tuple[dict[str, float], list[str]]:
    walls = [bench.command(f"untraced {i + 1}")["wall_s"] for i in range(UNTRACED_REPS)]
    runs = [
        bench.traced(f"traced {i + 1}", f"{bench.wl.name}-{bench.seed}-{i + 1}")
        for i in range(TRACED_REPS)
    ]
    mismatches = [
        f"{k}: {runs[0].get(k)} vs {r.get(k)}"
        for r in runs[1:]
        for k in sorted(set(runs[0]) | set(r))
        if is_count(k) and runs[0].get(k) != r.get(k)
    ]
    metrics = {
        k: runs[0][k] if is_count(k) else statistics.fmean(r.get(k, 0.0) for r in runs)
        for k in runs[0]
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    return metrics, mismatches


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "kickscope" / "cli.py").is_file():
        print(f"error: no kickscope source tree at {SRC}", file=sys.stderr)
        return 2
    tolerances = workloads.load_tolerances(SRC / "kickscope" / "verify.py")
    wl = workloads.make(args.workload, args.seed)
    print("machine: " + json.dumps(machine_record()), flush=True)
    argv = " ".join(wl.argv(Path("workload.cfg"), Path("out")))
    print(f"workload {wl.name}, seed {args.seed}: kickscope {argv}")
    print("config: " + wl.config_text().strip().replace("\n", "; "), flush=True)

    TMP.mkdir(exist_ok=True)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[wl.name]
    bench = Bench(wl, args.seed, tolerances, reference)
    try:
        if args.trace:
            measured, mismatches = run_traced(bench)
            wanted = spec["per_layer"]
        else:
            series, mismatches = run_e2e(bench, args.seconds), []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    if not args.trace:
        units = {m["name"]: m["unit"] for m in wanted}
        measured = {}
        for name, values in series.items():
            q1, measured[name], q3 = quartiles(values)
            print(
                f"{name}: median {measured[name]:.6g} {units.get(name, '')} "
                f"(q1 {q1:.6g}, q3 {q3:.6g}, n = {len(values)})"
            )

    for line in mismatches:
        print(f"count changed between traced runs: {line}")
    listed = {m["name"] for m in wanted}
    for name in sorted(set(measured) - listed):
        print(f"unlisted {name}: {measured[name]:.6g}")
    print(
        f"fail_ratio: {bench.failed}/{bench.attempted} = "
        f"{bench.failed / bench.attempted:.3g} (runs failed / runs attempted)"
    )
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']}: {value:.6g} {m['unit']}")
    result = {
        "correct": bench.failed == 0 and not mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
