"""Record reference.json: every workload's reported numbers at the default seed.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs are the
reference.  The benchmark then fails any default-seed run whose
summary.txt, scan.csv, sample_summary.txt or verify statuses move by more
than 1e-12 from these values (relative, for values above 1).
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    tolerances = workloads.load_tolerances(run.SRC / "kickscope" / "verify.py")
    reference = {}
    run.TMP.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            seed = workloads.DEFAULT_SEED
            _, outcome, _ = run.Bench(workloads.make(name, seed), seed, tolerances).execute(name)
            if outcome.failures:
                print(f"{name}: not recorded, the run failed its checks", file=sys.stderr)
                return 1
            reference[name] = outcome.values
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
