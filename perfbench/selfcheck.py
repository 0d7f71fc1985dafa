"""Check that the traced run's counts repeat exactly.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

Runs ``perfbench/run.py --trace 1`` twice per workload with the same seed
and compares every count metric (exact host-side counts and modelled
statistics; times are left out).  Prints each count that differs and exits
1 if any does, or if a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: length of each traced run; counts are per round, so a few rounds do.
SECONDS = 4
#: units of the per-layer metrics that are counts, not times.
COUNT_UNITS = {"count", "calls/cycle", "lanes"}


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in COUNT_UNITS
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    differing = 0
    for workload in args.workload or workloads:
        try:
            first = traced_counts(workload, args.seed)
            second = traced_counts(workload, args.seed)
        except RuntimeError as exc:
            print(exc)
            return 1
        for name in sorted(first.keys() | second.keys()):
            if first.get(name) != second.get(name):
                differing += 1
                print(f"{workload}: {name} differs: {first.get(name)} then {second.get(name)}")
        print(f"{workload}: {len(first)} counts compared")
    print("counts repeat exactly" if not differing else f"{differing} counts differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
