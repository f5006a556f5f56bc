"""Self-check: traced counters repeat exactly.

    python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every ``*.calls`` metric and ``verification.cache.hit_ratio``
between the two runs.  Exits 0 when all of them are identical on every
workload, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, WORKLOADS


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description="check that traced counters repeat exactly")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        names = sorted(
            n for n in first if n.endswith(".calls") or n == "verification.cache.hit_ratio"
        )
        differ = [n for n in names if first[n]["value"] != second[n]["value"]]
        ok = ok and not differ
        print(f"{workload}: {len(names)} counters, {len(differ)} differ")
        for name in differ:
            print(f"  {name}: {first[name]['value']} != {second[name]['value']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
