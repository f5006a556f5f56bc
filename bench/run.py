"""pbstages benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ssp-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the benchmark measures the package
source in ``<checkout>/src``.  Every run happens in child processes
(``worker.py``), one at a time:

- ``--trace 0``: set-up is timed ``SETUP_SAMPLES`` times (set-up-only
  children before and after the measured child, and the measured child
  itself), and the measured child runs the timed phase.  Prints the
  end-to-end metrics.
- ``--trace 1``: one child runs the timed phase untraced, then one traced
  pass over the same tasks.  Prints the per-layer metrics and the tracing
  overhead.

Every time is scaled to a fixed reference speed of the machine by the
gauge in ``speed.py``; the raw wall-clock figures go to the result file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the same metrics for a reader.  A result file with the run's
provenance is written to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("ssp-sweep", "fssp-games", "shortlist-search", "cli-pipeline")
SETUP_SAMPLES = 7
CHILD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if "tasks_per_s" in name:
        return "1/s"
    return "count"


class RunError(RuntimeError):
    pass


def result_stem(workload: str, seed: int, trace: int) -> Path:
    """``results/<workload>-seed<seed>-trace<trace>``: the run's result files."""
    return RESULTS / f"{workload}-seed{seed}-trace{trace}"


def child(args: argparse.Namespace, *extra: str) -> tuple[float, dict]:
    """Start one worker; return its set-up seconds and its final JSON."""
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = time.perf_counter()
    # A fixed hash seed gives every run the same dict and set layouts.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise RunError(f"worker failed (exit code {code})")
    return setup_s, json.loads(lines[-1])


def rate(times_ms: list[float]) -> float:
    """Tasks per second of task time."""
    return 1000.0 * len(times_ms) / sum(times_ms)


def quantile(values: list[float], share: float) -> float:
    """The ``share`` quantile, smoothed over the ranks around it.

    A weighted mean of the sorted values, with Gaussian weights centred on
    rank ``share * n`` and as wide as that rank's sampling error
    (``sqrt(share * (1 - share) * n)`` ranks): a smooth form of the
    Harrell-Davis estimator.  Task costs have gaps, and where a quantile
    falls in one, the nearest-rank value jumps across it whenever a seed's
    tasks move the cut by a rank or two; this estimate moves by a fraction
    of the gap.
    """
    ordered = sorted(values)
    n = len(ordered)
    centre = share * n
    width = math.sqrt(2.0 * share * (1.0 - share) * n)
    cdf = [0.5 * (1.0 + math.erf((rank - centre) / width)) for rank in range(n + 1)]
    weights = [high - low for low, high in zip(cdf, cdf[1:])]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def provenance(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pbstages").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pbstages benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pbstages" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = result_stem(args.workload, args.seed, args.trace)
    try:
        # Set-up-only children before and after the measured one, so the
        # set-up samples span the run.
        before = (SETUP_SAMPLES - 1) // 2
        setups = [] if args.trace else [child(args, "--setup-only") for _ in range(before)]
        setup_s, out = child(args)
        setups.append((setup_s, out))
        if not args.trace:
            setups += [child(args, "--setup-only") for _ in range(SETUP_SAMPLES - 1 - before)]
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    timed = out["timed"]
    scaled = timed["scaled_ms"]
    tasks_per_s = rate(scaled)
    if args.trace:
        traced = out["traced"]
        metrics = dict(traced["metrics"])
        traced_tps = rate(traced["scaled_ms"])
        metrics["tracing.tasks_per_s.untraced"] = tasks_per_s
        metrics["tracing.tasks_per_s.traced"] = traced_tps
        metrics["tracing.overhead.tasks_per_s"] = traced_tps - tasks_per_s
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "tasks_per_s": tasks_per_s,
            "verdict_ms.p50": quantile(scaled, 0.5),
            "verdict_ms.p90": quantile(scaled, 0.9),
            "setup_s": statistics.median(
                seconds / child_out["setup_factor"] for seconds, child_out in setups
            ),
            "peak_rss_mb": out["peak_rss_mb"],
            "correct_frac": 1.0 - timed["failed"] / timed["attempted"],
        }
        units = END_TO_END_UNITS

    latencies = timed["latencies_ms"]
    record = {
        "provenance": provenance(args),
        "tasks_per_pass": out["tasks"],
        "units": out["units"],
        "passes": timed["passes"],
        "latency_samples": len(latencies),
        "speed_samples": timed["speed_samples"],
        "wall_clock": {
            "tasks_per_s": timed["attempted"] / timed["wall_s"],
            "verdict_ms.p50": quantile(latencies, 0.5),
            "verdict_ms.p90": quantile(latencies, 0.9),
            "setup_samples_s": [seconds for seconds, _ in setups],
            "setup_speed_factors": [child_out["setup_factor"] for _, child_out in setups],
        },
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "peak_rss_mb": out["peak_rss_mb"],
    }
    (Path(str(stem) + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(
        f"# {args.workload} seed={args.seed} traced={bool(args.trace)}: "
        f"{out['tasks']} tasks per pass, {timed['passes']} whole passes, "
        f"{len(latencies)} timed samples, {out['attempted']} attempted, {out['failed']} failed"
    )
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    for key, reason in sorted(out["failures"].items()):
        print(f"FAILED {key}: {reason}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
