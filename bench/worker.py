"""One workload run in its own process: set-up, timed phase, optional traced pass.

Started by ``run.py``; not meant to be run by hand.  The worker

1. imports ``pbstages`` from the checkout, builds the workload's pool,
   draws the run's units with the seed, checks their input fingerprints
   against ``expected/<workload>.pool.json`` and writes any scenario files,
   then prints ``READY`` (the parent times set-up up to that line); speed
   samples taken before and after this step scale the set-up time
   (``speed.py``);
2. unless ``--setup-only``: loads the answer key
   (``expected/<workload>.json``) and runs the tasks as a closed loop (one
   thread, the next task only after the previous one returned), in whole
   passes over the run's task list, stopping at the pass boundary nearest to
   ``--seconds`` once at least two passes and 100 tasks ran, checks
   every answer, and scales every task's time by the speed samples taken
   between tasks;
3. with ``--trace 1``: installs the tracer, repeats the set-up under it,
   runs exactly one traced pass, so its counts repeat exactly, and writes
   its spans next to the run's result file;
4. prints one JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import bootstrap
import speed

MIN_ATTEMPTS = 100
# Host speed drifts by tens of percent over seconds; every task is timed at
# least twice, on passes about ten seconds apart.
MIN_PASSES = 2
# Speed samples taken before and again after set-up, to scale the set-up
# time; the ones before (about 1 ms) count in it.
SETUP_GAUGE_SAMPLES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def setup(wl, workload, seed: int, pool: dict):
    keys = wl.select(workload.name, pool, seed)
    wanted = {wl.unit_of(key) for key in keys}
    units = workload.pool(wanted)
    stale = wanted - {u.uid for u in units if pool["fingerprints"].get(u.uid) == u.fingerprint}
    if workload.prepare is not None:
        workload.prepare(units)
    return units, wl.run_order(workload, units, keys, seed), stale


def attempt(task, answers: dict, stale: set) -> tuple[float, str | None]:
    """Run one task; return its latency and a failure description or None."""
    started = time.perf_counter()
    try:
        result = task.call()
    except Exception as exc:  # a task that raises counts as failed
        return time.perf_counter() - started, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if task.unit in stale:
        return elapsed, "inputs differ from the pool the answers were stored for"
    want, source = answers[task.key]
    got = task.answer(result)
    if got != want:
        return elapsed, f"answer {got} != expected {want} ({source})"
    return elapsed, None


def timed_phase(tasks, answers: dict, stale: set, seconds: float) -> dict:
    """Closed loop over whole passes of the task list.

    Every run measures whole passes, so every run of a seed measures the
    same mix of tasks.  After each pass the loop stops if that pass
    boundary is the one nearest to ``seconds``, at least ``MIN_PASSES``
    passes ran and at least ``MIN_ATTEMPTS`` tasks ran.
    """
    latencies: list[float] = []
    failures: dict[str, str] = {}
    failed = 0
    passes = 0
    gauge = speed.Gauge()
    started = time.perf_counter()
    while True:
        for task in tasks:
            elapsed, failure = attempt(task, answers, stale)
            gauge.after_task()
            latencies.append(1000.0 * elapsed)
            if failure is not None:
                failed += 1
                failures.setdefault(task.key, failure)
        passes += 1
        wall = time.perf_counter() - started
        if (
            wall + wall / passes / 2 >= seconds
            and passes >= MIN_PASSES
            and len(latencies) >= MIN_ATTEMPTS
        ):
            break
    return {
        "wall_s": wall,
        "passes": passes,
        "attempted": len(latencies),
        "failed": failed,
        "latencies_ms": latencies,
        "scaled_ms": gauge.scale(latencies),
        "speed_samples": len(gauge.samples),
        "failures": failures,
    }


def main(argv=None) -> int:
    gauged = [speed.sample() for _ in range(SETUP_GAUGE_SAMPLES)]
    args = parse_args(argv)
    try:
        bootstrap.load()
    except bootstrap.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    expected = bootstrap.ROOT / "bench" / "expected"
    pool = json.loads((expected / f"{workload.name}.pool.json").read_text())
    units, tasks, stale = setup(wl, workload, args.seed, pool)
    print("READY", flush=True)
    gauged += [speed.sample() for _ in range(SETUP_GAUGE_SAMPLES)]
    setup_factor = speed.factor(gauged)
    if args.setup_only:
        print(json.dumps({"setup_factor": setup_factor}), flush=True)
        return 0
    answers = json.loads((expected / f"{workload.name}.json").read_text())["answers"]

    out = {"units": len(units), "tasks": len(tasks), "setup_factor": setup_factor}
    timed = timed_phase(tasks, answers, stale, args.seconds)
    failures = timed.pop("failures")
    attempted, failed = timed["attempted"], timed["failed"]
    out["timed"] = timed

    if args.trace:
        from run import result_stem
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup", -1):
                units, tasks, stale = setup(wl, workload, args.seed, pool)
            traced_failed = 0
            traced_ms = []
            gauge = speed.Gauge()
            for index, task in enumerate(tasks):
                with tracer.span("bench.task", index):
                    elapsed, failure = attempt(task, answers, stale)
                gauge.after_task()
                traced_ms.append(1000.0 * elapsed)
                if failure is not None:
                    traced_failed += 1
                    failures.setdefault(task.key, failure)
        finally:
            tracer.uninstall()
        attempted += len(tasks)
        failed += traced_failed
        tracer.write_spans(f"{result_stem(workload.name, args.seed, 1)}.spans")
        out["traced"] = {
            "scaled_ms": gauge.scale(traced_ms),
            "attempted": len(tasks),
            "failed": traced_failed,
            "metrics": layer_metrics(tracer),
        }

    out["attempted"] = attempted
    out["failed"] = failed
    out["failures"] = failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


def layer_metrics(tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    P = "pbstages."
    layers = tracer.layer_self_ms()
    lookups = tracer.cache_lookups
    metrics = {
        "allocation.calls": tracer.count(
            P + "allocation.greedy_approval", P + "allocation.approval_maximising"
        ),
        "verification.cache.lookups": lookups,
        "verification.cache.hit_ratio": (lookups - tracer.cache_misses) / lookups if lookups else 0.0,
        "verification.repaired_value.calls": tracer.count(P + "verification.repaired_value"),
        "preferences.allocation_value.calls": tracer.count(P + "preferences.allocation_value"),
        "preferences.ideal_set.calls": tracer.count(P + "preferences.ideal_set"),
        "core.instance_cost.calls": tracer.count(P + "core.Instance.cost"),
        "core.instance_total_cost.calls": tracer.count(P + "core.Instance.total_cost"),
        "core.greedy_select.calls": tracer.count(P + "core.greedy_select"),
        "core.tiebreak_family.calls": tracer.count(P + "core.tiebreak_family"),
        "strategy.check_manipulation.calls": tracer.count(P + "strategy.check_manipulation"),
        "strategy.best_response.calls": tracer.count(P + "strategy.best_response"),
        "shortlisting.equal_representation.calls": tracer.count(
            P + "shortlisting.equal_representation"
        ),
        "shortlisting.equal_representation.self_ms": tracer.self_ms(
            P + "shortlisting.equal_representation"
        ),
        "shortlisting.k_median.calls": tracer.count(P + "shortlisting.k_median"),
        "shortlisting.k_median.self_ms": tracer.self_ms(P + "shortlisting.k_median"),
        "shortlisting.voronoi_partitions.calls": tracer.count(
            P + "shortlisting.voronoi_partitions"
        ),
        "shortlisting.voronoi_partitions.self_ms": tracer.self_ms(
            P + "shortlisting.voronoi_partitions"
        ),
        "shortlisting.geometric_median.calls": tracer.count(P + "shortlisting.geometric_median"),
        "scenario.parse.calls": tracer.count(P + "scenario.parse_scenario"),
        "cli.main.calls": tracer.count(P + "cli.main"),
        "fixtures.run_check.calls": tracer.count(P + "fixtures.run_check"),
        "tracing.spans": tracer.spans,
    }
    for layer in (
        "allocation", "verification", "preferences", "core", "strategy",
        "shortlisting", "scenario", "cli", "fixtures", "suites", "bench",
    ):
        metrics[f"{layer}.self_ms"] = layers.get(layer, 0.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
