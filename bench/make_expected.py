"""Build the stored expected answers, one per pool task.

Run once at the commit that defines the benchmark, from any directory:

    python3 bench/make_expected.py [--workload NAME ...]

For every task of every pool unit it records, in ``expected/<name>.json``,
the expected answer and where the answer came from; and, in
``expected/<name>.pool.json``, the task's stratum and the median time of
``COST_REPEATS`` runs of the task here (``cost_ms``, used only to pair
tasks of similar cost in ``workloads.select``):

- ``oracle``: the package's independent brute-force oracles stand in for
  the fast rules (``approval_maximising_oracle`` and
  ``greedy_approval_oracle`` inside the strategyproofness checkers,
  ``equal_representation_oracle`` for equal representation);
- ``decimal-reference``: ``kmedian_ref.py``, an exact k-median search
  written for the benchmark;
- ``seed-run``: the package itself at this commit, where no affordable
  oracle exists (the command-line reports).

The package is also run on every task; where its answer differs from the
reference, the task keeps the reference answer and is listed under
``disagreements`` with the package's answer, so the benchmark counts it as
failed.  The stored fingerprint of each unit's inputs lets a run detect
that the generators no longer produce the same inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import bootstrap

bootstrap.load()

import pbstages.oracles as oracles  # noqa: E402
import pbstages.shortlisting as sl  # noqa: E402
import workloads as wl  # noqa: E402
from kmedian_ref import k_median_reference  # noqa: E402

EXPECTED_DIR = bootstrap.ROOT / "bench" / "expected"
COST_REPEATS = 3

RULE_ORACLES = {
    "greedy-approval": oracles.greedy_approval_oracle,
    "approval-maximising": oracles.approval_maximising_oracle,
}
SHORTLIST_ORACLES = {
    "nomination": sl.nomination,
    "equal-representation": lambda instance, proposals: oracles.equal_representation_oracle(
        instance, proposals, 2
    ),
}


def reference_tasks(name: str, unit: wl.Unit):
    """(source, tasks) whose answers are the expected ones for this unit."""
    x = unit.inputs
    if name == "ssp-sweep":
        return "oracle", wl.ssp_tasks(unit, rule_impls=RULE_ORACLES)
    if name == "fssp-games":
        return "oracle", wl.fssp_tasks(
            unit, shortlist_impls=SHORTLIST_ORACLES, rule_impls=RULE_ORACLES
        )
    if name == "shortlist-search":
        if x["rule"] == "equal-representation":
            def call():
                return oracles.equal_representation_oracle(
                    x["instance"], x["proposals"], x["k"], cap=wl.ER_UNION[1]
                )

            return "oracle", [wl.Task(unit.uid, unit.uid, call, wl.shortlist_answer)]
        instance = x["instance"]

        def call():
            return k_median_reference(
                {p.index: p.coords for p in instance.projects},
                {p.index: p.cost for p in instance.projects},
                instance.budget,
                sorted(sl.proposal_union(x["proposals"])),
                x["k"],
            )

        return "decimal-reference", [wl.Task(unit.uid, unit.uid, call, wl.shortlist_answer)]
    return "seed-run", None


def build(name: str) -> tuple[dict, dict]:
    """(answer key, pool description) of one workload."""
    workload = wl.WORKLOADS[name]
    pool = workload.pool()
    if workload.prepare is not None:
        workload.prepare(pool)
    answers: dict[str, list[str]] = {}
    disagreements: dict[str, str] = {}
    strata: dict[str, str] = {}
    cost_ms: dict[str, float] = {}
    for unit in pool:
        source, references = reference_tasks(name, unit)
        tasks = workload.tasks(unit)
        for position, task in enumerate(tasks):
            times = []
            for _ in range(COST_REPEATS):
                started = time.perf_counter()
                got = task.answer(task.call())
                times.append(time.perf_counter() - started)
            cost_ms[task.key] = round(1000.0 * statistics.median(times), 2)
            strata[task.key] = unit.stratum + task.key[len(unit.uid):]
            if references is None:
                answers[task.key] = [got, source]
                continue
            reference = references[position]
            assert reference.key == task.key
            want = reference.answer(reference.call())
            answers[task.key] = [want, source]
            if got != want:
                disagreements[task.key] = got
        print(f"{name}: {unit.uid} done", file=sys.stderr, flush=True)
    key = {"workload": name, "answers": answers, "disagreements": disagreements}
    description = {
        "workload": name,
        "fingerprints": {unit.uid: unit.fingerprint for unit in pool},
        "strata": strata,
        "cost_ms": cost_ms,
    }
    return key, description


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in args.workload or list(wl.WORKLOADS):
        key, description = build(name)
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(key, indent=0, sort_keys=True) + "\n")
        (EXPECTED_DIR / f"{name}.pool.json").write_text(
            json.dumps(description, indent=0, sort_keys=True) + "\n"
        )
        print(
            f"{name}: {len(key['answers'])} tasks, "
            f"{len(key['disagreements'])} disagreements -> {path}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
