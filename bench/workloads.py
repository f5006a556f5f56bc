"""The four benchmark workloads: seeded inputs, tasks and answer keys.

Every workload draws its inputs from a fixed *pool* of units (scenarios,
games, instances or scenario files) built by the generators in
``pbstages.suites`` from a fixed pool seed.  The pool is fixed so that each
of its tasks can carry a stored expected answer (``expected/<name>.json``).
The run seed picks about five eighths of the pool's tasks and their order
(see ``select``), so the same seed always gives the same inputs and
different seeds give different mixes of equal size and nearly equal cost.

A *task* is one public-API call that returns one verdict or one report.
``task.call()`` makes the call; ``task.answer(result)`` turns its result
into the string that is compared with the stored expected answer.

The package modules are always reached through their module objects (for
example ``ver.check_second_stage_sp``), never bound to local names, so
that the tracer in ``tracing.py`` sees every call it wraps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import pbstages.allocation as al
import pbstages.cli as cli
import pbstages.shortlisting as sl
import pbstages.strategy as st
import pbstages.suites as su
import pbstages.verification as ver

ALLOCATION_RULES = ("greedy-approval", "approval-maximising")
MODELS = ("cost", "overlap")
WORK_DIR = Path("bench") / "work"


def digest(data) -> str:
    """Short content hash of a JSON-able value or of raw bytes."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:20]


def verdict_answer(verdict) -> str:
    """Verdicts compare on status, exactness and witness; ``checked`` is left out."""
    return digest({"status": verdict.status, "exact": verdict.exact, "witness": verdict.witness})


def shortlist_answer(shortlist) -> str:
    return ",".join(str(pid) for pid in sorted(shortlist))


def instance_data(instance) -> dict:
    return {
        "budget": instance.budget,
        "projects": [[p.index, p.cost, p.coords] for p in instance.projects],
    }


def sets(profile) -> list[list[int]]:
    return [sorted(block) for block in profile]


@dataclass
class Unit:
    """One pool member: the inputs shared by one or more tasks."""

    uid: str
    stratum: str
    inputs: dict
    fingerprint: str


@dataclass
class Task:
    key: str
    unit: str
    call: Callable[[], object]
    answer: Callable[[object], str]


# ---------------------------------------------------------------------------
# ssp-sweep: second-stage strategyproofness on criterion-09 scenarios

SSP_POOL_SEED = 9009
SSP_POOL_SIZE = 1600


def ssp_pool(wanted: set[str] | None = None) -> list[Unit]:
    """The generator is sequential, so the whole pool is always generated."""
    units = []
    cases = su.sp_cases(SSP_POOL_SEED, SSP_POOL_SIZE, max_projects=6, max_cost=6)
    for i, (instance, rankings, ballots) in enumerate(cases):
        if wanted is not None and f"s{i:04d}" not in wanted:
            continue
        inputs = {"instance": instance, "rankings": rankings, "ballots": ballots}
        fingerprint = digest(
            [instance_data(instance), [list(r) for r in rankings], sets(ballots)]
        )
        stratum = f"m{len(instance)}-n{len(rankings)}"
        units.append(Unit(f"s{i:04d}", stratum, inputs, fingerprint))
    return units


def ssp_tasks(unit: Unit, rule_impls=None) -> list[Task]:
    """Four tasks per scenario: both allocation rules under both models.

    ``rule_impls`` maps a rule name to a replacement implementation;
    ``make_expected.py`` passes the oracles to get the expected answers.
    """
    x = unit.inputs
    tasks = []
    for rule in ALLOCATION_RULES:
        for model in MODELS:
            def call(rule=rule, model=model):
                impl = al.allocation_rule(rule) if rule_impls is None else rule_impls[rule]
                return ver.check_second_stage_sp(
                    impl, x["instance"], x["rankings"], model,
                    approximate=True, search="fixed-others", ballots=x["ballots"],
                )

            tasks.append(Task(f"{unit.uid}/{rule}/{model}", unit.uid, call, verdict_answer))
    return tasks


# ---------------------------------------------------------------------------
# fssp-games: first-stage strategyproofness on small stage games

FSSP_POOL_SEED = 7100
# Games per project count.  A 4-project game costs about ten times a
# 3-project one and its cost varies widely, so the pool holds few of them
# and every run takes all of them (see ``select``).
FSSP_GAMES = {3: 60, 4: 8}
SHORTLIST_RULES = ("nomination", "equal-representation")
FSSP_AGENTS = 3


def fssp_pool(wanted: set[str] | None = None) -> list[Unit]:
    """Games with 3 or 4 projects and three agents.

    The shortlisting rule, allocation rule and model rotate with the game's
    index among games of its size, so each size covers the combinations
    evenly.
    """
    units = []
    combos = [
        (s, a, m) for m in MODELS for a in ALLOCATION_RULES for s in SHORTLIST_RULES
    ]
    games = [(m, j) for m, count in FSSP_GAMES.items() for j in range(count)]
    for i, (m, j) in enumerate(games):
        if wanted is not None and f"g{i:03d}" not in wanted:
            continue
        rng = Random(FSSP_POOL_SEED * 1000 + i)
        instance = su.random_instance(rng, min_projects=m, max_projects=m, max_cost=4)
        rankings = tuple(su.random_ranking(rng, instance) for _ in range(FSSP_AGENTS))
        awareness = tuple(
            su.random_subset(rng, instance.ids, allow_empty=False) for _ in range(FSSP_AGENTS)
        )
        shortlist_rule, allocation_rule, model = combos[j % len(combos)]
        inputs = {
            "instance": instance,
            "rankings": rankings,
            "awareness": awareness,
            "shortlist_rule": shortlist_rule,
            "allocation_rule": allocation_rule,
            "model": model,
        }
        fingerprint = digest(
            [
                instance_data(instance),
                [list(r) for r in rankings],
                sets(awareness),
                shortlist_rule,
                allocation_rule,
                model,
            ]
        )
        units.append(Unit(f"g{i:03d}", f"m{len(instance)}-{shortlist_rule}", inputs, fingerprint))
    return units


def _equal_representation_k2(instance, proposals):
    return sl.equal_representation(instance, proposals, 2)


def _nomination(instance, proposals):
    return sl.nomination(instance, proposals)


def fssp_tasks(unit: Unit, shortlist_impls=None, rule_impls=None) -> list[Task]:
    """Six tasks per game: every (variant, mode) cell of ``check_fssp``."""
    x = unit.inputs
    tasks = []
    for variant in st.VARIANTS:
        for mode in st.MODES:
            def call(variant=variant, mode=mode):
                if shortlist_impls is None:
                    shortlist = (
                        _nomination
                        if x["shortlist_rule"] == "nomination"
                        else _equal_representation_k2
                    )
                else:
                    shortlist = shortlist_impls[x["shortlist_rule"]]
                rule = (
                    al.allocation_rule(x["allocation_rule"])
                    if rule_impls is None
                    else rule_impls[x["allocation_rule"]]
                )
                game = st.StageGame(
                    instance=x["instance"],
                    shortlist_rule=shortlist,
                    allocation_rule=rule,
                    rankings=x["rankings"],
                    awareness=x["awareness"],
                    model=x["model"],
                )
                return st.check_fssp(game, variant, mode)

            tasks.append(Task(f"{unit.uid}/{variant}/{mode}", unit.uid, call, verdict_answer))
    return tasks


# ---------------------------------------------------------------------------
# shortlist-search: equal-representation and k-median searches

SHORTLIST_POOL_SEED = 5300
ER_POOL_SIZE = 80
ER_UNION = (10, 14)
KM_POOL_SIZE = 200
KM_UNION = (6, 9)
KM_COORD_RANGE = 6


def _proposals_with_union(rng: Random, instance, agents: int, low: int, high: int):
    """Draw proposal profiles until their union has between low and high projects."""
    while True:
        proposals = su.random_proposals(rng, instance, agents)
        if low <= len(sl.proposal_union(proposals)) <= high:
            return proposals


def shortlist_pool(wanted: set[str] | None = None) -> list[Unit]:
    units = []
    for i in range(ER_POOL_SIZE):
        if wanted is not None and f"er{i:03d}" not in wanted:
            continue
        rng = Random(SHORTLIST_POOL_SEED * 1000 + i)
        instance = su.random_instance(
            rng, min_projects=ER_UNION[0], max_projects=ER_UNION[1], max_cost=6
        )
        agents = rng.randint(3, 12)
        proposals = _proposals_with_union(rng, instance, agents, *ER_UNION)
        k = rng.randint(1, 2)
        union = len(sl.proposal_union(proposals))
        inputs = {"rule": "equal-representation", "instance": instance,
                  "proposals": proposals, "k": k}
        fingerprint = digest([instance_data(instance), sets(proposals), k])
        units.append(Unit(f"er{i:03d}", f"er-u{union}", inputs, fingerprint))
    for i in range(KM_POOL_SIZE):
        if wanted is not None and f"km{i:03d}" not in wanted:
            continue
        rng = Random(SHORTLIST_POOL_SEED * 1000 + 500 + i)  # er ids stay below 500
        instance = su.random_instance(
            rng, min_projects=KM_UNION[0], max_projects=KM_UNION[1], max_cost=3,
            coord_range=KM_COORD_RANGE,
        )
        agents = rng.randint(2, 4)
        proposals = _proposals_with_union(rng, instance, agents, *KM_UNION)
        k = rng.randint(1, 2)
        union = len(sl.proposal_union(proposals))
        inputs = {"rule": "k-median", "instance": instance, "proposals": proposals, "k": k,
                  "metric": sl.euclidean_metric(instance)}
        fingerprint = digest([instance_data(instance), sets(proposals), k])
        units.append(Unit(f"km{i:03d}", f"km-u{union}", inputs, fingerprint))
    return units


def shortlist_tasks(unit: Unit) -> list[Task]:
    x = unit.inputs
    if x["rule"] == "equal-representation":
        def call():
            return sl.equal_representation(x["instance"], x["proposals"], x["k"])
    else:
        def call():
            return sl.k_median(x["instance"], x["proposals"], x["k"], x["metric"])
    return [Task(unit.uid, unit.uid, call, shortlist_answer)]


# ---------------------------------------------------------------------------
# cli-pipeline: the command-line front end on city-scale scenario files

CLI_POOL_SEED = 4400
CLI_BROAD = 30         # scenario files with broad proposals (nomination, allocate)
CLI_CONCENTRATED = 10  # scenario files with concentrated proposals (equal representation)
CLI_SUITES = 8         # paper-suite runs (identical; they fill the slow tail evenly)
CLI_UNION = (8, 12)


def _scenario_json(instance, rankings, proposals) -> dict:
    return {
        "format": "pb-scenario",
        "version": 1,
        "instance": {
            "budget": instance.budget,
            "projects": [{"id": p.index, "cost": p.cost} for p in instance.projects],
        },
        "agents": [{"id": i + 1, "ranking": list(r)} for i, r in enumerate(rankings)],
        "proposals": sets(proposals),
    }


def cli_pool(wanted: set[str] | None = None) -> list[Unit]:
    units = []
    for i in range(CLI_BROAD + CLI_CONCENTRATED):
        if wanted is not None and f"c{i:02d}" not in wanted:
            continue
        rng = Random(CLI_POOL_SEED * 1000 + i)
        instance = su.random_instance(rng, min_projects=40, max_projects=60, max_cost=20)
        agents = rng.randint(200, 1000)
        rankings = [su.random_ranking(rng, instance) for _ in range(agents)]
        if i < CLI_BROAD:
            kind = "broad"
            # Each agent proposes the head of their own ranking.
            proposals = [frozenset(r[: rng.randint(1, 3)]) for r in rankings]
            allocation_rule = ALLOCATION_RULES[i % 2]
            stratum = f"broad-n{agents // 400}"
        else:
            kind = "concentrated"
            popular = rng.sample(list(instance.ids), rng.randint(*CLI_UNION))
            proposals = [frozenset(rng.sample(popular, rng.randint(1, 3))) for _ in rankings]
            allocation_rule = ALLOCATION_RULES[i % 2]
            stratum = f"concentrated-u{len(popular) // 3}-n{agents // 500}"
        document = _scenario_json(instance, rankings, proposals)
        text = json.dumps(document, separators=(",", ":"))
        inputs = {"kind": kind, "text": text, "allocation_rule": allocation_rule}
        units.append(Unit(f"c{i:02d}", stratum, inputs, digest(text.encode())))
    for i in range(CLI_SUITES):
        if wanted is not None and f"suite{i}" not in wanted:
            continue
        units.append(Unit(f"suite{i}", "suite", {"kind": "suite"}, digest("paper-suite")))
    return units


def cli_prepare(units: list[Unit]) -> None:
    """Write the selected scenario files; part of set-up."""
    (WORK_DIR / "out").mkdir(parents=True, exist_ok=True)
    for unit in units:
        if unit.inputs["kind"] != "suite":
            (WORK_DIR / f"{unit.uid}.json").write_text(unit.inputs["text"])


def cli_tasks(unit: Unit) -> list[Task]:
    x = unit.inputs
    scenario = str(WORK_DIR / f"{unit.uid}.json")
    if x["kind"] == "suite":
        commands = {"paper-suite": ["paper-suite"]}
    elif x["kind"] == "broad":
        commands = {
            "end-to-end": ["end-to-end", "--scenario", scenario, "--rule", "nomination",
                           "--allocation-rule", x["allocation_rule"]],
        }
        for rule in ALLOCATION_RULES:
            commands[f"allocate-{rule}"] = ["allocate", "--scenario", scenario, "--rule", rule]
    else:
        commands = {
            "end-to-end": ["end-to-end", "--scenario", scenario, "--rule",
                           "equal-representation", "--k", "2",
                           "--allocation-rule", x["allocation_rule"]],
        }
    tasks = []
    for name, argv in commands.items():
        key = f"{unit.uid}/{name}"
        output = WORK_DIR / "out" / f"{key.replace('/', '.')}.json"

        def call(argv=argv, output=output):
            code = cli.main([*argv, "--no-timing", "--output", str(output)])
            if code != 0:
                raise RuntimeError(f"pbstages {argv[0]} exited with code {code}")
            return output.read_bytes()

        tasks.append(Task(key, unit.uid, call, digest))
    return tasks


# ---------------------------------------------------------------------------
# Registry and seeded selection


@dataclass(frozen=True)
class Workload:
    name: str
    # pool(wanted) builds the pool units whose ids are in ``wanted`` (all if None).
    pool: Callable[[set[str] | None], list[Unit]]
    tasks: Callable[[Unit], list[Task]]
    prepare: Callable[[list[Unit]], None] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ssp-sweep", ssp_pool, ssp_tasks),
        Workload("fssp-games", fssp_pool, fssp_tasks),
        Workload("shortlist-search", shortlist_pool, shortlist_tasks),
        Workload("cli-pipeline", cli_pool, cli_tasks, cli_prepare),
    )
}


def select(name: str, pool: dict, seed: int) -> list[str]:
    """The keys of the run's tasks.

    Tasks are stratified (``pool["strata"]``: the unit's stratum plus the
    task's kind) and, within each stratum, ordered by their cost at the
    commit that stored the answers (``pool["cost_ms"]``).  The dearest
    quarter (rounded up) is taken on every seed: task times are
    heavy-tailed, and a seed that dropped one of those tasks would move a
    run's time and its 90th percentile more than the bounds allow.  The
    rest are paired with their neighbour in cost order and the seed picks
    one task of each pair (an unpaired cheapest task is kept).  Every seed
    thus draws about five eighths of the pool, with nearly the same
    distribution of task costs.
    """
    rng = Random(f"{name}:{seed}")
    strata: dict[str, list[str]] = {}
    for key, stratum in pool["strata"].items():
        strata.setdefault(stratum, []).append(key)
    cost = pool["cost_ms"]
    chosen = []
    for stratum in sorted(strata):
        members = sorted(strata[stratum], key=lambda key: (cost[key], key))
        dearest = -(-len(members) // 4)
        chosen.extend(members[-dearest:])
        members = members[:-dearest]
        for start in range(0, len(members), 2):
            chosen.append(rng.choice(members[start : start + 2]))
    return sorted(chosen)


def unit_of(key: str) -> str:
    return key.split("/", 1)[0]


def run_order(workload: Workload, units: list[Unit], keys: list[str], seed: int) -> list[Task]:
    wanted = set(keys)
    tasks = [task for unit in units for task in workload.tasks(unit) if task.key in wanted]
    Random(f"{workload.name}:order:{seed}").shuffle(tasks)
    return tasks
