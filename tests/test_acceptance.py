"""Acceptance suite: one check per shipped guarantee, with time budgets.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and enforces the documented time budget.  Every expected value here
was either taken from the bundled scenario records or frozen from the
independent brute-force oracles in :mod:`pbstages.oracles`.
"""

import time
from itertools import combinations
from random import Random

import pytest

from pbstages.allocation import allocation_rule
from pbstages.fixtures import load_fixture
from pbstages.operations import run_bundled_suite
from pbstages.oracles import (
    approval_maximising_oracle,
    equal_representation_oracle,
    k_median_oracle,
)
from pbstages.preferences import ideal_set
from pbstages.shortlisting import (
    equal_representation,
    euclidean_metric,
    k_median,
    nomination,
)
from pbstages.strategy import (
    StageGame,
    check_fssp,
    check_manipulation,
    check_nomination_fssp_class,
)
from pbstages.suites import (
    random_ballots,
    random_instance,
    random_proposals,
    sp_cases,
)
from pbstages.verification import (
    check_allocation_axiom,
    check_non_wasteful,
    check_representation_efficiency,
    check_rules_coincide_on_unit_class,
    check_second_stage_sp,
    check_sp_over_unit_class,
    find_representative_domination,
)
from pbstages.suites import allocation_cases, shortlisting_cases

from conftest import fs

GREEDY = allocation_rule("greedy-approval")
MAXIMISING = allocation_rule("approval-maximising")


def report(number, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:>2}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_end_to_end_example():
    started = time.perf_counter()
    doc = load_fixture("example1")
    problems = []
    shortlist = nomination(doc.instance, doc.proposals)
    if shortlist != fs(*range(1, 10)):
        problems.append(f"nomination gave {sorted(shortlist)}")
    doubled = equal_representation(doc.instance, doc.proposals, 2)
    if doubled != fs(1, 2, 3, 4, 6, 7):
        problems.append(f"doubled-budget representation rule gave {sorted(doubled)}")
    stage_two = doc.instance.restrict(shortlist)
    ballots = tuple(
        ideal_set(stage_two, [p for p in agent.ranking if p in stage_two])
        for agent in doc.agents
    )
    for rule, name in ((GREEDY, "greedy"), (MAXIMISING, "maximising")):
        outcome = rule(stage_two, ballots)
        if outcome != fs(1, 2, 3):
            problems.append(f"{name} allocation gave {sorted(outcome)}")
    report(1, not problems, time.perf_counter() - started, 1.0, "; ".join(problems))


def test_criterion_02_withheld_favourite_manipulation():
    started = time.perf_counter()
    doc = load_fixture("nomination-anticipative")
    game = StageGame(
        instance=doc.instance,
        shortlist_rule=nomination,
        allocation_rule=GREEDY,
        rankings=doc.rankings,
        awareness=doc.awareness,
        model="overlap",
        proposals=doc.proposals,
    )
    result = check_manipulation(game, 0, fs(4, 5, 10), "anticipative")
    ok = (
        result.successful
        and result.witness["deviation_outcome"] == [2, 4, 5]
        and result.witness["baseline_outcome"] == [1, 2, 3]
    )
    report(2, ok, time.perf_counter() - started, 1.0,
           f"verdict={result.verdict} witness={result.witness and result.witness['deviation_outcome']}")


def test_criterion_03_crossed_awareness_impossibility():
    started = time.perf_counter()
    doc = load_fixture("theorem-rfssp")
    shortlist_rules = {
        "nomination": nomination,
        "2-equal-representation": lambda i, p: equal_representation(i, p, 2),
    }
    problems = []
    for sname, srule in shortlist_rules.items():
        for aname in ("greedy-approval", "approval-maximising"):
            game = StageGame(
                instance=doc.instance,
                shortlist_rule=srule,
                allocation_rule=allocation_rule(aname),
                rankings=doc.rankings,
                awareness=doc.awareness,
                model="overlap",
                proposals=doc.proposals,
            )
            for mode in ("pessimistic", "anticipative"):
                verdict = check_fssp(game, "restricted", mode)
                if verdict.holds or verdict.witness["deviation"] != []:
                    problems.append(f"{sname}+{aname} restricted {mode}")
                if not verdict.exact:
                    problems.append(f"{sname}+{aname} restricted {mode} not exact")
            for mode in ("pessimistic", "optimistic", "anticipative"):
                verdict = check_fssp(game, "unrestricted", mode)
                if not (verdict.holds and verdict.exact):
                    problems.append(f"{sname}+{aname} unrestricted {mode}")
    report(3, not problems, time.perf_counter() - started, 1.0, "; ".join(problems))


@pytest.mark.parametrize(
    "name,rule",
    [("greedy-approval", GREEDY), ("approval-maximising", MAXIMISING)],
    ids=["greedy-approval", "approval-maximising"],
)
def test_criterion_04_nomination_class_exhaustive(name, rule):
    started = time.perf_counter()
    problems = []
    for model in ("overlap", "cost"):
        verdict = check_nomination_fssp_class(
            rule, model, "pessimistic", max_projects=3, max_agents=3,
            costs=(1, 2), max_budget=3,
        )
        if not (verdict.holds and verdict.exact):
            problems.append(f"{model}: {verdict.witness}")
    report(4, not problems, time.perf_counter() - started, 300.0,
           f"nomination+{name}; " + "; ".join(problems))


def test_criterion_05_clustering_relocation():
    started = time.perf_counter()
    doc = load_fixture("kmedian-relocation")
    metric = euclidean_metric(doc.instance)
    problems = []
    truthful = k_median(doc.instance, doc.proposals, 1, metric)
    if truthful != fs(4, 6, 7):
        problems.append(f"truthful shortlist {sorted(truthful)}")
    deviated = (fs(1, 2, 5), doc.proposals[1])
    manipulated = k_median(doc.instance, deviated, 1, metric)
    if manipulated != fs(1, 2, 5):
        problems.append(f"manipulated shortlist {sorted(manipulated)}")
    game = StageGame(
        instance=doc.instance,
        shortlist_rule=lambda i, p: k_median(i, p, 1, metric),
        allocation_rule=GREEDY,
        rankings=doc.rankings,
        awareness=doc.awareness,
        model="overlap",
        proposals=doc.proposals,
    )
    result = check_manipulation(game, 0, fs(1, 2, 5), "pessimistic")
    if not result.successful:
        problems.append(f"pessimistic verdict {result.verdict}")
    report(5, not problems, time.perf_counter() - started, 30.0, "; ".join(problems))


def test_criterion_06_unit_class_strategyproofness():
    started = time.perf_counter()
    problems = []
    for rule, name in ((GREEDY, "greedy"), (MAXIMISING, "maximising")):
        for model in ("overlap", "cost"):
            verdict = check_sp_over_unit_class(
                rule, model, max_projects=4, max_agents=3
            )
            if not (verdict.holds and verdict.exact):
                problems.append(f"{name}/{model}: {verdict.witness}")
    coincide = check_rules_coincide_on_unit_class(
        GREEDY, MAXIMISING, max_projects=4, max_agents=3
    )
    if not (coincide.holds and coincide.exact):
        problems.append(f"rules differ: {coincide.witness}")
    report(6, not problems, time.perf_counter() - started, 300.0, "; ".join(problems))


def test_criterion_07_priority_tiebreak_manipulation():
    started = time.perf_counter()
    doc = load_fixture("unit-priority-tiebreak")
    problems = []
    with_policy = allocation_rule("approval-maximising", doc.tiebreak)
    verdict = check_second_stage_sp(
        with_policy, doc.instance, doc.rankings, "overlap", search="fixed-others"
    )
    witness = verdict.witness
    if verdict.holds or witness["agent"] != 1:
        problems.append(f"priority policy: {verdict.status}")
    elif witness["profile"][0] != [1, 2, 3] or witness["manipulated_outcome"] != [1, 2, 3, 5]:
        problems.append(f"unexpected witness {witness['profile'][0]} -> {witness['manipulated_outcome']}")
    canonical = check_second_stage_sp(
        MAXIMISING, doc.instance, doc.rankings, "overlap", search="full"
    )
    if not (canonical.holds and canonical.exact):
        problems.append(f"canonical tie-break: {canonical.status}")
    report(7, not problems, time.perf_counter() - started, 1.0, "; ".join(problems))


def test_criterion_08_maximising_not_approximately_sp():
    started = time.perf_counter()
    doc = load_fixture("maximiser-approx-gap")
    problems = []
    for model in ("overlap", "cost"):
        pinned = check_second_stage_sp(
            MAXIMISING, doc.instance, doc.rankings, model,
            approximate=True, search="fixed-others",
            agents=[0], deviations=[fs(5, 6, 7)],
        )
        w = pinned.witness
        if pinned.holds:
            problems.append(f"{model}: pinned deviation not successful")
            continue
        if w["truthful_outcome"] != [1, 2, 3] or w["manipulated_outcome"] != [5, 6, 7]:
            problems.append(f"{model}: outcomes {w['truthful_outcome']} -> {w['manipulated_outcome']}")
        if w["manipulated_value"] <= w["repaired_value"]:
            problems.append(f"{model}: a single added project repaired the loss")
        searched = check_second_stage_sp(
            MAXIMISING, doc.instance, doc.rankings, model,
            approximate=True, search="fixed-others",
        )
        if searched.holds:
            problems.append(f"{model}: open search found nothing")
    report(8, not problems, time.perf_counter() - started, 1.0, "; ".join(problems))


def test_criterion_09_greedy_approximate_sp_randomised():
    started = time.perf_counter()
    problems = []
    cost_failures = 0
    scenarios = 0
    for instance, rankings, ballots in sp_cases(2026, 10000, max_projects=6, max_cost=6):
        scenarios += 1
        verdict = check_second_stage_sp(
            GREEDY, instance, rankings, "cost",
            approximate=True, search="fixed-others", ballots=ballots,
        )
        if not verdict.holds:
            cost_failures += 1
            problems.append(f"cost-model counterexample at scenario {scenarios}: {verdict.witness}")
            break
    overlap_witness = None
    for instance, rankings, ballots in sp_cases(2026, 10000, max_projects=6, max_cost=6):
        verdict = check_second_stage_sp(
            GREEDY, instance, rankings, "overlap",
            approximate=True, search="fixed-others", ballots=ballots,
        )
        if not verdict.holds:
            overlap_witness = verdict.witness
            break
    if cost_failures:
        problems.append(f"{cost_failures} cost-model counterexamples")
    if overlap_witness is None:
        problems.append("no overlap-model counterexample found")
    detail = "; ".join(problems) or (
        f"cost clean over {scenarios} scenarios; overlap witness agent "
        f"{overlap_witness['agent']} ideal {overlap_witness['ideal']}"
    )
    report(9, not problems, time.perf_counter() - started, 600.0, detail)


def test_criterion_10_oracle_equivalence():
    started = time.perf_counter()
    rng = Random(424242)
    problems = []
    for trial in range(500):
        instance = random_instance(rng, max_projects=6, max_cost=5)
        agents = rng.randint(1, 4)
        proposals = random_proposals(rng, instance, agents)
        k = rng.randint(1, 2)
        fast = equal_representation(instance, proposals, k)
        slow = equal_representation_oracle(instance, proposals, k)
        if fast != slow:
            problems.append(f"representation rule differs on trial {trial}")
            break
    for trial in range(500):
        instance = random_instance(rng, max_projects=6, max_cost=3, coord_range=8)
        proposals = random_proposals(rng, instance, rng.randint(1, 3))
        metric = euclidean_metric(instance)
        k = rng.randint(1, 2)
        if k_median(instance, proposals, k, metric) != k_median_oracle(
            instance, proposals, k, metric
        ):
            problems.append(f"clustering rule differs on trial {trial}")
            break
    for trial in range(500):
        instance = random_instance(rng, max_projects=6, max_cost=6)
        ballots = random_ballots(rng, instance, rng.randint(1, 4))
        if approval_maximising_oracle(instance, ballots) != MAXIMISING(instance, ballots):
            problems.append(f"maximising rule differs on trial {trial}")
            break
    report(10, not problems, time.perf_counter() - started, 600.0, "; ".join(problems))


def test_criterion_11_axiom_suites():
    started = time.perf_counter()
    problems = []

    for instance, proposals in shortlisting_cases(91, 120, max_projects=5):
        if not check_non_wasteful(nomination, instance, proposals).holds:
            problems.append("nomination wasteful")
            break
        if not check_representation_efficiency(nomination, instance, proposals).holds:
            problems.append("nomination dominated")
            break

    rule_k2 = lambda i, p: equal_representation(i, p, 2)
    rule_k1 = lambda i, p: equal_representation(i, p, 1)
    for instance, proposals in shortlisting_cases(92, 120, max_projects=5):
        if not check_non_wasteful(rule_k2, instance, proposals).holds:
            problems.append("doubled-budget representation rule wasteful")
            break
        for rule in (rule_k1, rule_k2):
            if not check_representation_efficiency(rule, instance, proposals).holds:
                problems.append("representation rule dominated")
                break

    for instance, proposals in shortlisting_cases(93, 60, max_projects=5, coord_range=6):
        metric = euclidean_metric(instance)
        rule = lambda i, p: k_median(i, p, 2, metric)
        if not check_non_wasteful(rule, instance, proposals).holds:
            problems.append("doubled-budget clustering rule wasteful")
            break

    domination_doc = load_fixture("kmedian-domination")
    metric = euclidean_metric(domination_doc.instance)
    shortlist = k_median(domination_doc.instance, domination_doc.proposals, 1, metric)
    dominating = find_representative_domination(
        domination_doc.instance, domination_doc.proposals, shortlist
    )
    if dominating is None:
        problems.append("no domination witness for the clustering rule")

    # approval-maximising is not strongly unanimous (README, Known
    # findings): that pair must yield a counterexample; every other pair holds
    for rule, name in ((GREEDY, "greedy"), (MAXIMISING, "maximising")):
        for axiom in ("exhaustive", "unanimous", "strongly-unanimous"):
            verdict = check_allocation_axiom(
                rule, axiom, allocation_cases(94, 250, axiom)
            )
            if (name, axiom) != ("maximising", "strongly-unanimous"):
                if not verdict.holds:
                    problems.append(f"{name} {axiom}: witness {verdict.witness}")
            elif verdict.holds:
                problems.append(f"{name} {axiom}: no counterexample")
            else:
                problems.extend(
                    f"{name} {axiom}: {problem}: witness {verdict.witness}"
                    for problem in strong_unanimity_gap_problems(verdict.witness)
                )

    report(11, not problems, time.perf_counter() - started, 300.0, "; ".join(problems))


def strong_unanimity_gap_problems(witness):
    """What is wrong with a strong-unanimity counterexample of a score maximiser.

    The outcome must leave out the shared ballot and still be a feasible
    set of maximal total approval score.  The maximum comes from a plain
    scan over all subsets of the witness instance, so none of the rule's
    own search or tie-break code is involved.
    """
    costs = {int(pid): cost for pid, cost in witness["instance"]["costs"].items()}
    budget = witness["instance"]["budget"]
    ballots = [frozenset(b) for b in witness["ballots"]]
    shared = frozenset(witness["shared"])
    outcome = frozenset(witness["outcome"])

    def score(projects):
        return sum(pid in ballot for ballot in ballots for pid in projects)

    best = max(
        score(subset)
        for size in range(len(costs) + 1)
        for subset in combinations(costs, size)
        if sum(costs[pid] for pid in subset) <= budget
    )
    problems = []
    deviant = witness["deviant"] - 1
    if len(ballots) < 3 or any(b != shared for i, b in enumerate(ballots) if i != deviant):
        problems.append("not a strong-unanimity profile")
    if shared <= outcome:
        problems.append("outcome contains the shared ballot")
    if not outcome <= costs.keys() or sum(costs[pid] for pid in outcome) > budget:
        problems.append("outcome is infeasible")
    if score(outcome) != best:
        problems.append(f"outcome scores {score(outcome)}, the maximum is {best}")
    if best < score(shared):
        problems.append(f"shared ballot scores {score(shared)} above the maximum {best}")
    return problems


def test_criterion_12_bundled_suite_discrepancies():
    started = time.perf_counter()
    suite = run_bundled_suite()
    failures = [
        f"{name}/{r.check_id}"
        for name, results in suite.items()
        for r in results
        if r.status == "fail"
    ]
    informational = sorted(
        f"{name}/{r.check_id}"
        for name, results in suite.items()
        for r in results
        if r.status == "informational"
    )
    expected = [
        "equal-representation-tie/recorded-truthful-shortlist",
        "kmedian-relocation/recorded-truthful-clusters",
    ]
    with_values = all(
        r.computed
        for results in suite.values()
        for r in results
        if r.status == "informational"
    )
    ok = not failures and informational == expected and with_values
    report(12, ok, time.perf_counter() - started, 60.0,
           f"failures={failures} informational={informational}")
