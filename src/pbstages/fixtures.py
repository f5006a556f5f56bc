"""Bundled scenarios with recorded expectations.

Each fixture is a scenario document whose ``checks`` list records what the
rules and checkers are expected to produce on it.  A check marked
``"required": false`` is *informational*: its recorded value is a known
documented discrepancy kept for reference, and the suite reports the
computed value next to it instead of failing.

Two informational records exist in the bundle: the representation-tie
scenario (where two shortlists share the exact score 11/3 and canonical
tie-breaking selects the one not originally recorded) and the clustering
scenario (whose recorded cluster list names a project nobody proposed).
"""

from __future__ import annotations

import math
from dataclasses import replace

from pbstages.core import Instance, Project, ValidationError
from pbstages.allocation import PriorityTieBreak
from pbstages.preferences import ideal_set
from pbstages.scenario import AgentSpec, ScenarioDocument


def _fs(*pids: int) -> frozenset[int]:
    return frozenset(pids)


def _ranking(prefix, m):
    return tuple(list(prefix) + [p for p in range(1, m + 1) if p not in prefix])


def _projects(costs: dict[int, int], coords: dict[int, tuple] | None = None):
    return [
        Project(pid, cost, None if coords is None else coords.get(pid))
        for pid, cost in sorted(costs.items())
    ]


# ---------------------------------------------------------------------------
# Fixture builders


def _ten_project_scenario() -> ScenarioDocument:
    costs = {i: 1 for i in range(1, 11)}
    instance = Instance(_projects(costs), 3)
    prefixes = {
        1: [1, 4, 5, 10],
        2: [1, 2, 6, 4],
        3: [1, 2, 7, 4],
        4: [1, 3, 8, 5],
        5: [1, 3, 9, 5],
    }
    awareness = {
        1: _fs(1, 4, 5, 10),
        2: _fs(2, 6),
        3: _fs(2, 7),
        4: _fs(3, 8),
        5: _fs(3, 9),
    }
    agents = tuple(
        AgentSpec(i, _ranking(prefixes[i], 10), awareness[i]) for i in range(1, 6)
    )
    proposals = tuple(
        ideal_set(instance, agent.ranking, agent.awareness) for agent in agents
    )
    return ScenarioDocument(instance=instance, agents=agents, proposals=proposals)


def example1() -> ScenarioDocument:
    doc = _ten_project_scenario()
    checks = (
        {
            "id": "nomination-shortlist",
            "kind": "shortlist",
            "rule": "nomination",
            "expect": {"shortlist": list(range(1, 10))},
        },
        {
            "id": "equal-representation-shortlist",
            "kind": "shortlist",
            "rule": "equal-representation",
            "k": 2,
            "expect": {"shortlist": [1, 2, 3, 4, 6, 7]},
        },
        {
            "id": "greedy-allocation",
            "kind": "allocation",
            "rule": "greedy-approval",
            "shortlist": list(range(1, 10)),
            "ballots": "truthful",
            "expect": {"allocation": [1, 2, 3]},
        },
        {
            "id": "maximising-allocation",
            "kind": "allocation",
            "rule": "approval-maximising",
            "shortlist": list(range(1, 10)),
            "ballots": "truthful",
            "expect": {"allocation": [1, 2, 3]},
        },
        {
            "id": "end-to-end",
            "kind": "end-to-end",
            "shortlist_rule": "nomination",
            "allocation_rule": "greedy-approval",
            "expect": {"shortlist": list(range(1, 10)), "allocation": [1, 2, 3]},
        },
    )
    config = {"shortlist_rule": "nomination", "allocation_rule": "greedy-approval", "model": "overlap"}
    return replace(doc, config=config, checks=checks)


def nomination_anticipative() -> ScenarioDocument:
    doc = _ten_project_scenario()
    checks = (
        {
            "id": "withheld-favourite",
            "kind": "manipulation",
            "shortlist_rule": "nomination",
            "allocation_rule": "greedy-approval",
            "model": "overlap",
            "mode": "anticipative",
            "agent": 1,
            "deviation": [4, 5, 10],
            "expect": {
                "verdict": "successful",
                "baseline_outcome": [1, 2, 3],
                "deviation_outcome": [2, 4, 5],
            },
        },
    )
    config = {"shortlist_rule": "nomination", "allocation_rule": "greedy-approval",
              "model": "overlap", "mode": "anticipative"}
    return replace(doc, config=config, checks=checks)


def theorem_rfssp() -> ScenarioDocument:
    instance = Instance(_projects({1: 1, 2: 1}), 1)
    agents = (
        AgentSpec(1, (2, 1), _fs(1)),
        AgentSpec(2, (1, 2), _fs(2)),
    )
    checks = []
    for srule, k in (("nomination", None), ("equal-representation", 2)):
        for arule in ("greedy-approval", "approval-maximising"):
            tag = f"{srule}-k{k}" if k else srule
            for mode in ("pessimistic", "anticipative"):
                checks.append(
                    {
                        "id": f"restricted-{mode}-{tag}-{arule}",
                        "kind": "fssp",
                        "variant": "restricted",
                        "mode": mode,
                        "shortlist_rule": srule,
                        "k": k,
                        "allocation_rule": arule,
                        "model": "overlap",
                        "expect": {
                            "status": "counterexample-found",
                            "agent": 1,
                            "deviation": [],
                        },
                    }
                )
            for mode in ("pessimistic", "optimistic", "anticipative"):
                checks.append(
                    {
                        "id": f"unrestricted-{mode}-{tag}-{arule}",
                        "kind": "fssp",
                        "variant": "unrestricted",
                        "mode": mode,
                        "shortlist_rule": srule,
                        "k": k,
                        "allocation_rule": arule,
                        "model": "overlap",
                        "expect": {"status": "holds-on-suite"},
                    }
                )
    config = {"shortlist_rule": "nomination", "allocation_rule": "greedy-approval",
              "model": "overlap", "variant": "restricted", "mode": "pessimistic"}
    return ScenarioDocument(
        instance=instance, agents=agents,
        proposals=(_fs(1), _fs(2)),
        config=config, checks=tuple(checks),
    )


def equal_representation_tie() -> ScenarioDocument:
    instance = Instance(_projects({1: 1, 2: 2, 3: 1, 4: 1}), 2)
    agents = (
        AgentSpec(1, (3, 4, 2, 1), _fs(1, 2, 3, 4)),
        AgentSpec(2, (1, 2, 3, 4), _fs(1, 2)),
        AgentSpec(3, (2, 1, 3, 4), _fs(2)),
    )
    proposals = (_fs(3, 4), _fs(1, 2), _fs(2))
    checks = (
        {
            "id": "score-of-recorded-shortlist",
            "kind": "score",
            "subset": [2],
            "expect": {"score": "11/3"},
        },
        {
            "id": "score-of-computed-shortlist",
            "kind": "score",
            "subset": [1, 3],
            "expect": {"score": "11/3"},
        },
        {
            "id": "truthful-shortlist",
            "kind": "shortlist",
            "rule": "equal-representation",
            "k": 1,
            "expect": {"shortlist": [1, 3]},
        },
        {
            "id": "recorded-truthful-shortlist",
            "kind": "shortlist",
            "rule": "equal-representation",
            "k": 1,
            "required": False,
            "note": "recorded shortlist ties at exact score 11/3 with {1, 3}; "
            "canonical set tie-breaking selects {1, 3}",
            "expect": {"shortlist": [2]},
        },
        {
            "id": "deviating-shortlist",
            "kind": "shortlist",
            "rule": "equal-representation",
            "k": 1,
            "proposals": [[1, 3], [1, 2], [2]],
            "expect": {"shortlist": [1, 3]},
        },
        *(
            {
                "id": f"unrestricted-{mode}",
                "kind": "fssp",
                "variant": "unrestricted",
                "mode": mode,
                "shortlist_rule": "equal-representation",
                "k": 1,
                "allocation_rule": "greedy-approval",
                "model": "overlap",
                "expect": {"status": "holds-on-suite"},
            }
            for mode in ("pessimistic", "optimistic")
        ),
    )
    config = {"shortlist_rule": "equal-representation", "k": 1,
              "allocation_rule": "greedy-approval", "model": "overlap"}
    return ScenarioDocument(
        instance=instance, agents=agents, proposals=proposals,
        config=config, checks=checks,
    )


def kmedian_relocation() -> ScenarioDocument:
    root3 = math.sqrt(3.0)
    coords = {
        1: (0.0, 1.0),
        2: (0.0, -1.0),
        3: (-root3, 0.0),
        4: (-1.0 / root3, 0.0),
        5: (4.0, 0.0),
        6: (4.0, 1.0),
        7: (4.0, -1.0),
    }
    instance = Instance(_projects({i: 1 for i in range(1, 8)}, coords), 3)
    agents = (
        AgentSpec(1, (1, 2, 3, 5, 4, 6, 7), _fs(1, 2, 3, 5)),
        AgentSpec(2, (4, 6, 7, 1, 2, 3, 5), _fs(4, 6, 7)),
    )
    proposals = (_fs(1, 2, 3), _fs(4, 6, 7))
    checks = (
        {
            "id": "truthful-shortlist",
            "kind": "shortlist",
            "rule": "k-median",
            "k": 1,
            "expect": {"shortlist": [4, 6, 7]},
        },
        {
            "id": "deviating-shortlist",
            "kind": "shortlist",
            "rule": "k-median",
            "k": 1,
            "proposals": [[1, 2, 5], [4, 6, 7]],
            "expect": {"shortlist": [1, 2, 5]},
        },
        {
            "id": "recorded-truthful-clusters",
            "kind": "clusters",
            "k": 1,
            "required": False,
            "note": "the recorded cluster list names a project nobody proposed; "
            "the computed clustering is the only valid one at the minimal radius",
            "expect": {"partitions": [[[1, 2, 3, 4], [5], [6]]]},
        },
        {
            "id": "relocation-pessimistic",
            "kind": "manipulation",
            "shortlist_rule": "k-median",
            "k": 1,
            "allocation_rule": "greedy-approval",
            "model": "overlap",
            "mode": "pessimistic",
            "agent": 1,
            "deviation": [1, 2, 5],
            "expect": {"verdict": "successful"},
        },
    )
    config = {"shortlist_rule": "k-median", "k": 1,
              "allocation_rule": "greedy-approval", "model": "overlap"}
    return ScenarioDocument(
        instance=instance, agents=agents, proposals=proposals,
        metric_spec={"kind": "euclidean"}, config=config, checks=checks,
    )


def unit_priority_tiebreak() -> ScenarioDocument:
    instance = Instance(_projects({i: 1 for i in range(1, 8)}), 4)
    agents = (
        AgentSpec(1, _ranking([1, 2, 3, 4], 7), None),
        AgentSpec(2, _ranking([4, 5, 6, 7], 7), None),
    )
    checks = (
        {
            "id": "priority-policy-manipulable",
            "kind": "ssp",
            "rule": "approval-maximising",
            "tiebreak": "document",
            "model": "overlap",
            "approximate": False,
            "search": "fixed-others",
            "expect": {
                "status": "counterexample-found",
                "agent": 1,
                "manipulator_ballot": [1, 2, 3],
                "manipulated_outcome": [1, 2, 3, 5],
            },
        },
        {
            "id": "canonical-strategyproof",
            "kind": "ssp",
            "rule": "approval-maximising",
            "model": "overlap",
            "approximate": False,
            "search": "full",
            "expect": {"status": "holds-on-suite"},
        },
    )
    config = {"allocation_rule": "approval-maximising", "model": "overlap"}
    return ScenarioDocument(
        instance=instance, agents=agents,
        tiebreak=PriorityTieBreak((_fs(1, 2, 3, 5), _fs(4, 5, 6, 7))),
        config=config, checks=checks,
    )


def maximiser_approx_gap() -> ScenarioDocument:
    costs = {1: 4, 2: 4, 3: 4, 4: 6, 5: 6, 6: 3, 7: 3, 8: 3}
    instance = Instance(_projects(costs), 12)
    agents = (
        AgentSpec(1, _ranking([6, 7, 8], 8), None),
        AgentSpec(2, _ranking([4, 5], 8), None),
        AgentSpec(3, _ranking([1, 2, 3], 8), None),
    )
    checks = []
    for model in ("overlap", "cost"):
        checks.append(
            {
                "id": f"approx-gap-{model}",
                "kind": "ssp",
                "rule": "approval-maximising",
                "model": model,
                "approximate": True,
                "search": "fixed-others",
                "agents": [1],
                "deviations": [[5, 6, 7]],
                "expect": {
                    "status": "counterexample-found",
                    "agent": 1,
                    "manipulator_ballot": [5, 6, 7],
                    "truthful_outcome": [1, 2, 3],
                    "manipulated_outcome": [5, 6, 7],
                },
            }
        )
        checks.append(
            {
                "id": f"approx-gap-search-{model}",
                "kind": "ssp",
                "rule": "approval-maximising",
                "model": model,
                "approximate": True,
                "search": "fixed-others",
                "expect": {"status": "counterexample-found"},
            }
        )
    config = {"allocation_rule": "approval-maximising", "model": "overlap"}
    return ScenarioDocument(
        instance=instance, agents=agents, config=config, checks=tuple(checks)
    )


def kmedian_domination() -> ScenarioDocument:
    coords = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (10.0, 0.0)}
    instance = Instance(_projects({1: 1, 2: 1, 3: 1}, coords), 2)
    agents = (
        AgentSpec(1, (2, 1, 3), _fs(2)),
        AgentSpec(2, (2, 3, 1), _fs(2)),
        AgentSpec(3, (1, 2, 3), _fs(1, 2)),
        AgentSpec(4, (3, 1, 2), _fs(3)),
    )
    proposals = (_fs(2), _fs(2), _fs(1, 2), _fs(3))
    checks = (
        {
            "id": "shortlist-ignores-support",
            "kind": "shortlist",
            "rule": "k-median",
            "k": 1,
            "expect": {"shortlist": [1, 3]},
        },
        {
            "id": "dominating-set-exists",
            "kind": "domination",
            "shortlist_rule": "k-median",
            "k": 1,
            "expect": {"found": True, "dominating": [2, 3]},
        },
    )
    config = {"shortlist_rule": "k-median", "k": 1,
              "allocation_rule": "greedy-approval", "model": "overlap"}
    return ScenarioDocument(
        instance=instance, agents=agents, proposals=proposals,
        metric_spec={"kind": "euclidean"}, config=config, checks=checks,
    )


def greedy_overlap_gap() -> ScenarioDocument:
    instance = Instance(_projects({1: 3, 2: 3, 3: 1, 4: 1, 5: 1}), 6)
    agents = (
        AgentSpec(1, (2, 3, 4, 5, 1), None),
        AgentSpec(2, (1, 2, 3, 4, 5), None),
        AgentSpec(3, (1, 2, 3, 4, 5), None),
    )
    ballots = (_fs(2, 3, 4, 5), _fs(1), _fs(1))
    checks = (
        {
            "id": "overlap-gap",
            "kind": "ssp",
            "rule": "greedy-approval",
            "model": "overlap",
            "approximate": True,
            "search": "fixed-others",
            "expect": {
                "status": "counterexample-found",
                "agent": 1,
                "manipulator_ballot": [3],
                "truthful_outcome": [1, 2],
                "manipulated_outcome": [1, 3, 4, 5],
            },
        },
        {
            "id": "cost-model-safe",
            "kind": "ssp",
            "rule": "greedy-approval",
            "model": "cost",
            "approximate": True,
            "search": "fixed-others",
            "expect": {"status": "holds-on-suite"},
        },
    )
    config = {"allocation_rule": "greedy-approval", "model": "overlap"}
    return ScenarioDocument(
        instance=instance, agents=agents, ballots=ballots,
        config=config, checks=checks,
    )


FIXTURES = {
    "example1": example1,
    "nomination-anticipative": nomination_anticipative,
    "theorem-rfssp": theorem_rfssp,
    "equal-representation-tie": equal_representation_tie,
    "kmedian-relocation": kmedian_relocation,
    "unit-priority-tiebreak": unit_priority_tiebreak,
    "maximiser-approx-gap": maximiser_approx_gap,
    "kmedian-domination": kmedian_domination,
    "greedy-overlap-gap": greedy_overlap_gap,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURES)


def load_fixture(name: str) -> ScenarioDocument:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}"
        ) from None
