"""Allocation rules: greedy approval and exact approval maximisation.

Voters submit approval ballots over the shortlisted projects.  Both rules
try to fund the most approved projects within the budget: greedily in
score order, or by exactly maximising the summed approval score.  Ties are
broken canonically (lowest project index first) unless an explicit
priority list over allocations is supplied.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from pbstages.core import (
    Caps,
    Instance,
    ResourceLimitError,
    ValidationError,
    greedy_select,
    subsets_ascending,
    tiebreak_family,
    tiebreak_order,
)

INFEASIBLE = "infeasible"
FEASIBLE = "feasible-not-exhaustive"
EXHAUSTIVE = "exhaustive"


def check_ballots(
    instance: Instance, ballots: Sequence[Iterable[int]]
) -> tuple[frozenset[int], ...]:
    return tuple(
        instance.check_subset(ballot, f"ballot of agent {i + 1}")
        for i, ballot in enumerate(ballots)
    )


def approval_scores(instance: Instance, ballots: Sequence[Iterable[int]]) -> dict[int, int]:
    """Number of ballots approving each shortlisted project."""
    ballots = check_ballots(instance, ballots)
    scores = {pid: 0 for pid in instance.ids}
    for ballot in ballots:
        for pid in ballot:
            scores[pid] += 1
    return scores


def classify_allocation(instance: Instance, allocation: Iterable[int]) -> str:
    """Classify as infeasible, feasible-not-exhaustive, or exhaustive.

    Exhaustive means feasible with no shortlisted project left that would
    still fit the residual budget.
    """
    allocation = instance.check_subset(allocation, "allocation")
    spent = instance.total_cost(allocation)
    if spent > instance.budget:
        return INFEASIBLE
    residual = instance.budget - spent
    for pid in instance.ids:
        if pid not in allocation and instance.cost(pid) <= residual:
            return FEASIBLE
    return EXHAUSTIVE


def score_order(instance: Instance, scores: dict[int, int]) -> tuple[int, ...]:
    """Strict project order: descending approval score, ties by index."""
    classes: dict[int, list[int]] = {}
    for pid in instance.ids:
        classes.setdefault(-scores[pid], []).append(pid)
    return tiebreak_order([classes[key] for key in sorted(classes)], instance.ids)


def greedy_approval_from_scores(instance: Instance, scores: dict[int, int]) -> frozenset[int]:
    return greedy_select(instance, instance.ids, score_order(instance, scores))


def greedy_approval(instance: Instance, ballots: Sequence[Iterable[int]]) -> frozenset[int]:
    """Fund projects greedily in order of approval score."""
    return greedy_approval_from_scores(instance, approval_scores(instance, ballots))


@dataclass(frozen=True)
class PriorityTieBreak:
    """Explicit priority over allocations, used instead of canonical tie-breaking.

    Score maximisers listed here win in list order; maximisers not listed
    rank after all listed ones and are tie-broken canonically among
    themselves.
    """

    allocations: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(set(self.allocations)) != len(self.allocations):
            raise ValidationError("priority list contains duplicate allocations")

    def select(self, maximisers: Iterable[frozenset[int]]) -> frozenset[int]:
        maximisers = set(maximisers)
        for preferred in self.allocations:
            if preferred in maximisers:
                return preferred
        return tiebreak_family(maximisers)


def _suffix_knapsack(
    ids: Sequence[int], costs: dict[int, int], scores: dict[int, int], budget: int
) -> list[list[int]]:
    """table[j][b] = best total score using ids[j:] within budget b."""
    m = len(ids)
    table = [[0] * (budget + 1) for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        pid = ids[j]
        cost, gain = costs[pid], scores[pid]
        row, nxt = table[j], table[j + 1]
        for b in range(budget + 1):
            best = nxt[b]
            if cost <= b:
                with_it = gain + nxt[b - cost]
                if with_it > best:
                    best = with_it
            row[b] = best
    return table


def maximising_allocations(
    instance: Instance,
    scores: dict[int, int],
    caps: Caps = Caps(),
) -> list[frozenset[int]]:
    """Every feasible allocation with maximal total approval score.

    Exponential in the shortlist size, hence capped; only needed for
    explicit priority tie-breaking.
    """
    if len(instance) > caps.maximisers:
        raise ResourceLimitError(
            f"maximiser enumeration over {len(instance)} projects exceeds "
            f"the cap of {caps.maximisers}"
        )
    best = -1
    chosen: list[frozenset[int]] = []
    for subset in subsets_ascending(instance.ids):
        if instance.total_cost(subset) > instance.budget:
            continue
        score = sum(scores[pid] for pid in subset)
        if score > best:
            best = score
            chosen = [subset]
        elif score == best:
            chosen.append(subset)
    return chosen


def approval_maximising_from_scores(
    instance: Instance,
    scores: dict[int, int],
    policy: PriorityTieBreak | None = None,
    caps: Caps = Caps(),
) -> frozenset[int]:
    if policy is not None:
        return policy.select(maximising_allocations(instance, scores, caps))
    # Canonical tie-breaking prefers the maximiser whose characteristic
    # vector is lexicographically largest, so it can be built directly by
    # forcing projects in, in ascending index order, whenever an optimal
    # completion still exists.  A suffix knapsack answers those queries
    # exactly without ever listing the (possibly huge) maximiser family.
    ids = list(instance.ids)
    costs = {pid: instance.cost(pid) for pid in ids}
    table = _suffix_knapsack(ids, costs, scores, instance.budget)
    optimum = table[0][instance.budget]
    chosen: list[int] = []
    spent = 0
    value = 0
    for j, pid in enumerate(ids):
        if spent + costs[pid] <= instance.budget:
            with_it = value + scores[pid] + table[j + 1][instance.budget - spent - costs[pid]]
            if with_it == optimum:
                chosen.append(pid)
                spent += costs[pid]
                value += scores[pid]
    return frozenset(chosen)


def approval_maximising(
    instance: Instance,
    ballots: Sequence[Iterable[int]],
    policy: PriorityTieBreak | None = None,
    caps: Caps = Caps(),
) -> frozenset[int]:
    """Fund a feasible allocation with maximal total approval score."""
    return approval_maximising_from_scores(
        instance, approval_scores(instance, ballots), policy, caps
    )


def allocation_rule(name: str, policy: PriorityTieBreak | None = None, caps: Caps = Caps()):
    """Look up an allocation rule by identifier.

    Returns a callable ``rule(instance, ballots) -> frozenset`` suitable
    for the checkers in :mod:`pbstages.verification` and
    :mod:`pbstages.strategy`.
    """
    if name == "greedy-approval":
        if policy is not None:
            raise ValidationError("greedy-approval does not take a tie-break policy")
        return greedy_approval
    if name == "approval-maximising":
        def rule(instance, ballots, policy=policy, caps=caps):
            return approval_maximising(instance, ballots, policy, caps)

        rule.score_based = True
        return rule
    raise ValidationError(f"unknown allocation rule {name!r}")


# Ballot profiles influence both rules only through the score vector; the
# searches key their memoisation on this flag.
greedy_approval.score_based = True
approval_maximising.score_based = True

ALLOCATION_RULES = ("greedy-approval", "approval-maximising")
