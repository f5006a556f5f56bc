"""Allocation rules: greedy approval and exact approval maximisation.

Voters submit approval ballots over the shortlisted projects.  Both rules
try to fund the most approved projects within the budget: greedily in
score order, or by exactly maximising the summed approval score.  Ties are
broken canonically (lowest project index first) unless an explicit
priority list over allocations is supplied.
"""

from __future__ import annotations

import functools
import inspect
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from pbstages.core import Instance, ValidationError

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


def _kernel_args(instance: Instance, scores: dict[int, int]) -> tuple:
    ids = instance.ids
    costs = tuple(p.cost for p in instance.projects)
    return ids, costs, instance.budget, tuple(scores[pid] for pid in ids)


def greedy_approval_kernel(
    ids: Sequence[int], costs: Sequence[int], budget: int, scores: Sequence[int]
) -> frozenset[int]:
    """Greedy approval on a score vector indexed by slot.

    ``ids`` lists the projects in ascending order; ``costs`` and ``scores``
    are indexed the same way.  The sort is stable, so equal scores keep
    slot order: the lower id wins, which is the canonical tie-break.
    """
    chosen = []
    for j in sorted(range(len(ids)), key=scores.__getitem__, reverse=True):
        if costs[j] <= budget:
            chosen.append(ids[j])
            budget -= costs[j]
    return frozenset(chosen)


def greedy_approval(instance: Instance, ballots: Sequence[Iterable[int]]) -> frozenset[int]:
    """Fund projects greedily in order of approval score."""
    return greedy_approval_kernel(*_kernel_args(instance, approval_scores(instance, ballots)))


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


def _suffix_knapsack(
    costs: Sequence[int], scores: Sequence[int], budget: int
) -> list[list[int]]:
    """table[j][b] = best total score using slots j.. within budget b."""
    table = [[0] * (budget + 1)]
    for cost, gain in zip(reversed(costs), reversed(scores)):
        nxt = table[-1]
        if gain == 0:
            # The best score never falls as the budget grows, so taking a
            # worthless project never beats leaving it.
            table.append(nxt)
            continue
        row = nxt[:cost]
        row += [
            keep if keep >= take + gain else take + gain
            for keep, take in zip(nxt[cost:], nxt)
        ]
        table.append(row)
    table.reverse()
    return table


def approval_maximising_kernel(
    ids: Sequence[int],
    costs: Sequence[int],
    budget: int,
    scores: Sequence[int],
    policy: PriorityTieBreak | None = None,
) -> frozenset[int]:
    """Approval maximisation on a slot-indexed score vector.

    A suffix knapsack gives the optimal score.  A ``policy`` returns the
    first allocation it lists that lies in the shortlist, fits the budget
    and reaches that score.  Otherwise canonical tie-breaking prefers the
    maximiser whose characteristic vector is lexicographically largest, so
    it is built directly by forcing projects in, in ascending slot order,
    whenever an optimal completion still exists.  The knapsack answers
    those queries exactly, so the (possibly huge) maximiser family is
    never listed.
    """
    table = _suffix_knapsack(costs, scores, budget)
    optimum = table[0][budget]
    if policy is not None:
        slot = {pid: j for j, pid in enumerate(ids)}
        for preferred in policy.allocations:
            if preferred.issubset(slot):
                slots = [slot[pid] for pid in preferred]
                if (
                    sum(costs[j] for j in slots) <= budget
                    and sum(scores[j] for j in slots) == optimum
                ):
                    return preferred
    chosen: list[int] = []
    spent = 0
    value = 0
    for j, pid in enumerate(ids):
        cost, gain = costs[j], scores[j]
        rest = budget - spent - cost
        if rest >= 0 and value + gain + table[j + 1][rest] == optimum:
            chosen.append(pid)
            spent += cost
            value += gain
    return frozenset(chosen)


def approval_maximising(
    instance: Instance,
    ballots: Sequence[Iterable[int]],
    policy: PriorityTieBreak | None = None,
) -> frozenset[int]:
    """Fund a feasible allocation with maximal total approval score."""
    scores = approval_scores(instance, ballots)
    return approval_maximising_kernel(*_kernel_args(instance, scores), policy)


# The rules that read a ballot profile only through its approval score
# vector, each with the kernel that computes its outcome from that vector.
# The searches memoise on the vector and call the kernel on it directly.
SCORE_KERNELS = (
    (greedy_approval, greedy_approval_kernel),
    (approval_maximising, approval_maximising_kernel),
)


def score_kernel(rule) -> Callable[..., frozenset[int]] | None:
    """The score-vector kernel a rule reduces to, or ``None`` for any other rule.

    Sees through ``functools.wraps`` wrappers.  A ``functools.partial`` of
    a declared rule that binds keyword options only (a tie-break policy)
    reduces to the kernel with the same options bound.
    """
    rule = inspect.unwrap(rule)
    if isinstance(rule, functools.partial):
        kernel = None if rule.args else score_kernel(rule.func)
        return None if kernel is None else functools.partial(kernel, **rule.keywords)
    return next((kernel for known, kernel in SCORE_KERNELS if known is rule), None)


def allocation_rule(name: str, policy: PriorityTieBreak | None = None):
    """Look up an allocation rule by identifier.

    Returns a callable ``rule(instance, ballots) -> frozenset`` suitable
    for the checkers in :mod:`pbstages.verification` and
    :mod:`pbstages.strategy`, which find its kernel through
    :func:`score_kernel`.
    """
    if name == "greedy-approval":
        if policy is not None:
            raise ValidationError("greedy-approval does not take a tie-break policy")
        return greedy_approval
    if name == "approval-maximising":
        if policy is None:
            return approval_maximising
        return functools.partial(approval_maximising, policy=policy)
    raise ValidationError(f"unknown allocation rule {name!r}")


ALLOCATION_RULES = ("greedy-approval", "approval-maximising")
