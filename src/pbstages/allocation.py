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
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from pbstages.core import Instance, ValidationError

INFEASIBLE = "infeasible"
FEASIBLE = "feasible-not-exhaustive"
EXHAUSTIVE = "exhaustive"


def approval_scores(instance: Instance, ballots: Sequence[Iterable[int]]) -> dict[int, int]:
    """Number of ballots approving each shortlisted project, in ascending id order."""
    scores = dict.fromkeys(instance.ids, 0)
    for i, ballot in enumerate(ballots):
        ballot = frozenset(ballot)
        try:
            for pid in ballot:
                scores[pid] += 1
        except KeyError:
            unknown = sorted(pid for pid in ballot if pid not in scores)
            raise ValidationError(
                f"ballot of agent {i + 1} contains unknown project ids {unknown}"
            ) from None
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


def kernel_args(instance: Instance) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A score kernel's arguments before its levels: the ids, their costs and the budget."""
    return instance.ids, tuple(p.cost for p in instance.projects), instance.budget


def _greedy(
    ids: Sequence[int], costs: Sequence[int], budget: int, scores: Sequence[int]
) -> frozenset[int]:
    chosen = []
    for j in sorted(range(len(ids)), key=scores.__getitem__, reverse=True):
        if costs[j] <= budget:
            chosen.append(ids[j])
            budget -= costs[j]
    return frozenset(chosen)


def greedy_approval_kernel(
    ids: Sequence[int], costs: Sequence[int], budget: int, levels: Sequence[Sequence[int]]
) -> list[frozenset[int]]:
    """Greedy approval at every point of the product of the per-slot ``levels``.

    ``ids`` lists the projects in ascending order; ``costs`` and ``levels``
    are indexed the same way.  Points come slot 0 fastest, the order of
    :func:`~pbstages.core.subsets_ascending`.  The sort is stable, so equal
    scores keep slot order: the lower id wins, which is the canonical
    tie-break.
    """
    return [
        _greedy(ids, costs, budget, point[::-1])
        for point in itertools.product(*reversed(levels))
    ]


def greedy_approval(instance: Instance, ballots: Sequence[Iterable[int]]) -> frozenset[int]:
    """Fund projects greedily in order of approval score."""
    point = [(s,) for s in approval_scores(instance, ballots).values()]
    return greedy_approval_kernel(*kernel_args(instance), point)[0]


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


def _suffix_row(nxt: list[int], cost: int, gain: int) -> list[int]:
    """The suffix-knapsack row of a slot from the row of the slots after it.

    ``row[b]`` is the best total score of the slots from this one on within
    budget ``b``.
    """
    if gain == 0:
        # The best score never falls as the budget grows, so taking a
        # worthless project never beats leaving it.
        return nxt
    row = nxt[:cost]
    row += [
        keep if keep >= take + gain else take + gain
        for keep, take in zip(nxt[cost:], nxt)
    ]
    return row


def _listed(
    ids: Sequence[int], costs: Sequence[int], budget: int, policy: PriorityTieBreak | None
) -> list[tuple[frozenset[int], list[int]]]:
    """The policy's allocations that lie in the shortlist and fit the budget, with their slots."""
    if policy is None:
        return []
    slot = {pid: j for j, pid in enumerate(ids)}
    listed = []
    for preferred in policy.allocations:
        if preferred.issubset(slot):
            slots = [slot[pid] for pid in preferred]
            if sum(costs[j] for j in slots) <= budget:
                listed.append((preferred, slots))
    return listed


def _maximiser(
    ids: Sequence[int],
    costs: Sequence[int],
    budget: int,
    scores: Sequence[int],
    rows: Sequence[list[int]],
    listed: list[tuple[frozenset[int], list[int]]],
) -> frozenset[int]:
    """The chosen maximiser of ``scores`` on at least one slot.

    ``rows[j]``, for j >= 1, is the suffix row of slots j.., and ``rows[m]``
    is all zero.  Slot 0's own row is never built: the optimum is the
    better of leaving and taking slot 0, read off slot 1's row.
    """
    after = rows[1]
    optimum = after[budget]
    rest = budget - costs[0]
    if rest >= 0 and after[rest] + scores[0] > optimum:
        optimum = after[rest] + scores[0]
    for preferred, slots in listed:
        if sum(scores[j] for j in slots) == optimum:
            return preferred
    chosen: list[int] = []
    spent = 0
    value = 0
    for j, pid in enumerate(ids):
        cost, gain = costs[j], scores[j]
        rest = budget - spent - cost
        if rest >= 0 and value + gain + rows[j + 1][rest] == optimum:
            chosen.append(pid)
            spent += cost
            value += gain
    return frozenset(chosen)


def approval_maximising_kernel(
    ids: Sequence[int],
    costs: Sequence[int],
    budget: int,
    levels: Sequence[Sequence[int]],
    policy: PriorityTieBreak | None = None,
) -> list[frozenset[int]]:
    """Approval maximisation at every point of the product of the per-slot ``levels``.

    Points come slot 0 fastest, as in :func:`greedy_approval_kernel`.  At
    each point a suffix knapsack gives the optimal score.  A ``policy``
    returns the first allocation it lists that lies in the shortlist, fits
    the budget and reaches that score.  Otherwise canonical tie-breaking
    prefers the maximiser whose characteristic vector is lexicographically
    largest, so it is built directly by forcing projects in, in ascending
    slot order, whenever an optimal completion still exists.  The knapsack
    answers those queries exactly, so the (possibly huge) maximiser family
    is never listed.

    The suffix row of slots j.. depends only on the scores of those slots,
    so the slots are walked depth first from the last one: each node of
    that tree above slot 0 builds one row, and each leaf runs the forward
    pass.  A unit box over m slots costs 2^m - 2 rows instead of m - 1 per
    point.  Rows stop at the total cost, a budget every set fits.
    """
    m = len(ids)
    if m == 0:
        return [frozenset()]
    budget = min(budget, sum(costs))
    listed = _listed(ids, costs, budget, policy)
    scores = [0] * m
    rows: list = [None] * m + [[0] * (budget + 1)]
    out: list[frozenset[int]] = []

    def walk(j: int) -> None:
        cost = costs[j]
        for gain in levels[j]:
            scores[j] = gain
            if j:
                rows[j] = _suffix_row(rows[j + 1], cost, gain)
                walk(j - 1)
            else:
                out.append(_maximiser(ids, costs, budget, scores, rows, listed))

    walk(m - 1)
    # Break the cycle through walk's own cell, so the rows are freed now and
    # not left to the cycle collector.
    del walk
    return out


def approval_maximising(
    instance: Instance,
    ballots: Sequence[Iterable[int]],
    policy: PriorityTieBreak | None = None,
) -> frozenset[int]:
    """Fund a feasible allocation with maximal total approval score."""
    point = [(s,) for s in approval_scores(instance, ballots).values()]
    return approval_maximising_kernel(*kernel_args(instance), point, policy)[0]


# The rules that read a ballot profile only through its approval score
# vector, each with the kernel that computes its outcome at every point of
# a grid of such vectors.  The searches call the kernels directly and read
# each outcome by its index in the result.
SCORE_KERNELS = (
    (greedy_approval, greedy_approval_kernel),
    (approval_maximising, approval_maximising_kernel),
)


def score_kernel(rule) -> Callable[..., list[frozenset[int]]]:
    """The grid kernel a rule reduces to.

    Sees through ``functools.wraps`` wrappers.  A ``functools.partial`` of
    a declared rule that binds keyword options only (a tie-break policy)
    reduces to the kernel with the same options bound.  The searches read
    a rule only through its kernel, so any other rule raises
    ``ValidationError``.
    """
    unwrapped = inspect.unwrap(rule)
    if isinstance(unwrapped, functools.partial) and not unwrapped.args:
        return functools.partial(score_kernel(unwrapped.func), **unwrapped.keywords)
    kernel = next((k for declared, k in SCORE_KERNELS if declared is unwrapped), None)
    if kernel is None:
        name = getattr(rule, "__qualname__", None) or repr(rule)
        raise ValidationError(
            f"allocation rule {name} has no score kernel, so no search can run it; "
            f"use allocation_rule() with one of {ALLOCATION_RULES}"
        )
    return kernel


def allocation_rule(name: str, policy: PriorityTieBreak | None = None):
    """Look up an allocation rule by identifier.

    Returns a callable ``rule(instance, ballots) -> frozenset`` suitable
    for the checkers in :mod:`pbstages.verification` and
    :mod:`pbstages.strategy`, which run its kernel through
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
