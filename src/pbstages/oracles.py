"""Brute-force oracles for differential testing of the optimised rules.

Each oracle recomputes a rule's output by the most direct route available
(flat subset scans, flat partition scans, or recomposition from the core
primitives) without any of the pruning or forcing tricks the production
implementations use.  They exist to be slow and obviously correct.
``repaired_value`` does the same for the approximate strategyproofness
bar, without the valuation code the search uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from pbstages.core import (
    Instance,
    ResourceLimitError,
    greedy_select,
    subsets_ascending,
    tiebreak_family,
    tiebreak_order,
)
from pbstages.allocation import PriorityTieBreak, approval_scores
from pbstages.shortlisting import (
    Metric,
    VoronoiPartition,
    check_proposals,
    geometric_median,
    proposal_union,
    representation_score,
)


def equal_representation_oracle(
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    k: int,
    cap: int = 16,
) -> frozenset[int]:
    """Scan every affordable subset of the proposal union, keep the score argmax."""
    proposals = check_proposals(instance, proposals)
    union = proposal_union(proposals)
    if not union:
        return frozenset()
    if len(union) > cap:
        raise ResourceLimitError(f"oracle subset scan over {len(union)} projects refused")
    limit = k * instance.budget
    best_score = None
    best: list[frozenset[int]] = []
    for subset in subsets_ascending(union):
        if instance.total_cost(subset) > limit:
            continue
        score = representation_score(subset, proposals)
        if best_score is None or score > best_score:
            best_score = score
            best = [subset]
        elif score == best_score:
            best.append(subset)
    return tiebreak_family(best)


def _flat_partitions(items: list[int]):
    """Set partitions via restricted-growth strings (no recursion, no pruning)."""
    n = len(items)
    if n == 0:
        yield []
        return
    labels = [0] * n
    # bounds[j] = 1 + max(labels[:j]); labels[j] may range over 0..bounds[j]
    bounds = [1] * n
    while True:
        blocks: dict[int, list[int]] = {}
        for item, label in zip(items, labels):
            blocks.setdefault(label, []).append(item)
        yield [blocks[label] for label in sorted(blocks)]
        j = n - 1
        while j > 0 and labels[j] == bounds[j]:
            j -= 1
        if j == 0:
            return
        labels[j] += 1
        grown = max(bounds[j] - 1, labels[j]) + 1
        for k in range(j + 1, n):
            labels[k] = 0
            bounds[k] = grown


def k_median_oracle(
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    k: int,
    metric: Metric,
) -> frozenset[int]:
    """Flat scan of every set partition of the proposal union.

    Computes, for every partition that satisfies the median-cost and
    closest-median conditions, the radius it requires; the minimal radius
    over all such partitions is the rule's radius, and the shortlist is the
    canonical tie-break over the median sets of the partitions achieving it.
    """
    proposals = check_proposals(instance, proposals)
    union = sorted(proposal_union(proposals))
    if not union:
        return frozenset()
    if len(union) > 9:
        raise ResourceLimitError(f"oracle partition scan over {len(union)} projects refused")
    valid: list[tuple[float, frozenset[int]]] = []
    for blocks in _flat_partitions(union):
        clusters = tuple(frozenset(b) for b in blocks)
        medians = tuple(geometric_median(c, metric) for c in clusters)
        partition = VoronoiPartition(clusters, medians)
        radius = partition.radius(metric)
        if partition.is_valid(instance, k, radius, metric):
            valid.append((radius, partition.median_set))
    if not valid:
        return frozenset()
    best = min(radius for radius, _ in valid)
    return tiebreak_family([medians for radius, medians in valid if radius == best])


def approval_maximising_oracle(
    instance: Instance,
    ballots: Sequence[Iterable[int]],
    policy: PriorityTieBreak | None = None,
) -> frozenset[int]:
    """Scan every feasible allocation and keep the argmax set.

    The first allocation ``policy`` lists in that set wins; otherwise the
    canonical tie-break over the set decides.
    """
    if len(instance) > 16:
        raise ResourceLimitError(f"oracle allocation scan over {len(instance)} projects refused")
    scores = approval_scores(instance, ballots)
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
    listed = [] if policy is None else [a for a in policy.allocations if a in chosen]
    return listed[0] if listed else tiebreak_family(chosen)


def greedy_approval_oracle(
    instance: Instance, ballots: Sequence[Iterable[int]]
) -> frozenset[int]:
    """Recompose greedy approval from the core primitives.

    Builds the score indifference classes explicitly, refines them with the
    canonical order tie-break, and hands the result to the greedy scan.
    """
    scores = approval_scores(instance, ballots)
    distinct = sorted(set(scores.values()), reverse=True)
    classes = [[pid for pid in instance.ids if scores[pid] == s] for s in distinct]
    order = tiebreak_order(classes, instance.ids)
    return greedy_select(instance, instance.ids, order)


def maximum_score_oracle(instance: Instance, ballots: Sequence[Iterable[int]]) -> int:
    """Best achievable total approval score over all feasible allocations."""
    scores = approval_scores(instance, ballots)
    best = 0
    for subset in subsets_ascending(instance.ids):
        if instance.total_cost(subset) <= instance.budget:
            best = max(best, sum(scores[pid] for pid in subset))
    return best


def repaired_value(
    model: str, ideal: frozenset[int], outcome: frozenset[int], instance: Instance
) -> int:
    """Best value of the outcome augmented with one arbitrary project, by a plain scan.

    An allocation is worth the number (``"overlap"``) or the total cost
    (``"cost"``) of the ideal projects it holds.
    """
    worth = {"overlap": len, "cost": instance.total_cost}[model]
    candidates = [outcome, *(outcome | {pid} for pid in instance.ids)]
    return max(worth(ideal & allocation) for allocation in candidates)
