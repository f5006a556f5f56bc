"""Brute-force oracles for differential testing of the optimised rules.

Each oracle recomputes a rule's output by the most direct route available
(flat subset scans, flat partition scans, or recomposition from the core
primitives) without any of the pruning or forcing tricks the production
implementations use.  They exist to be slow and obviously correct.
``repaired_value`` does the same for the approximate strategyproofness
bar, without the valuation code the search uses.  The last four
references redo the strategyproofness searches by calling a rule on
every whole profile, with no score grid, so any rule fits them, the
oracles above included; only ``fssp_oracle`` memoises, one side per
(shortlist, agent) within a call.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Sequence

from pbstages.core import (
    Instance,
    check_cap,
    greedy_select,
    subsets_ascending,
    tiebreak_family,
    tiebreak_order,
)
from pbstages.allocation import PriorityTieBreak, approval_scores
from pbstages.shortlisting import (
    Metric,
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
    check_cap(len(union), cap, "oracle subset scan", "projects")
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


def partition_radius(
    clusters: Sequence[Iterable[int]], medians: Sequence[int], metric: Metric
) -> float:
    """The largest distance from a project to its own cluster's median."""
    return max(
        (metric.distance(p, m) for cluster, m in zip(clusters, medians) for p in cluster),
        default=0.0,
    )


def partition_is_valid(
    clusters: Sequence[Iterable[int]],
    medians: Sequence[int],
    instance: Instance,
    k: int,
    metric: Metric,
) -> bool:
    """Whether the medians cost at most ``k * budget`` in total and every
    project sits with one of its closest medians.

    A valid partition's radius is its :func:`partition_radius`.
    """
    if instance.total_cost(medians) > k * instance.budget:
        return False
    return all(
        metric.distance(p, median) <= min(metric.distance(p, other) for other in medians)
        for cluster, median in zip(clusters, medians)
        for p in cluster
    )


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
    check_cap(len(union), 9, "oracle partition scan", "projects")
    valid: list[tuple[float, frozenset[int]]] = []
    for blocks in _flat_partitions(union):
        clusters = tuple(frozenset(b) for b in blocks)
        medians = tuple(geometric_median(c, metric) for c in clusters)
        if partition_is_valid(clusters, medians, instance, k, metric):
            valid.append((partition_radius(clusters, medians, metric), frozenset(medians)))
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
    check_cap(len(instance), 16, "oracle allocation scan", "projects")
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


def best_response_oracle(
    rule: Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]],
    instance: Instance,
    ballots: Sequence[frozenset[int]],
    agent: int,
    ideal: frozenset[int],
    model: str,
) -> tuple[frozenset[int], frozenset[int]]:
    """The agent's best outcome, canonically tie-broken, and the canonical ballot reaching it.

    The rule is called on every full profile, each ballot in the agent's
    slot.  An outcome is worth the number (``"overlap"``) or the total cost
    (``"cost"``) of the ideal projects it holds.
    """
    worth = {"overlap": len, "cost": instance.total_cost}[model]
    reached = {
        ballot: rule(instance, tuple(ballot if i == agent else b for i, b in enumerate(ballots)))
        for ballot in subsets_ascending(instance.ids)
    }
    top = max(worth(ideal & outcome) for outcome in reached.values())
    target = tiebreak_family(o for o in reached.values() if worth(ideal & o) == top)
    return tiebreak_family(b for b, o in reached.items() if o == target), target


def fstar_outcomes_oracle(
    rule: Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]],
    instance: Instance,
    agents: int,
    agent: int,
    ideal: frozenset[int],
    model: str,
) -> dict[frozenset[int], tuple[frozenset[int], ...]]:
    """Every best-response outcome over the others' profiles, each with its first full profile.

    The others' profiles run in product order, the agent's slot holding
    her ideal set, and :func:`best_response_oracle` answers each.
    """
    out: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    for rest in itertools.product(subsets_ascending(instance.ids), repeat=agents - 1):
        ballots = rest[:agent] + (ideal,) + rest[agent:]
        _, outcome = best_response_oracle(rule, instance, ballots, agent, ideal, model)
        out.setdefault(outcome, ballots)
    return out


def fssp_oracle(
    instance: Instance,
    shortlist_rule: Callable[[Instance, Sequence[frozenset[int]]], Iterable[int]],
    rule: Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]],
    rankings: Sequence[Sequence[int]],
    awareness: Sequence[Iterable[int]],
    model: str,
    variant: str,
    mode: str,
) -> tuple[dict | None, int]:
    """The first successful proposal deviation, by a plain scan, and the count tried.

    The baseline profile has every agent propose the ideal set of her
    awareness set.  Each agent in turn replaces her proposal with her
    ideal set on her pool (her awareness set, plus every proposal when
    ``variant`` is ``"unrestricted"``) and tries every other subset of
    that pool, in :func:`~pbstages.core.subsets_ascending` order.  On each of the two
    shortlists she best-responds: to everyone's ideal sets on it when
    ``mode`` is ``"anticipative"``, else to every profile of the others
    (:func:`fstar_outcomes_oracle`).  With values taken under her ideal
    set on the union of both shortlists, a deviation succeeds when its
    best outcome beats the baseline's worst, and in ``"pessimistic"`` mode
    when, besides, no deviation outcome is worth less than any baseline
    outcome.  Returns the witness in the search's format, or ``None``;
    each (shortlist, agent) side is computed once per call.
    """
    worth = {"overlap": len, "cost": instance.total_cost}[model]

    def top(ranking: Sequence[int], pool: frozenset[int]) -> frozenset[int]:
        return greedy_select(instance, pool, [pid for pid in ranking if pid in pool])

    proposals = [top(r, frozenset(a)) for r, a in zip(rankings, awareness)]

    @functools.cache
    def side(shortlist: frozenset[int], agent: int) -> dict:
        restricted = instance.restrict(shortlist)
        ideal = top(rankings[agent], shortlist)
        if mode != "anticipative":
            return fstar_outcomes_oracle(rule, restricted, len(rankings), agent, ideal, model)
        profile = tuple(top(r, shortlist) for r in rankings)
        return {best_response_oracle(rule, restricted, profile, agent, ideal, model)[1]: profile}

    checked = 0
    for agent, ranking in enumerate(rankings):
        pool = frozenset(awareness[agent])
        if variant == "unrestricted":
            pool = pool.union(*proposals)
        truthful = top(ranking, pool)
        baseline = proposals[:agent] + [truthful] + proposals[agent + 1 :]
        base_shortlist = frozenset(shortlist_rule(instance, baseline))
        for deviation in subsets_ascending(pool):
            if deviation == truthful:
                continue
            checked += 1
            deviated = baseline[:agent] + [deviation] + baseline[agent + 1 :]
            dev_shortlist = frozenset(shortlist_rule(instance, deviated))
            ideal = top(ranking, base_shortlist | dev_shortlist)
            base, dev = side(base_shortlist, agent), side(dev_shortlist, agent)
            low = min(base, key=lambda outcome: worth(ideal & outcome))
            high = max(dev, key=lambda outcome: worth(ideal & outcome))
            if worth(ideal & high) <= worth(ideal & low):
                continue
            if mode == "pessimistic" and any(
                worth(ideal & d) < worth(ideal & b) for b in base for d in dev
            ):
                continue
            witness = {
                "kind": "first-stage-manipulation",
                "agent": agent + 1,
                "mode": mode,
                "model": model,
                "deviation": sorted(deviation),
                "baseline_proposal": sorted(truthful),
                "baseline_shortlist": sorted(base_shortlist),
                "deviation_shortlist": sorted(dev_shortlist),
                "comparison_ideal": sorted(ideal),
                "baseline_profile": [sorted(b) for b in base[low]],
                "deviation_profile": [sorted(b) for b in dev[high]],
                "baseline_outcome": sorted(low),
                "deviation_outcome": sorted(high),
                "baseline_value": worth(ideal & low),
                "deviation_value": worth(ideal & high),
                "variant": variant,
                "truthful_proposal": sorted(truthful),
            }
            return witness, checked
    return None, checked


def second_stage_sp_oracle(
    rule: Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]],
    instance: Instance,
    ideals: Sequence[frozenset[int]],
    model: str,
    approximate: bool = False,
    ballots: Sequence[Iterable[int]] | None = None,
    agents: Sequence[int] | None = None,
) -> tuple[dict | None, int]:
    """The first ballot that beats voting truthfully, by a plain scan, and the count tried.

    ``ideals`` holds each agent's ideal set, and ``agents`` the indices
    that may manipulate, in the order tried (every agent by default), as
    the search's ``agents``.  Without ``ballots`` the
    scan is the ``full`` search: every profile in product order of
    :func:`~pbstages.core.subsets_ascending`, and for each every agent in
    turn, trying her ballot in the profile.  With ``ballots`` it is the
    fixed-others search: each agent in turn tries every ballot, in that
    order, in her slot of ``ballots``.  A ballot manipulates when its
    outcome is worth more to the agent than the outcome with her ideal set
    in her slot, or than its :func:`repaired_value` when ``approximate``.
    Returns the witness in the search's format, or ``None``.
    """
    ideals = [frozenset(ideal) for ideal in ideals]
    worth = {"overlap": len, "cost": instance.total_cost}[model]
    pool = range(len(ideals)) if agents is None else agents
    if ballots is None:
        cases = (
            (agent, profile, (profile[agent],))
            for profile in itertools.product(subsets_ascending(instance.ids), repeat=len(ideals))
            for agent in pool
        )
    else:
        fixed = tuple(frozenset(ballot) for ballot in ballots)
        cases = ((agent, fixed, subsets_ascending(instance.ids)) for agent in pool)
    payload = {"budget": instance.budget, "costs": {str(i): c for i, c in instance.costs.items()}}
    coords = {str(p.index): list(p.coords) for p in instance.projects if p.coords is not None}
    if coords:
        payload["coords"] = coords
    checked = 0
    for agent, profile, tried in cases:
        ideal = ideals[agent]
        truthful = rule(instance, profile[:agent] + (ideal,) + profile[agent + 1 :])
        repaired = repaired_value(model, ideal, truthful, instance)
        bar = repaired if approximate else worth(ideal & truthful)
        for ballot in tried:
            checked += 1
            deviated = profile[:agent] + (ballot,) + profile[agent + 1 :]
            manipulated = rule(instance, deviated)
            if worth(ideal & manipulated) > bar:
                witness = {
                    "kind": "second-stage-manipulation",
                    "instance": payload,
                    "agent": agent + 1,
                    "model": model,
                    "approximate": approximate,
                    "profile": [sorted(b) for b in deviated],
                    "ideal": sorted(ideal),
                    "truthful_outcome": sorted(truthful),
                    "manipulated_outcome": sorted(manipulated),
                    "truthful_value": worth(ideal & truthful),
                    "repaired_value": repaired,
                    "manipulated_value": worth(ideal & manipulated),
                }
                return witness, checked
    return None, checked
