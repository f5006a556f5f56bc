"""Agent preferences: rankings, ideal sets, and the value of an allocation.

An agent's preference over individual projects is a strict ranking of the
whole universe.  Her ideal set on any available pool is the greedy-best
affordable subset w.r.t. that ranking, and it doubles as her truthful
ballot.  Two models lift the ideal set to preferences over allocations:
``"overlap"`` counts the projects an allocation shares with the ideal set,
``"cost"`` sums their costs.

This module is the one place that turns a ranking into an ideal set
(:func:`ideal_set`) and an ideal set into a value (:func:`valuation`).
A search checks the model once when it builds the value function of an
ideal set, then calls that plain function in its loops.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from pbstages.core import NOT_AN_ORDER, Instance, ValidationError, greedy_scan, greedy_select

MODELS = ("overlap", "cost")


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValidationError(f"unknown preference model {model!r}; expected one of {MODELS}")
    return model


def check_ranking(instance: Instance, ranking: Sequence[int]) -> tuple[int, ...]:
    """Validate that ``ranking`` is a permutation of the instance's ids."""
    ranking = tuple(ranking)
    if len(ranking) != len(instance) or set(ranking) != set(instance.ids):
        raise ValidationError(
            f"ranking {list(ranking)} is not a permutation of the project ids"
        )
    return ranking


def ideal_set(
    instance: Instance,
    ranking: Sequence[int],
    available: Iterable[int] | None = None,
) -> frozenset[int]:
    """Greedy-best affordable subset of ``available`` w.r.t. ``ranking``.

    ``available`` defaults to all projects the ranking covers.  The ranking
    need not be a full permutation of the universe, but it must cover the
    available pool; :func:`~pbstages.core.greedy_select` checks that, and
    that the pool lies in the instance.
    """
    pool = frozenset(ranking if available is None else available)
    return greedy_select(instance, pool, [pid for pid in ranking if pid in pool])


def truthful_ballots(
    instance: Instance, rankings: Iterable[Sequence[int]]
) -> tuple[frozenset[int], ...]:
    """Each agent's ideal set on ``instance``: the truthful ballot profile.

    A ranking may leave projects of the instance out or name projects
    outside it, even more than once; each agent chooses among the projects
    she ranks that the instance holds, which she may rank only once.  Each
    ranking is scanned as it is, with no filtered copy.
    """
    costs = instance.costs
    ballots = []
    for ranking in rankings:
        if len(set(ranking)) != len(ranking):
            # Only a repeat of an id of the instance is refused.
            order = [pid for pid in ranking if pid in costs]
            if len(set(order)) != len(order):
                raise ValidationError(NOT_AN_ORDER)
        ballots.append(greedy_scan(instance, ranking))
    return tuple(ballots)


def valuation(
    model: str, ideal: frozenset[int], instance: Instance
) -> Callable[[Iterable[int]], int]:
    """The value function of an agent with ideal set ``ideal`` under ``model``.

    It maps an allocation A to |A ∩ ideal| (``"overlap"``) or c(A ∩ ideal)
    (``"cost"``).  Each ideal project's worth (1 or its cost) is looked up
    once here, so the returned function does no checking of its own.
    """
    check_model(model)
    if model == "overlap":
        worth = dict.fromkeys(ideal, 1)
    else:
        worth = {pid: instance.cost(pid) for pid in ideal}
    # Bound once: searches call the value function in their inner loops.
    shared, worth_of = ideal.intersection, worth.__getitem__
    return lambda allocation: sum(map(worth_of, shared(allocation)))
