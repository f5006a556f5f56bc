"""Agent preferences: rankings, ideal sets, and allocation comparison models.

An agent's preference over individual projects is a strict ranking of the
whole universe.  Her ideal set on any available pool is the greedy-best
affordable subset w.r.t. that ranking, and it doubles as her truthful
ballot.  Two models lift the ideal set to preferences over allocations:
``"overlap"`` counts the projects an allocation shares with the ideal set,
``"cost"`` sums their costs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from pbstages.core import Instance, ValidationError, greedy_select

MODELS = ("overlap", "cost")


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValidationError(f"unknown preference model {model!r}; expected one of {MODELS}")
    return model


def check_ranking(instance: Instance, ranking: Sequence[int]) -> tuple[int, ...]:
    """Validate that ``ranking`` is a permutation of the instance's ids."""
    ranking = tuple(ranking)
    if sorted(ranking) != sorted(instance.ids):
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
    available pool.
    """
    if available is None:
        available = frozenset(ranking)
    else:
        available = instance.check_subset(available, "available set")
    restricted = [pid for pid in ranking if pid in available]
    if set(restricted) != available:
        raise ValidationError("ranking does not cover the available project set")
    return greedy_select(instance, available, restricted)


def allocation_value(
    model: str, ideal: frozenset[int], allocation: Iterable[int], instance: Instance
) -> int:
    """Scalar worth of an allocation: |A ∩ ideal| or c(A ∩ ideal)."""
    check_model(model)
    shared = frozenset(allocation) & ideal
    if model == "overlap":
        return len(shared)
    return instance.total_cost(shared)


def best_allocations(
    model: str,
    ideal: frozenset[int],
    family: Iterable[frozenset[int]],
    instance: Instance,
) -> list[frozenset[int]]:
    """The undominated members of a family of allocations.

    Since the preference is a total preorder this is the argmax set of
    :func:`allocation_value`; the result is nonempty and returned in
    canonical order (sorted id tuples).
    """
    family = {frozenset(a) for a in family}
    if not family:
        raise ValidationError("cannot pick best allocations from an empty family")
    best = max(allocation_value(model, ideal, a, instance) for a in family)
    chosen = [a for a in family if allocation_value(model, ideal, a, instance) == best]
    return sorted(chosen, key=lambda a: tuple(sorted(a)))

