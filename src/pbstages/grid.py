"""The score grid that both stages read outcomes from.

Both stages ask one question: what is the rule's outcome at s + 1_B, for
the other agents' score vector s and an agent's ballot B?  A score kernel
answers it at every point t of a grid of per-slot levels, the outcome at
t sitting at index sum(t_j * side^j), slot 0 fastest, so each search reads
every outcome by index from the one kernel result it makes.  This module
is the one place that knows that layout.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from pbstages.core import Instance
from pbstages.allocation import kernel_args

ScoreKernel = Callable[..., list[frozenset[int]]]


def score_grid(kernel: ScoreKernel, instance: Instance, n: int) -> list[frozenset[int]]:
    """The outcome at every point of {0..n}^m (``n`` ballots' scores), one object per outcome."""
    points = kernel(*kernel_args(instance), [range(n + 1)] * len(instance.ids))
    return list(map({outcome: outcome for outcome in points}.__getitem__, points))


def charge(m: int, n: int) -> int:
    """What a grid search over ``n`` ballots on ``m`` projects charges ``caps.profiles``."""
    return (2**m) ** n


def offset(ids: Sequence[int], ballot: frozenset[int], side: int) -> int:
    """How far adding ``ballot`` moves an index on a grid of ``side`` levels per slot.

    On :func:`score_grid` of ``n`` ballots ``side`` is n + 1.  On a unit
    box (``side`` 2) the offset is the ballot's position in
    :func:`~pbstages.core.subsets_ascending` order.
    """
    return sum(side**j for j, pid in enumerate(ids) if pid in ballot)


def box_maxima(
    grid: list[frozenset[int]], key: Callable[[frozenset[int]], int], n: int, m: int
) -> Iterator[tuple[int, int, int]]:
    """Each score vector s of {0..n-1}^m: its grid index, first profile and box maximum.

    ``grid`` is :func:`score_grid` of ``n`` ballots on ``m`` projects, and
    s the score vector of the n - 1 others.  ``key`` is called once per
    distinct outcome, and the box maximum is the largest key over
    s + {0,1}^m, the points an agent's ballot moves s to.  A box is a
    product of per-axis intervals, so one pairwise-max pass per axis turns
    the keys into box maxima (van Herk 1992; Gil & Werman 1993), each pass
    one shifted max over the whole list.  Only entries with a coordinate
    at n take values from across a row boundary, and only such entries
    read them, so every s is exact.

    The first profile summing to s, in product order of
    :func:`~pbstages.core.subsets_ascending` masks, is a staircase:
    project j sits in the last s_j ballots, so each earlier ballot, which
    weighs more in the order, is as small as it can be.  Its index among
    the (2^m)^(n-1) profiles is therefore sum(level(s_j) << j), with
    level(v) = sum_{k<v} 2^(m k).
    """
    side = n + 1
    keyed = {outcome: key(outcome) for outcome in set(grid)}
    keys = list(map(keyed.__getitem__, grid))
    points, firsts = [0], [0]
    for j in range(m):
        stride, levels = side**j, [((1 << m * v) - 1) // ((1 << m) - 1) << j for v in range(n)]
        keys[:-stride] = map(max, keys[:-stride], keys[stride:])
        points = [p + v * stride for v in range(n) for p in points]
        firsts = [f + level for level in levels for f in firsts]
    return zip(points, firsts, map(keys.__getitem__, points))


def profile_at(index: int, n: int, every: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The profile of ``n`` ballots at ``index`` in product order of the ballots ``every``."""
    m = len(every).bit_length() - 1
    return [every[index >> m * i & len(every) - 1] for i in reversed(range(n))]


def ballot_box(
    kernel: ScoreKernel, instance: Instance, scores: dict[int, int], own: frozenset[int],
    ballots: Sequence[frozenset[int]] | None = None,
) -> Sequence[frozenset[int]] | Iterator[frozenset[int]]:
    """An agent's outcome for each ballot while the others keep theirs.

    ``scores`` are the profile's :func:`~pbstages.allocation.approval_scores`
    and ``own`` the agent's ballot in it.  Without ``ballots``: every ballot's
    outcome, in ``subsets_ascending`` order, from one kernel call on the unit box
    above the others' score vector; else one lazy point call per ballot.
    """
    others = [s - (pid in own) for pid, s in scores.items()]
    args = kernel_args(instance)
    if ballots is None:
        return kernel(*args, [(s, s + 1) for s in others])
    return (
        kernel(*args, [(s + (pid in ballot),) for pid, s in zip(instance.ids, others)])[0]
        for ballot in ballots
    )
