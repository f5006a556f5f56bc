"""Projects, budget instances, greedy selection, and canonical tie-breaking.

Everything downstream is built from three deterministic primitives defined
here: the greedy selection scan, and the canonical tie-breaking rule in its
three overloads (single project, weak order, family of project sets).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An exact computation would exceed its configured cap.

    Raised instead of silently approximating: downstream verdicts must be
    exact, so oversized inputs fail loudly.
    """


@dataclass(frozen=True)
class Caps:
    """Size limits, each an ``int`` >= 0, for the exact (exponential) searches.

    Each search named below in quotes charges one cap through :func:`check_cap`
    and is refused with "<search> needs <size> <unit>, exceeding the cap of <cap>".

    Attributes
    ----------
    subset_search : int
        Union of proposals for "equal-representation search".  On a 2-vCPU
        Xeon, the slowest of 30 seeded unions of 20 with 2-6 agents, k = 1
        and a budget near half the total cost takes 0.02-0.04 s.
    partitions : int
        The m proposed projects of "median-set search", which tries 2^m median
        sets.  It does not bound the valid partitions that ``k_median_outcome``
        lists at the least radius, up to Bell(m); ``k_median`` lists none.
    domination : int
        Union of proposals for "domination search".
    ballots : int
        Shortlist size of each anticipated side of a first-stage search, for
        "best-response enumeration", and each agent's deviation pool in a
        first-stage run for "deviation enumeration".
    profiles : int
        Full ballot profiles, ``grid.charge(m, n)`` = (2^m)^n for m projects
        and n agents, also where a search reads the score grid: the
        second-stage "full profile enumeration" and ``auto``'s fit test; each
        distinct (shortlist, agent) side, summed over one manipulation
        check or a whole run, for "first-stage search"; each side on its
        own for "nomination class side"; and the whole class,
        (2^max_projects)^max_agents, for "unit-class check".  The
        "fixed-others search" charges the ballots it tries instead,
        |agents| x 2^m, or |agents| x |deviations| with a deviation list.
    maximisers : int
        Bounds nothing: priority tie-breaking reads the optimum off the
        suffix knapsack and lists no maximisers.  The field stays because
        every report records the caps and pinned report bytes include it.
    """

    subset_search: int = 20
    partitions: int = 12
    domination: int = 15
    ballots: int = 12
    profiles: int = 2**20
    maximisers: int = 15

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if type(value) is not int or value < 0:
                raise ValidationError(f"cap {name} must be an integer >= 0, got {value!r}")


def check_cap(need: int, cap: int, search: str, unit: str) -> None:
    """Refuse a search that needs more than its cap: the one raiser of ResourceLimitError."""
    if need > cap:
        raise ResourceLimitError(f"{search} needs {need} {unit}, exceeding the cap of {cap}")


def is_number(value) -> bool:
    """A float, or an int that fits one; ``bool`` is an int subclass but no number here."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    )


@dataclass(frozen=True, order=True)
class Project:
    """A project with a positive integer index and cost.

    The index doubles as the tie-breaking priority: lower index wins every
    tie in the whole pipeline.  Coordinates are optional and only used by
    metric-based shortlisting.
    """

    index: int
    cost: int
    coords: tuple[float, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if type(self.index) is not int or type(self.cost) is not int:
            raise ValidationError(
                f"project index and cost must be integers, got {self.index!r} and {self.cost!r}"
            )
        if self.index < 1:
            raise ValidationError(f"project index must be >= 1, got {self.index}")
        if self.cost < 1:
            raise ValidationError(
                f"project p{self.index} has cost {self.cost}; costs must be >= 1"
            )
        if self.coords is not None:
            if isinstance(self.coords, (str, bytes)) or not (
                isinstance(self.coords, Sequence) and all(map(is_number, self.coords))
            ):
                raise ValidationError(
                    f"project p{self.index} coordinates must be a sequence of numbers, "
                    f"got {self.coords!r}"
                )
            coords = tuple(map(float, self.coords))
            if not all(map(math.isfinite, coords)):
                raise ValidationError(
                    f"project p{self.index} has non-finite coordinates {list(coords)}"
                )
            object.__setattr__(self, "coords", coords)


class Instance:
    """A set of projects with integer costs and a budget limit.

    Used both for the proposal stage (the full project universe) and for
    the voting stage (a shortlist); :meth:`restrict` derives the latter
    from the former.  ``projects``, ``ids`` and the read-only ``costs``
    table (id -> cost) are built once, each in ascending id order.
    """

    def __init__(self, projects: Iterable[Project], budget: int):
        projects = sorted(projects, key=lambda p: p.index)
        if type(budget) is not int:
            raise ValidationError(f"budget must be an integer, got {budget!r}")
        if budget < 1:
            raise ValidationError(f"budget must be >= 1, got {budget}")
        costs: dict[int, int] = {}
        for project in projects:
            if project.index in costs:
                raise ValidationError(f"duplicate project index {project.index}")
            if project.cost > budget:
                raise ValidationError(
                    f"project p{project.index} costs {project.cost}, "
                    f"exceeding the budget {budget}"
                )
            costs[project.index] = project.cost
        self.budget = budget
        self.projects = tuple(projects)
        self.costs = costs
        self.ids = tuple(costs)

    def __contains__(self, pid: int) -> bool:
        return pid in self.costs

    def __len__(self) -> int:
        return len(self.ids)

    def cost(self, pid: int) -> int:
        try:
            return self.costs[pid]
        except KeyError:
            raise ValidationError(f"unknown project id {pid}") from None

    def total_cost(self, pids: Iterable[int]) -> int:
        """Summed cost of a set of project ids; empty sets cost 0."""
        return sum(self.cost(pid) for pid in set(pids))

    def restrict(self, pids: Iterable[int]) -> "Instance":
        """The sub-instance on ``pids``, keeping the same budget."""
        pids = set(pids)
        for pid in pids:
            if pid not in self.costs:
                raise ValidationError(f"unknown project id {pid}")
        return Instance([p for p in self.projects if p.index in pids], self.budget)

    def check_subset(self, pids: Iterable[int], what: str = "set") -> frozenset[int]:
        pids = frozenset(pids)
        unknown = [pid for pid in pids if pid not in self.costs]
        if unknown:
            raise ValidationError(f"{what} contains unknown project ids {sorted(unknown)}")
        return pids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.budget == other.budget and self.projects == other.projects

    def __repr__(self) -> str:
        return f"Instance({len(self.ids)} projects, budget={self.budget})"


NOT_AN_ORDER = "order must cover exactly the candidate set, no repeats"


def greedy_select(
    instance: Instance,
    subset: Iterable[int],
    order: Sequence[int],
) -> frozenset[int]:
    """Scan ``subset`` in the given order, taking each project that still fits.

    A project is selected iff adding it keeps the running total within the
    budget; skipped projects are never revisited.

    Parameters
    ----------
    instance : Instance
        Supplies the costs and the budget.
    subset : iterable of int
        The project ids to select from.
    order : sequence of int
        A strict order covering exactly ``subset``.
    """
    subset = instance.check_subset(subset, "selection set")
    # With equal lengths, equal sets rule out repeats (pigeonhole).
    if len(order) != len(subset) or set(order) != subset:
        raise ValidationError(NOT_AN_ORDER)
    return greedy_scan(instance, order)


def greedy_scan(instance: Instance, order: Iterable[int]) -> frozenset[int]:
    """The scan of :func:`greedy_select`, unchecked; the one greedy scan.

    Ids in ``order`` that ``instance`` lacks are skipped.  The others must
    be distinct; callers that have not checked that go through
    :func:`greedy_select`.
    """
    cost_of = instance.costs.get
    left = instance.budget
    selected = []
    for pid in order:
        cost = cost_of(pid)
        if cost is not None and cost <= left:
            selected.append(pid)
            left -= cost
    return frozenset(selected)


def tiebreak_project(pids: Iterable[int]) -> int:
    """Canonical tie-breaking on projects: the member with minimal index."""
    pids = list(pids)
    if not pids:
        raise ValidationError("cannot tie-break an empty set of projects")
    return min(pids)


def tiebreak_order(
    classes: Sequence[Iterable[int]], universe: Iterable[int] | None = None
) -> tuple[int, ...]:
    """Refine ranked indifference classes into a strict order.

    Classes keep their rank; within each class projects are ordered by
    ascending index.  If ``universe`` is given, the classes must partition
    exactly that set.
    """
    result: list[int] = []
    seen: set[int] = set()
    for cls in classes:
        members = sorted(cls)
        for pid in members:
            if pid in seen:
                raise ValidationError(f"project {pid} appears in more than one class")
            seen.add(pid)
        result.extend(members)
    if universe is not None:
        universe = set(universe)
        if seen != universe:
            missing = sorted(universe - seen)
            extra = sorted(seen - universe)
            raise ValidationError(
                f"classes do not partition the project set "
                f"(missing {missing}, extraneous {extra})"
            )
    return tuple(result)


def tiebreak_family(family: Iterable[frozenset[int]]) -> frozenset[int]:
    """Canonical tie-breaking on a family of project sets.

    Selects the unique member such that, for every other member, the
    lowest-index project on which the two differ belongs to the selected
    one.  Equivalently: the member whose characteristic sequence over the
    family's union, read in ascending index order with present > absent,
    is lexicographically maximal.
    """
    members = {frozenset(s) for s in family}
    if not members:
        raise ValidationError("cannot tie-break an empty family of sets")
    union = sorted(set().union(*members))
    return max(members, key=lambda s: tuple(pid in s for pid in union))


def subsets_ascending(pids: Iterable[int]) -> list[frozenset[int]]:
    """All subsets of ``pids`` in the canonical enumeration order.

    Bit ``j`` of the mask toggles the ``j``-th smallest id, and masks run
    from 0 upward, so the order is deterministic and starts with the empty
    set.  Every exhaustive search in the package reports the first hit in
    this order.
    """
    out = [frozenset()]
    for pid in sorted(set(pids)):
        # The sets with this id's bit set follow, in the same order, those without it.
        out += [subset | {pid} for subset in out]
    return out
