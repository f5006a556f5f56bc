"""Seeded random scenario generators for the property-check suites.

Every generator is a pure function of a :class:`random.Random` seed, so
suite verdicts are reproducible; the parameters that shaped a suite are
recorded in the verdicts it produces.
"""

from __future__ import annotations

from random import Random

from pbstages.core import Instance, Project


def random_instance(
    rng: Random,
    min_projects: int = 2,
    max_projects: int = 6,
    max_cost: int = 6,
    coord_range: int | None = None,
) -> Instance:
    """A random instance; budgets always cover the dearest project.

    With ``coord_range`` set, projects get integer grid coordinates in
    ``[0, coord_range]^2`` (repeats allowed, so co-located projects occur).
    """
    m = rng.randint(min_projects, max_projects)
    costs = [rng.randint(1, max_cost) for _ in range(m)]
    budget = rng.randint(max(costs), max(max(costs), sum(costs)))
    projects = []
    for i, cost in enumerate(costs):
        coords = None
        if coord_range is not None:
            coords = (float(rng.randint(0, coord_range)), float(rng.randint(0, coord_range)))
        projects.append(Project(i + 1, cost, coords))
    return Instance(projects, budget)


def random_subset(rng: Random, ids, allow_empty: bool = True) -> frozenset[int]:
    ids = list(ids)
    while True:
        chosen = frozenset(pid for pid in ids if rng.random() < 0.5)
        if chosen or allow_empty or not ids:
            return chosen


def random_proposals(rng: Random, instance: Instance, agents: int) -> tuple[frozenset[int], ...]:
    return tuple(random_subset(rng, instance.ids, allow_empty=False) for _ in range(agents))


def random_ballots(rng: Random, instance: Instance, agents: int) -> tuple[frozenset[int], ...]:
    return tuple(random_subset(rng, instance.ids) for _ in range(agents))


def random_ranking(rng: Random, instance: Instance) -> tuple[int, ...]:
    ranking = list(instance.ids)
    rng.shuffle(ranking)
    return tuple(ranking)


def random_feasible_set(rng: Random, instance: Instance) -> frozenset[int]:
    """A random feasible allocation, grown greedily in random order."""
    order = list(instance.ids)
    rng.shuffle(order)
    chosen: list[int] = []
    spent = 0
    for pid in order:
        if rng.random() < 0.6 and spent + instance.cost(pid) <= instance.budget:
            chosen.append(pid)
            spent += instance.cost(pid)
    return frozenset(chosen)


def shortlisting_cases(
    seed: int,
    count: int,
    coord_range: int | None = None,
    **instance_kwargs,
):
    """Random (instance, proposals) pairs for shortlisting-axiom suites, 1-4 agents each."""
    rng = Random(seed)
    for _ in range(count):
        instance = random_instance(rng, coord_range=coord_range, **instance_kwargs)
        agents = rng.randint(1, 4)
        yield instance, random_proposals(rng, instance, agents)


def allocation_cases(seed: int, count: int, axiom: str, **instance_kwargs):
    """Random cases shaped for :func:`pbstages.verification.check_allocation_axiom`.

    Each case has 1-4 agents, 3-4 for strong unanimity.
    """
    rng = Random(seed)
    for _ in range(count):
        instance = random_instance(rng, **instance_kwargs)
        if axiom == "exhaustive":
            agents = rng.randint(1, 4)
            yield instance, random_ballots(rng, instance, agents)
        elif axiom == "unanimous":
            agents = rng.randint(1, 4)
            yield instance, random_feasible_set(rng, instance), agents
        elif axiom == "strongly-unanimous":
            agents = rng.randint(3, 4)
            deviant = rng.randrange(agents)
            yield (
                instance,
                random_feasible_set(rng, instance),
                agents,
                deviant,
                random_subset(rng, instance.ids),
            )
        else:
            raise ValueError(f"unknown axiom {axiom!r}")


def sp_cases(seed: int, count: int, **instance_kwargs):
    """Random (instance, rankings, ballots) triples of 2-4 agents for manipulation search.

    The ballots play the role of the other agents' votes in fixed-others
    searches; the manipulator's entry is replaced during the search.
    """
    rng = Random(seed)
    for _ in range(count):
        instance = random_instance(rng, **instance_kwargs)
        agents = rng.randint(2, 4)
        rankings = tuple(random_ranking(rng, instance) for _ in range(agents))
        yield instance, rankings, random_ballots(rng, instance, agents)
