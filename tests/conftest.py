import math

import pytest

from pbstages.allocation import greedy_approval
from pbstages.core import Instance, Project


def fs(*pids):
    return frozenset(pids)


def unit_instance(m, budget):
    return Instance([Project(i, 1) for i in range(1, m + 1)], budget)


def contrarian(instance, ballots):
    """Greedy approval that counts the first ballot against its own projects.

    Neither anonymous nor strategyproof: the first agent gains by hiding
    her ideal projects.  It has no score kernel, so no search takes it.
    """
    return greedy_approval(instance, (frozenset(instance.ids) - ballots[0], *ballots[1:]))


def make_instance(costs, budget, coords=None):
    projects = []
    for i, cost in enumerate(costs, start=1):
        xy = None if coords is None else coords[i - 1]
        projects.append(Project(i, cost, xy))
    return Instance(projects, budget)


def ranking_from(prefix, m):
    return tuple(list(prefix) + [p for p in range(1, m + 1) if p not in prefix])


@pytest.fixture
def ten_project_instance():
    return unit_instance(10, 3)


@pytest.fixture
def triangle_coords():
    root3 = math.sqrt(3.0)
    return {
        1: (0.0, 1.0),
        2: (0.0, -1.0),
        3: (-root3, 0.0),
        4: (-1.0 / root3, 0.0),
        5: (4.0, 0.0),
        6: (4.0, 1.0),
        7: (4.0, -1.0),
    }
