"""Metamorphic relations: changes to the input that a rule must not notice.

A relation needs no oracle, so it runs at sizes that no flat oracle
reaches.  These run at the city scale of the ``cli-pipeline`` benchmark:
40-60 projects and 200-300 agents, each ranking the whole universe, who
vote on the whole instance or on a shortlist of about half of it.  The
relations checked:

- scaling every cost and the budget by 3 or by 7 changes no ballot and no
  allocation;
- duplicating every ballot changes no allocation, and duplicating every
  ranking duplicates every ballot;
- adding a constant to every project id shifts every ballot and every
  allocation by it.  Canonical tie-breaking reads ids, so only a shift
  that keeps their order is a relation; a permutation of the ids is not.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pbstages.allocation import approval_maximising, greedy_approval
from pbstages.core import Instance, Project
from pbstages.preferences import truthful_ballots
from pbstages.suites import random_instance, random_ranking

RULES = pytest.mark.parametrize(
    "rule", [greedy_approval, approval_maximising], ids=["greedy", "maximising"]
)
CITY = settings(max_examples=12, deadline=None)


def city(seed: int, shortlisted: bool):
    """A seeded city-scale instance, its agents' rankings and the voting base."""
    rng = Random(seed)
    instance = random_instance(rng, min_projects=40, max_projects=60, max_cost=20)
    rankings = [random_ranking(rng, instance) for _ in range(rng.randint(200, 300))]
    base = instance
    if shortlisted:
        base = instance.restrict(rng.sample(instance.ids, len(instance) // 2))
    return base, rankings


def scaled(instance: Instance, factor: int) -> Instance:
    projects = [Project(p.index, p.cost * factor) for p in instance.projects]
    return Instance(projects, instance.budget * factor)


def shifted(instance: Instance, shift: int) -> Instance:
    return Instance([Project(p.index + shift, p.cost) for p in instance.projects], instance.budget)


def shift_set(pids, shift: int) -> frozenset[int]:
    return frozenset(pid + shift for pid in pids)


cities = st.tuples(st.integers(0, 2**32 - 1), st.booleans())


class TestTruthfulBallots:
    @CITY
    @given(cities, st.sampled_from([3, 7]), st.integers(1, 1000))
    def test_relations(self, case, factor, shift):
        base, rankings = city(*case)
        ballots = truthful_ballots(base, rankings)
        assert truthful_ballots(scaled(base, factor), rankings) == ballots
        twice = [ranking for ranking in rankings for _ in range(2)]
        assert truthful_ballots(base, twice) == tuple(b for b in ballots for _ in range(2))
        moved = [[pid + shift for pid in ranking] for ranking in rankings]
        assert truthful_ballots(shifted(base, shift), moved) == tuple(
            shift_set(ballot, shift) for ballot in ballots
        )


class TestAllocationRules:
    @RULES
    @CITY
    @given(cities, st.sampled_from([3, 7]))
    def test_cost_and_budget_scaling(self, rule, case, factor):
        base, rankings = city(*case)
        ballots = truthful_ballots(base, rankings)
        assert rule(scaled(base, factor), ballots) == rule(base, ballots)

    @RULES
    @CITY
    @given(cities)
    def test_every_ballot_duplicated(self, rule, case):
        base, rankings = city(*case)
        ballots = truthful_ballots(base, rankings)
        assert rule(base, ballots + ballots) == rule(base, ballots)

    @RULES
    @CITY
    @given(cities, st.integers(1, 1000))
    def test_order_preserving_id_shift(self, rule, case, shift):
        base, rankings = city(*case)
        ballots = truthful_ballots(base, rankings)
        moved = tuple(shift_set(ballot, shift) for ballot in ballots)
        assert rule(shifted(base, shift), moved) == shift_set(rule(base, ballots), shift)
