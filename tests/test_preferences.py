import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pbstages.core import NOT_AN_ORDER, ValidationError, subsets_ascending
from pbstages.preferences import ideal_set, truthful_ballots, valuation

from conftest import fs, make_instance, ranking_from, unit_instance


class TestIdealSet:
    def test_example_agent_two(self, ten_project_instance):
        ranking = ranking_from([1, 2, 6, 4], 10)
        assert ideal_set(ten_project_instance, ranking, fs(2, 6)) == fs(2, 6)

    def test_excluded_favourite(self, ten_project_instance):
        ranking = ranking_from([1, 4, 5, 10], 10)
        available = fs(*range(2, 11))
        assert ideal_set(ten_project_instance, ranking, available) == fs(4, 5, 10)

    def test_empty_available(self, ten_project_instance):
        ranking = ranking_from([1], 10)
        assert ideal_set(ten_project_instance, ranking, fs()) == fs()

    def test_is_exhaustive_within_pool(self):
        instance = make_instance([2, 3, 1, 1], 4)
        for ranking in itertools.permutations(instance.ids):
            for available in subsets_ascending(instance.ids):
                top = ideal_set(instance, ranking, available)
                assert top <= available
                spent = instance.total_cost(top)
                for pid in available - top:
                    assert spent + instance.cost(pid) > instance.budget

    def test_ranking_must_cover_pool(self, ten_project_instance):
        with pytest.raises(ValidationError):
            ideal_set(ten_project_instance, (1, 2, 3), fs(4))


class TestCompare:
    # preferences are total preorders: an agent compares allocations by value
    def test_overlap_prefers_larger_intersection(self):
        instance = make_instance([4, 4, 4, 6, 6, 3, 3, 3], 12)
        ideal = fs(6, 7, 8)
        value = valuation("overlap", ideal, instance)
        assert (value(fs(5, 6, 7)), value(fs(1, 2, 3, 6))) == (2, 1)

    def test_cost_prefers_dearer_intersection(self):
        instance = make_instance([4, 4, 4, 6, 6, 3, 3, 3], 12)
        ideal = fs(6, 7, 8)
        value = valuation("cost", ideal, instance)
        assert (value(fs(5, 6, 7)), value(fs(1, 2, 3, 6))) == (6, 3)

    def test_identical_allocations_equal(self):
        instance = unit_instance(3, 2)
        for model in ("overlap", "cost"):
            assert valuation(model, fs(1), instance)(fs(1, 2)) == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            valuation("median", fs(1), unit_instance(1, 1))

    def test_models_coincide_on_unit_costs(self):
        # exhaustive over all ideal/allocation triples on 5 unit-cost projects
        instance = unit_instance(5, 3)
        pool = subsets_ascending(instance.ids)
        for ideal in pool:
            overlap = valuation("overlap", ideal, instance)
            cost = valuation("cost", ideal, instance)
            for allocation in pool:
                assert overlap(allocation) == cost(allocation)


class TestTruthfulBallots:
    def test_rankings_partial_or_wider_than_instance(self):
        # Each agent chooses among the projects she ranks that the instance holds.
        shortlist = unit_instance(3, 2).restrict(fs(2, 3))
        rankings = [(1, 2, 3), (3,), (3, 1)]
        assert truthful_ballots(shortlist, rankings) == (fs(2, 3), fs(3), fs(3))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_plain_greedy_scan(self, data):
        costs = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=7))
        budget = data.draw(st.integers(max(costs), sum(costs) + 1))
        shortlist = data.draw(
            st.lists(st.sampled_from(range(1, len(costs) + 1)), min_size=1, unique=True)
        )
        instance = make_instance(costs, budget).restrict(shortlist)
        # Rankings over the whole universe plus unknown ids, possibly partial,
        # with ids outside the instance possibly repeated: those are skipped.
        names = st.sampled_from(range(1, len(costs) + 4))
        outside = st.sampled_from([pid for pid in range(1, len(costs) + 4) if pid not in shortlist])
        unique = data.draw(st.lists(st.lists(names, unique=True, max_size=10), max_size=5))
        rankings = [
            data.draw(st.permutations(ranking + data.draw(st.lists(outside, max_size=4))))
            for ranking in unique
        ]

        def plain_ballot(ranking):
            chosen, spent = set(), 0
            for pid in ranking:
                if pid in shortlist and spent + costs[pid - 1] <= budget:
                    chosen.add(pid)
                    spent += costs[pid - 1]
            return frozenset(chosen)

        expected = tuple(plain_ballot(ranking) for ranking in rankings)
        assert truthful_ballots(instance, rankings) == expected

    def test_repeated_id_rejected(self):
        with pytest.raises(
            ValidationError, match="order must cover exactly the candidate set, no repeats"
        ):
            truthful_ballots(unit_instance(3, 2), [(1, 2, 1)])

    def test_repeated_id_outside_instance_accepted(self):
        # 4 is no project of the instance, so its repeat is skipped, not refused.
        assert truthful_ballots(unit_instance(3, 2), [(4, 1, 4, 2)]) == (fs(1, 2),)

    def test_repeat_inside_instance_refused_beside_outside_repeat(self):
        with pytest.raises(ValidationError, match=f"^{NOT_AN_ORDER}$"):
            truthful_ballots(unit_instance(3, 2), [(4, 1, 4, 2), (4, 2, 4, 2)])


class TestValuation:
    def test_matches_literal_definition(self):
        # exhaustive over every ideal set and allocation on 5 mixed-cost projects
        costs = {1: 3, 2: 1, 3: 2, 4: 1, 5: 4}
        instance = make_instance(list(costs.values()), 6)
        pool = subsets_ascending(instance.ids)
        for ideal in pool:
            overlap = valuation("overlap", ideal, instance)
            cost = valuation("cost", ideal, instance)
            for allocation in pool:
                shared = set(allocation) & ideal
                for given in (sorted(allocation), set(allocation), frozenset(allocation)):
                    assert overlap(given) == len(shared)
                    assert cost(given) == sum(costs[pid] for pid in shared)
