import itertools

import pytest
from hypothesis import given, strategies as st

from pbstages.core import (
    Caps,
    Instance,
    Project,
    ValidationError,
    greedy_select,
    subsets_ascending,
    tiebreak_family,
    tiebreak_order,
    tiebreak_project,
)

from conftest import fs, make_instance


class TestCaps:
    def test_zero_caps_accepted(self):
        assert Caps(**{name: 0 for name in Caps().__dict__}).profiles == 0

    # Every field is an int >= 0: a negative, bool, float, string or
    # missing cap is refused before any search reads it.
    @pytest.mark.parametrize("field, value", [
        ("profiles", -1),
        ("subset_search", -20),
        ("ballots", True),
        ("domination", 15.0),
        ("partitions", "12"),
        ("maximisers", None),
    ])
    def test_malformed_cap_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"cap {field} must be an integer >= 0"):
            Caps(**{field: value})


class TestInstance:
    def test_rejects_cost_above_budget(self):
        with pytest.raises(ValidationError):
            Instance([Project(1, 5)], 4)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            Instance([Project(1, 1), Project(1, 2)], 3)

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValidationError):
            Project(1, 0)

    def test_total_cost_empty(self, ten_project_instance):
        assert ten_project_instance.total_cost([]) == 0

    def test_total_cost_unit(self, ten_project_instance):
        assert ten_project_instance.total_cost(fs(1, 2, 3)) == 3

    def test_total_cost_mixed(self):
        instance = make_instance([4, 4, 4, 6, 6, 3, 3, 3], 12)
        assert instance.total_cost(fs(4, 6, 7)) == 12

    def test_total_cost_unknown_id(self, ten_project_instance):
        with pytest.raises(ValidationError):
            ten_project_instance.total_cost([99])

    @pytest.mark.parametrize("build, message", [
        (lambda: Project(0, 1), r"^project index must be >= 1, got 0$"),
        (lambda: Project(2, 0), r"^project p2 has cost 0; costs must be >= 1$"),
        (lambda: Instance([Project(1, 1)], 0), r"^budget must be >= 1, got 0$"),
        (lambda: Instance([Project(1, 1), Project(1, 2)], 3), r"^duplicate project index 1$"),
        (lambda: Instance([Project(1, 5)], 4), r"^project p1 costs 5, exceeding the budget 4$"),
        (lambda: Project(3, 1, (float("nan"), 0)),
         r"^project p3 has non-finite coordinates \[nan, 0\.0\]$"),
        (lambda: Project(3, 1, (1, float("-inf"))),
         r"^project p3 has non-finite coordinates \[1\.0, -inf\]$"),
        (lambda: Project(1, 1.5), r"^project index and cost must be integers, got 1 and 1\.5$"),
        (lambda: Project(True, 1), r"^project index and cost must be integers, got True and 1$"),
        (lambda: Instance([Project(1, 1), Project(2, 2)], 2.5),
         r"^budget must be an integer, got 2\.5$"),
        # Coordinates are type-checked as strictly as index and cost: a
        # string, a bool, a non-sequence or a non-number is refused, never
        # coerced to floats.
        (lambda: Project(4, 1, "12"),
         r"^project p4 coordinates must be a sequence of numbers, got '12'$"),
        (lambda: Project(4, 1, ("1.5", True)),
         r"^project p4 coordinates must be a sequence of numbers, got \('1\.5', True\)$"),
        (lambda: Project(4, 1, (1.5, True)),
         r"^project p4 coordinates must be a sequence of numbers, got \(1\.5, True\)$"),
        (lambda: Project(4, 1, 5),
         r"^project p4 coordinates must be a sequence of numbers, got 5$"),
        (lambda: Project(4, 1, ["x"]),
         r"^project p4 coordinates must be a sequence of numbers, got \['x'\]$"),
        (lambda: Project(4, 1, b"12"),
         r"^project p4 coordinates must be a sequence of numbers, got b'12'$"),
        (lambda: Project(4, 1, [10**400, 0]),
         r"^project p4 coordinates must be a sequence of numbers, got \[1000+, 0\]$"),
    ])
    def test_invalid_project_or_instance_refused(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_ids_projects_and_costs_in_ascending_id_order(self):
        projects = [Project(3, 2), Project(1, 1, (0.0, 1.0)), Project(2, 3)]
        instance = Instance(projects, 3)
        assert instance.ids == (1, 2, 3)
        assert [p.index for p in instance.projects] == [1, 2, 3]
        assert list(instance.costs) == [1, 2, 3]
        assert instance.costs == {p.index: p.cost for p in projects}

    def test_restrict_unknown_id_refused(self, ten_project_instance):
        with pytest.raises(ValidationError, match=r"^unknown project id 99$"):
            ten_project_instance.restrict([1, 99])

    def test_restrict_equals_direct_build_and_keeps_coords(self):
        projects = [Project(i, i, [i, 0.0]) for i in range(1, 5)]
        restricted = Instance(projects, 4).restrict([4, 2])
        assert restricted == Instance([projects[1], projects[3]], 4)
        assert [p.coords for p in restricted.projects] == [(2.0, 0.0), (4.0, 0.0)]
        assert restricted.costs == {2: 2, 4: 4}


class TestGreedySelect:
    def test_unit_costs(self, ten_project_instance):
        got = greedy_select(ten_project_instance, fs(1, 4, 5, 10), (1, 4, 5, 10))
        assert got == fs(1, 4, 5)

    def test_empty(self, ten_project_instance):
        assert greedy_select(ten_project_instance, fs(), ()) == fs()

    def test_skips_unaffordable_then_takes_later(self):
        instance = make_instance([2, 2, 1], 3)
        assert greedy_select(instance, fs(1, 2, 3), (1, 2, 3)) == fs(1, 3)

    def test_order_must_cover_set(self, ten_project_instance):
        with pytest.raises(ValidationError):
            greedy_select(ten_project_instance, fs(1, 2), (1,))

    @given(st.data())
    def test_output_feasible_and_exhaustive(self, data):
        m = data.draw(st.integers(1, 6))
        costs = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        budget = data.draw(st.integers(max(costs), 12))
        instance = make_instance(costs, budget)
        order = data.draw(st.permutations(list(instance.ids)))
        chosen = greedy_select(instance, instance.ids, tuple(order))
        spent = instance.total_cost(chosen)
        assert spent <= budget
        # no skipped project fits the residual budget after the pass
        for pid in instance.ids:
            if pid not in chosen:
                assert spent + instance.cost(pid) > budget


class TestTiebreakProject:
    def test_pair(self):
        assert tiebreak_project(fs(2, 3)) == 2

    def test_singleton(self):
        assert tiebreak_project(fs(7)) == 7

    def test_triple(self):
        assert tiebreak_project(fs(9, 4, 10)) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            tiebreak_project(fs())


class TestTiebreakOrder:
    def test_score_classes(self):
        got = tiebreak_order([[1], [2, 3], [4, 5, 6, 7, 8, 9]])
        assert got == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_single_class(self):
        assert tiebreak_order([[3, 1]]) == (1, 3)

    def test_strict_order_unchanged(self):
        assert tiebreak_order([[2], [1], [3]]) == (2, 1, 3)

    def test_overlapping_classes_rejected(self):
        with pytest.raises(ValidationError):
            tiebreak_order([[1, 2], [2, 3]])

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValidationError):
            tiebreak_order([[1], [2]], universe=[1, 2, 3])

    @given(st.data())
    def test_refines_weak_order(self, data):
        ids = data.draw(st.permutations(list(range(1, 7))))
        cut_points = sorted(data.draw(st.sets(st.integers(1, 5), max_size=3)))
        classes, last = [], 0
        for cut in [*cut_points, 6]:
            classes.append(list(ids[last:cut]))
            last = cut
        classes = [c for c in classes if c]
        order = tiebreak_order(classes)
        position = {pid: i for i, pid in enumerate(order)}
        for earlier, later in itertools.combinations(classes, 2):
            assert max(position[p] for p in earlier) < min(position[p] for p in later)
        for cls in classes:
            within = [p for p in order if p in cls]
            assert within == sorted(within)


class TestTiebreakFamily:
    def test_lowest_differing_index_wins(self):
        assert tiebreak_family([fs(2), fs(1, 3)]) == fs(1, 3)

    def test_second_position_decides(self):
        assert tiebreak_family([fs(1, 2, 3), fs(1, 6, 7)]) == fs(1, 2, 3)

    def test_singleton_family(self):
        assert tiebreak_family([fs(4, 5)]) == fs(4, 5)

    def test_duplicates_allowed(self):
        assert tiebreak_family([fs(2), fs(2), fs(1)]) == fs(1)

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            tiebreak_family([])

    def test_matches_pairwise_definition_exhaustively(self):
        # over families of subsets of a 5-project pool: the winner is the
        # unique member containing the lowest index of every symmetric
        # difference with other members
        pool = subsets_ascending([1, 2, 3, 4, 5])
        for size in (1, 2, 3):
            for family in itertools.combinations(pool, size):
                chosen = tiebreak_family(family)
                for other in family:
                    if other == chosen:
                        continue
                    assert tiebreak_project(chosen ^ other) in chosen


class TestSubsetsAscending:
    def test_order_and_completeness(self):
        got = subsets_ascending([3, 1])
        assert got == [fs(), fs(1), fs(3), fs(1, 3)]
