import functools
import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pbstages.core import ValidationError, subsets_ascending
from pbstages.allocation import (
    EXHAUSTIVE,
    FEASIBLE,
    INFEASIBLE,
    PriorityTieBreak,
    allocation_rule,
    approval_maximising,
    approval_maximising_kernel,
    approval_scores,
    classify_allocation,
    greedy_approval,
    greedy_approval_kernel,
    kernel_args,
    score_kernel,
)
from pbstages.oracles import (
    approval_maximising_oracle,
    greedy_approval_oracle,
    maximum_score_oracle,
)
from pbstages.preferences import ideal_set
from pbstages.suites import random_ballots, random_instance

from conftest import fs, make_instance, ranking_from, unit_instance


def example_ballots(instance):
    prefixes = ([1, 4, 5, 10], [1, 2, 6, 4], [1, 2, 7, 4], [1, 3, 8, 5], [1, 3, 9, 5])
    return tuple(
        ideal_set(instance, [p for p in ranking_from(prefix, 10) if p in instance])
        for prefix in prefixes
    )


@pytest.fixture
def example_shortlist(ten_project_instance):
    return ten_project_instance.restrict(fs(*range(1, 10)))


class TestApprovalScores:
    def test_example_counts(self, example_shortlist):
        scores = approval_scores(example_shortlist, example_ballots(example_shortlist))
        assert scores == {1: 5, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1}

    def test_empty_profile(self, example_shortlist):
        scores = approval_scores(example_shortlist, ())
        assert set(scores.values()) == {0}

    def test_single_ballot(self, example_shortlist):
        scores = approval_scores(example_shortlist, (fs(1),))
        assert scores[1] == 1 and sum(scores.values()) == 1

    def test_ballot_outside_shortlist_rejected(self, example_shortlist):
        message = r"^ballot of agent 2 contains unknown project ids \[10, 12\]$"
        with pytest.raises(ValidationError, match=message):
            approval_scores(example_shortlist, (fs(1), [12, 3, 10, 12]))


class TestClassify:
    def test_exhaustive(self, example_shortlist):
        assert classify_allocation(example_shortlist, fs(1, 2, 3)) == EXHAUSTIVE

    def test_feasible_not_exhaustive(self, example_shortlist):
        assert classify_allocation(example_shortlist, fs(1, 2)) == FEASIBLE

    def test_infeasible(self, example_shortlist):
        assert classify_allocation(example_shortlist, fs(1, 2, 3, 4)) == INFEASIBLE


class TestGreedyApproval:
    def test_example_outcome(self, example_shortlist):
        assert greedy_approval(example_shortlist, example_ballots(example_shortlist)) == fs(1, 2, 3)

    def test_single_agent(self):
        instance = unit_instance(1, 1)
        assert greedy_approval(instance, (fs(1),)) == fs(1)

    def test_matches_recomposition_oracle(self):
        rng = Random(5)
        for _ in range(200):
            instance = random_instance(rng, max_projects=6)
            ballots = random_ballots(rng, instance, rng.randint(1, 4))
            assert greedy_approval(instance, ballots) == greedy_approval_oracle(
                instance, ballots
            )


class TestApprovalMaximising:
    def test_example_outcome(self, example_shortlist):
        got = approval_maximising(example_shortlist, example_ballots(example_shortlist))
        assert got == fs(1, 2, 3)

    def test_score_tie_prefers_lower_indices(self):
        # three maximisers tie at score 2; the canonical pick keeps 1 and 2
        instance = make_instance([1, 1, 2], 2)
        ballots = (fs(1, 2), fs(3), fs(3))
        assert approval_maximising(instance, ballots) == fs(1, 2)

    def test_includes_zero_score_fillers(self):
        instance = make_instance([1, 1, 1], 2)
        assert approval_maximising(instance, (fs(1),)) == fs(1, 2)

    def test_matches_subset_scan_oracle(self):
        rng = Random(17)
        for _ in range(200):
            instance = random_instance(rng, max_projects=6)
            ballots = random_ballots(rng, instance, rng.randint(1, 4))
            got = approval_maximising(instance, ballots)
            assert got == approval_maximising_oracle(instance, ballots)
            scores = approval_scores(instance, ballots)
            assert sum(scores[p] for p in got) == maximum_score_oracle(instance, ballots)

    def test_always_exhaustive(self):
        rng = Random(29)
        for _ in range(200):
            instance = random_instance(rng, max_projects=6)
            ballots = random_ballots(rng, instance, rng.randint(1, 4))
            got = approval_maximising(instance, ballots)
            assert classify_allocation(instance, got) == EXHAUSTIVE


class TestPriorityTieBreak:
    def test_listed_maximiser_wins(self):
        instance = unit_instance(7, 4)
        policy = PriorityTieBreak((fs(1, 2, 3, 5), fs(4, 5, 6, 7)))
        truthful = (fs(1, 2, 3, 4), fs(4, 5, 6, 7))
        assert approval_maximising(instance, truthful, policy) == fs(4, 5, 6, 7)

    def test_deviation_flips_outcome(self):
        instance = unit_instance(7, 4)
        policy = PriorityTieBreak((fs(1, 2, 3, 5), fs(4, 5, 6, 7)))
        deviated = (fs(1, 2, 3), fs(4, 5, 6, 7))
        assert approval_maximising(instance, deviated, policy) == fs(1, 2, 3, 5)

    def test_unlisted_maximisers_fall_back_to_canonical(self):
        instance = unit_instance(3, 1)
        policy = PriorityTieBreak((fs(3),))
        assert approval_maximising(instance, (fs(1), fs(2)), policy) == fs(1)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValidationError):
            PriorityTieBreak((fs(1), fs(1)))


class TestAllocationRuleLookup:
    @pytest.mark.parametrize("name, policy, message", [
        ("greedy-approval", PriorityTieBreak((fs(1),)),
         r"^greedy-approval does not take a tie-break policy$"),
        ("greedy", None, r"^unknown allocation rule 'greedy'$"),
        ("greedy", PriorityTieBreak((fs(1),)), r"^unknown allocation rule 'greedy'$"),
    ])
    def test_invalid_lookup_refused(self, name, policy, message):
        with pytest.raises(ValidationError, match=message):
            allocation_rule(name, policy)


@st.composite
def kernel_grids(draw, shapes=("point", "box", "grid")):
    """An instance of projects with cost <= 6 and per-slot score levels in 0..n.

    The levels are one point (m <= 10, n <= 4), a unit box (m <= 8,
    n <= 4) or the whole grid {0..n}^m (m <= 3, n <= 3), the shapes the
    searches ask for; ``shapes`` limits the draw.
    """
    shape = draw(st.sampled_from(shapes))
    m = draw(st.integers(1, {"point": 10, "box": 8, "grid": 3}[shape]))
    costs = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    budget = draw(st.integers(max(costs), sum(costs)))
    n = draw(st.integers(1, 3 if shape == "grid" else 4))
    if shape == "grid":
        levels = [range(n + 1)] * m
    else:
        lows = draw(st.lists(st.integers(0, n if shape == "point" else n - 1),
                             min_size=m, max_size=m))
        levels = [(low,) if shape == "point" else (low, low + 1) for low in lows]
    return make_instance(costs, budget), levels


def realising_profile(instance, scores):
    """One ballot per score unit, which realises the score vector."""
    return tuple(
        frozenset(pid for pid, s in zip(instance.ids, scores) if s > level)
        for level in range(max(scores))
    )


def draw_policy(data, instance, tie_point):
    """A priority list of maximisers tied at ``tie_point``, the empty set, the
    whole shortlist (infeasible unless the budget covers it), a set reaching
    outside the shortlist, and arbitrary sets."""
    ids = instance.ids
    best = maximum_score_oracle(instance, realising_profile(instance, tie_point))
    score = dict(zip(ids, tie_point))
    tied = [
        s for s in subsets_ascending(ids)
        if instance.total_cost(s) <= instance.budget and sum(map(score.get, s)) == best
    ]
    outside = max(ids) + 1
    decoys = [fs(), frozenset(ids), fs(ids[0], outside)]
    arbitrary = st.sets(st.sampled_from((*ids, outside))).map(frozenset)
    listed = data.draw(st.lists(
        st.one_of(st.sampled_from(tied), st.sampled_from(decoys), arbitrary),
        max_size=5,
        unique=True,
    ))
    return PriorityTieBreak(tuple(listed))


def grid_points(levels):
    """The points of the product of ``levels``, slot 0 varying fastest."""
    return sorted(itertools.product(*levels), key=lambda point: point[::-1])


class TestScoreKernels:
    @pytest.mark.parametrize("rule", ["greedy", "maximising"])
    @settings(deadline=None, max_examples=150)
    @given(kernel_grids())
    def test_kernel_matches_oracle(self, rule, case):
        instance, levels = case
        kernel, oracle = {
            "greedy": (greedy_approval_kernel, greedy_approval_oracle),
            "maximising": (approval_maximising_kernel, approval_maximising_oracle),
        }[rule]
        profiles = [realising_profile(instance, point) for point in grid_points(levels)]
        assert kernel(*kernel_args(instance), levels) == [oracle(instance, p) for p in profiles]

    @settings(deadline=None, max_examples=150)
    @given(kernel_grids(), st.data())
    def test_policy_kernel_matches_oracle(self, case, data):
        instance, levels = case
        points = grid_points(levels)
        policy = draw_policy(data, instance, data.draw(st.sampled_from(points)))
        got = approval_maximising_kernel(*kernel_args(instance), levels, policy)
        assert got == [
            approval_maximising_oracle(instance, realising_profile(instance, point), policy)
            for point in points
        ]

    @settings(deadline=None, max_examples=100)
    @given(kernel_grids(), st.data())
    def test_maximising_kernel_at_budgets_past_total_cost(self, case, data):
        # Every set fits, so the outcome is that of a budget equal to the
        # total cost; the knapsack rows must not grow with the budget.
        small, levels = case
        total = sum(p.cost for p in small.projects)
        budget = data.draw(st.one_of(st.integers(total, total + 3), st.integers(total, 10**30)))
        instance = make_instance([p.cost for p in small.projects], budget)
        points = grid_points(levels)
        policy = data.draw(st.none() | st.just(draw_policy(data, instance, points[0])))
        got = approval_maximising_kernel(*kernel_args(instance), levels, policy)
        assert got == [
            approval_maximising_oracle(instance, realising_profile(instance, point), policy)
            for point in points
        ]

    @settings(deadline=None, max_examples=120)
    @given(kernel_grids(shapes=("box",)), st.booleans(), st.data())
    def test_box_matches_point_kernel_and_oracle(self, case, with_policy, data):
        instance, box = case
        args = kernel_args(instance)
        ballots = subsets_ascending(instance.ids)

        def point(ballot):
            return tuple(low + (pid in ballot) for pid, (low, _) in zip(instance.ids, box))

        tie_ballot = data.draw(st.sampled_from(ballots))
        policy = draw_policy(data, instance, point(tie_ballot)) if with_policy else None
        greedy = greedy_approval_kernel(*args, box)
        maximising = approval_maximising_kernel(*args, box, policy)
        assert len(greedy) == len(maximising) == len(ballots)
        for ballot, g, m in zip(ballots, greedy, maximising):
            singleton = [(s,) for s in point(ballot)]
            assert [g] == greedy_approval_kernel(*args, singleton)
            assert [m] == approval_maximising_kernel(*args, singleton, policy)
        for ballot in {tie_ballot, data.draw(st.sampled_from(ballots))}:
            want = approval_maximising_oracle(
                instance, realising_profile(instance, point(ballot)), policy
            )
            assert maximising[ballots.index(ballot)] == want

    def test_declared_kernels_survive_wrapping(self):
        for rule, kernel in (
            (greedy_approval, greedy_approval_kernel),
            (approval_maximising, approval_maximising_kernel),
        ):
            @functools.wraps(rule)
            def wrapped(*args, rule=rule):
                return rule(*args)

            assert score_kernel(rule) is kernel
            assert score_kernel(wrapped) is kernel

    def test_policy_rule_kernel_keeps_its_policy(self):
        instance = unit_instance(7, 4)
        ids, costs = instance.ids, [p.cost for p in instance.projects]
        policy = PriorityTieBreak((fs(1, 2, 3, 5), fs(4, 5, 6, 7)))
        rule = allocation_rule("approval-maximising", policy)
        kernel = score_kernel(rule)
        for ballots in ((fs(1, 2, 3, 4), fs(4, 5, 6, 7)), (fs(1, 2, 3), fs(4, 5, 6, 7))):
            scores = approval_scores(instance, ballots)
            point = [(scores[p],) for p in ids]
            assert kernel(ids, costs, instance.budget, point) == [rule(instance, ballots)]

    def test_policy_rule_box_keeps_its_policy(self):
        instance = unit_instance(7, 4)
        ids, costs = instance.ids, [p.cost for p in instance.projects]
        policy = PriorityTieBreak((fs(1, 2, 3, 5), fs(4, 5, 6, 7)))
        rule = allocation_rule("approval-maximising", policy)
        kernel = score_kernel(rule)
        assert kernel.keywords == {"policy": policy}
        assert kernel.func is approval_maximising_kernel
        # The unit box above one other agent's ballot, one outcome per ballot.
        other = fs(4, 5, 6, 7)
        box = [(int(pid in other), int(pid in other) + 1) for pid in ids]
        assert kernel(ids, costs, instance.budget, box) == [
            rule(instance, (other, ballot)) for ballot in subsets_ascending(ids)
        ]

    def test_other_rules_declare_no_kernel(self):
        for rule in (
            approval_maximising_oracle,
            greedy_approval_oracle,
            lambda instance, ballots: frozenset(),
            # A positional binding changes the call, so the kernel no longer fits.
            functools.partial(greedy_approval, unit_instance(2, 1)),
            functools.partial(approval_maximising_oracle, policy=PriorityTieBreak(())),
        ):
            with pytest.raises(ValidationError, match="no score kernel"):
                score_kernel(rule)
