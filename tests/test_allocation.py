import functools
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
    approval_maximising_box,
    approval_maximising_kernel,
    approval_scores,
    box_kernel,
    classify_allocation,
    greedy_approval,
    greedy_approval_kernel,
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


@st.composite
def scored_instances(draw):
    """An instance with m <= 10 projects of cost <= 6, and a score vector
    with entries 0..n, realised by one ballot per score unit."""
    m = draw(st.integers(1, 10))
    costs = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    budget = draw(st.integers(max(costs), sum(costs)))
    n = draw(st.integers(1, 4))
    scores = tuple(draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))
    instance = make_instance(costs, budget)
    ballots = tuple(
        frozenset(pid for pid, s in zip(instance.ids, scores) if s > level)
        for level in range(n)
    )
    return instance, scores, ballots


@st.composite
def score_boxes(draw):
    """An instance with m <= 8 projects of cost <= 6, and the low corner of a unit score box."""
    m = draw(st.integers(1, 8))
    costs = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    budget = draw(st.integers(max(costs), sum(costs)))
    lows = tuple(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    return make_instance(costs, budget), lows


def kernel_args(instance, scores):
    return instance.ids, tuple(p.cost for p in instance.projects), instance.budget, scores


class TestScoreKernels:
    @settings(deadline=None, max_examples=150)
    @given(scored_instances())
    def test_greedy_kernel_matches_oracle(self, case):
        instance, scores, ballots = case
        got = greedy_approval_kernel(*kernel_args(instance, scores))
        assert got == greedy_approval_oracle(instance, ballots)

    @settings(deadline=None, max_examples=150)
    @given(scored_instances())
    def test_maximising_kernel_matches_oracle(self, case):
        instance, scores, ballots = case
        got = approval_maximising_kernel(*kernel_args(instance, scores))
        assert got == approval_maximising_oracle(instance, ballots)

    @settings(deadline=None, max_examples=150)
    @given(scored_instances(), st.data())
    def test_policy_kernel_matches_oracle(self, case, data):
        instance, scores, ballots = case
        score = dict(zip(instance.ids, scores))
        best = maximum_score_oracle(instance, ballots)
        tied = [
            s for s in subsets_ascending(instance.ids)
            if instance.total_cost(s) <= instance.budget and sum(map(score.get, s)) == best
        ]
        outside = max(instance.ids) + 1
        # The empty set, the whole shortlist (infeasible unless the budget
        # covers it) and a set reaching outside the shortlist.
        decoys = [fs(), frozenset(instance.ids), fs(instance.ids[0], outside)]
        arbitrary = st.sets(st.sampled_from((*instance.ids, outside))).map(frozenset)
        listed = data.draw(st.lists(
            st.one_of(st.sampled_from(tied), st.sampled_from(decoys), arbitrary),
            max_size=5,
            unique=True,
        ))
        policy = PriorityTieBreak(tuple(listed))
        got = approval_maximising_kernel(*kernel_args(instance, scores), policy)
        assert got == approval_maximising_oracle(instance, ballots, policy)

    @settings(deadline=None, max_examples=120)
    @given(score_boxes(), st.booleans(), st.data())
    def test_box_matches_point_kernel_and_oracle(self, case, with_policy, data):
        instance, lows = case
        ids, costs, budget = kernel_args(instance, lows)[:3]
        ballots = subsets_ascending(ids)

        def point(ballot):
            return tuple(low + (pid in ballot) for pid, low in zip(ids, lows))

        def profile(ballot):
            # One ballot per score unit realises the point's score vector.
            scores = point(ballot)
            return tuple(
                frozenset(pid for pid, s in zip(ids, scores) if s > level)
                for level in range(max(scores))
            )

        tie_point = data.draw(st.sampled_from(ballots))
        policy = None
        if with_policy:
            # Maximisers tied at one point of the box, the whole shortlist
            # (infeasible unless the budget covers it) and a set reaching
            # outside the shortlist.
            best = maximum_score_oracle(instance, profile(tie_point))
            tied = [
                s for s in ballots
                if instance.total_cost(s) <= budget
                and sum(point(tie_point)[ids.index(pid)] for pid in s) == best
            ]
            decoys = [frozenset(ids), fs(ids[0], max(ids) + 1)]
            listed = data.draw(st.lists(
                st.sampled_from(tied + decoys), min_size=1, max_size=4, unique=True
            ))
            policy = PriorityTieBreak(tuple(listed))
        box = approval_maximising_box(ids, costs, budget, lows, policy)
        assert len(box) == len(ballots)
        for ballot, got in zip(ballots, box):
            assert got == approval_maximising_kernel(ids, costs, budget, point(ballot), policy)
        for ballot in {tie_point, data.draw(st.sampled_from(ballots))}:
            want = approval_maximising_oracle(instance, profile(ballot), policy)
            assert box[ballots.index(ballot)] == want

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
        rule = allocation_rule(
            "approval-maximising", PriorityTieBreak((fs(1, 2, 3, 5), fs(4, 5, 6, 7)))
        )
        kernel = score_kernel(rule)
        for ballots in ((fs(1, 2, 3, 4), fs(4, 5, 6, 7)), (fs(1, 2, 3), fs(4, 5, 6, 7))):
            scores = approval_scores(instance, ballots)
            got = kernel(*kernel_args(instance, tuple(scores[p] for p in instance.ids)))
            assert got == rule(instance, ballots)

    def test_policy_rule_box_keeps_its_policy(self):
        policy = PriorityTieBreak((fs(1, 2, 3, 5), fs(4, 5, 6, 7)))
        box = box_kernel(allocation_rule("approval-maximising", policy))
        assert box.keywords == {"policy": policy}
        assert box.func is approval_maximising_box

    def test_other_rules_declare_no_kernel(self):
        assert score_kernel(approval_maximising_oracle) is None
        assert score_kernel(greedy_approval_oracle) is None
        assert box_kernel(approval_maximising_oracle) is None
        assert box_kernel(greedy_approval) is None
        assert score_kernel(lambda instance, ballots: frozenset()) is None
        # A positional binding changes the call, so the kernel no longer fits.
        assert score_kernel(functools.partial(greedy_approval, unit_instance(2, 1))) is None
