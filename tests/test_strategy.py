import dataclasses
import functools
import gc
import hashlib
import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from pbstages.core import (
    Caps,
    Instance,
    Project,
    ResourceLimitError,
    ValidationError,
    subsets_ascending,
)
from pbstages import strategy
from pbstages.allocation import (
    PriorityTieBreak,
    allocation_rule,
    greedy_approval,
    score_kernel,
)
from pbstages.oracles import (
    approval_maximising_oracle,
    best_response_oracle,
    fstar_outcomes_oracle,
    greedy_approval_oracle,
)
from pbstages.grid import score_grid
from pbstages.preferences import ideal_set, valuation
from pbstages.shortlisting import equal_representation, euclidean_metric, k_median, nomination
from pbstages.strategy import (
    StageGame,
    best_response,
    check_fssp,
    check_manipulation,
    check_nomination_fssp_class,
    fssp_cells,
    verify_fssp_implications,
)
from pbstages.suites import random_instance, random_ranking, random_subset
from pbstages.verification import (
    COUNTEREXAMPLE,
    HOLDS,
    PropertyVerdict,
    check_second_stage_sp,
    check_sp_over_unit_class,
)

from conftest import contrarian, fs, make_instance, ranking_from, unit_instance


def crossed_awareness_game(allocation_name="greedy-approval"):
    instance = Instance([Project(1, 1), Project(2, 1)], 1)
    return StageGame(
        instance=instance,
        shortlist_rule=nomination,
        allocation_rule=allocation_rule(allocation_name),
        rankings=((2, 1), (1, 2)),
        awareness=(fs(1), fs(2)),
        model="overlap",
    )


def ten_project_game(model="overlap"):
    instance = Instance([Project(i, 1) for i in range(1, 11)], 3)
    prefixes = ([1, 4, 5, 10], [1, 2, 6, 4], [1, 2, 7, 4], [1, 3, 8, 5], [1, 3, 9, 5])
    awareness = (fs(1, 4, 5, 10), fs(2, 6), fs(2, 7), fs(3, 8), fs(3, 9))
    rankings = tuple(ranking_from(p, 10) for p in prefixes)
    return StageGame(
        instance=instance,
        shortlist_rule=nomination,
        allocation_rule=greedy_approval,
        rankings=rankings,
        awareness=awareness,
        model=model,
    )


class TestBestResponse:
    def test_score_tie_won_by_low_index(self):
        instance = unit_instance(2, 1)
        ballot, outcome = best_response(
            greedy_approval, instance, (fs(), fs(2)), 0, fs(1), "overlap"
        )
        assert ballot == fs(1)
        assert outcome == fs(1)

    def test_single_agent_gets_ideal(self):
        instance = make_instance([2, 1, 1], 3)
        ideal = ideal_set(instance, (2, 3, 1))
        ballot, outcome = best_response(
            greedy_approval, instance, (fs(),), 0, ideal, "overlap"
        )
        assert ideal <= outcome

    def test_truthful_already_best(self):
        instance = unit_instance(3, 2)
        ballots = (fs(1, 2), fs(1, 2))
        ballot, outcome = best_response(
            greedy_approval, instance, ballots, 0, fs(1, 2), "overlap"
        )
        assert outcome == fs(1, 2)

    def test_cap_enforced(self):
        instance = unit_instance(5, 2)
        with pytest.raises(ResourceLimitError):
            best_response(
                greedy_approval, instance, (fs(),), 0, fs(1), "overlap", Caps(ballots=3)
            )
        # The 5 projects run at a cap of 5 and are refused at 4.
        assert best_response(
            greedy_approval, instance, (fs(),), 0, fs(1), "overlap", Caps(ballots=5)
        ) == best_response(greedy_approval, instance, (fs(),), 0, fs(1), "overlap")
        with pytest.raises(ResourceLimitError):
            best_response(
                greedy_approval, instance, (fs(),), 0, fs(1), "overlap", Caps(ballots=4)
            )

    # An agent outside the profile, negative or past its end, and an ideal
    # set with an id outside the shortlist.
    @pytest.mark.parametrize("agent, ideal", [(-1, fs(1)), (2, fs(1)), (0, fs(9))])
    def test_inputs_checked(self, agent, ideal):
        with pytest.raises(ValidationError):
            best_response(
                greedy_approval, unit_instance(2, 1), (fs(), fs(2)), agent, ideal, "overlap"
            )

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_matches_plain_scan(self, data):
        instance, ballots, agent, ideal, model = data.draw(best_response_cases())
        fast, slow = data.draw(rule_and_oracle(instance))
        assert best_response(fast, instance, ballots, agent, ideal, model) == (
            best_response_oracle(slow, instance, ballots, agent, ideal, model)
        )


def rule_and_oracle(instance):
    """A rule with a score kernel and the oracle it must agree with, with or
    without a drawn tie-break policy over ``instance``'s allocations."""
    subsets = st.sets(st.sampled_from(instance.ids)).map(frozenset)
    policies = st.lists(subsets, max_size=3, unique=True).map(tuple).map(PriorityTieBreak)
    return st.one_of(
        st.just((greedy_approval, greedy_approval_oracle)),
        st.just((allocation_rule("approval-maximising"), approval_maximising_oracle)),
        policies.map(lambda policy: (
            allocation_rule("approval-maximising", policy),
            functools.partial(approval_maximising_oracle, policy=policy),
        )),
    )


@st.composite
def best_response_cases(draw):
    """(instance, ballots, agent, ideal, model) with up to 4 projects and 3 agents."""
    m = draw(st.integers(1, 4))
    costs = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    instance = make_instance(costs, draw(st.integers(max(costs), sum(costs))))
    subsets = st.sets(st.sampled_from(instance.ids)).map(frozenset)
    ballots = tuple(draw(st.lists(subsets, min_size=1, max_size=3)))
    agent = draw(st.integers(0, len(ballots) - 1))
    ideal = ideal_set(instance, draw(st.permutations(list(instance.ids))))
    return instance, ballots, agent, ideal, draw(st.sampled_from(["overlap", "cost"]))


# Every public search entry, on a tiny case, for the rule it is given.
SEARCH_ENTRIES = {
    "check_second_stage_sp": lambda rule: check_second_stage_sp(
        rule, unit_instance(2, 1), ((1, 2), (2, 1)), "overlap"
    ),
    "check_sp_over_unit_class": lambda rule: check_sp_over_unit_class(
        rule, "overlap", max_projects=2, max_agents=2
    ),
    "best_response": lambda rule: best_response(
        rule, unit_instance(2, 1), (fs(), fs(2)), 0, fs(1), "overlap"
    ),
    "StageGame": lambda rule: StageGame(
        unit_instance(2, 1), nomination, rule, ((1, 2), (2, 1)), (fs(1), fs(2)), "overlap"
    ),
    "check_nomination_fssp_class": lambda rule: check_nomination_fssp_class(
        rule, "overlap", max_projects=2, max_agents=2, costs=(1,), max_budget=2
    ),
}


class TestSearchEntriesTakeKernelRulesOnly:
    @pytest.mark.parametrize("entry", sorted(SEARCH_ENTRIES))
    @pytest.mark.parametrize("rule", [
        approval_maximising_oracle,
        contrarian,
        # A positional binding changes the call, so the kernel no longer fits.
        functools.partial(greedy_approval, unit_instance(2, 1)),
    ], ids=["oracle", "contrarian", "positional-partial"])
    def test_rule_without_kernel_refused(self, entry, rule):
        with pytest.raises(ValidationError, match="no score kernel"):
            SEARCH_ENTRIES[entry](rule)

    @pytest.mark.parametrize("entry", sorted(SEARCH_ENTRIES))
    def test_kernel_rule_accepted(self, entry):
        SEARCH_ENTRIES[entry](allocation_rule("approval-maximising", PriorityTieBreak((fs(2),))))


class TestFStar:
    """f*: the outcome once the agent swaps in her best response to everyone's ideal sets."""

    def test_withheld_favourite_second_stage(self):
        game = ten_project_game()
        shortlist = game.instance.restrict(fs(*range(2, 11)))
        tops = tuple(game.top_on(i, shortlist.ids) for i in range(5))
        _, got = best_response(greedy_approval, shortlist, tops, 0, tops[0], "overlap")
        assert got == fs(2, 4, 5)

    def test_truthful_second_stage(self):
        game = ten_project_game()
        shortlist = game.instance.restrict(fs(*range(1, 10)))
        tops = tuple(game.top_on(i, shortlist.ids) for i in range(5))
        _, got = best_response(greedy_approval, shortlist, tops, 0, tops[0], "overlap")
        assert got == fs(1, 2, 3)

    def test_never_worse_than_submitted_ballot(self):
        # replacing the agent's ballot with her best response can only help
        game = ten_project_game()
        shortlist = game.instance.restrict(fs(*range(1, 10)))
        tops = tuple(game.top_on(i, shortlist.ids) for i in range(5))
        _, star = best_response(greedy_approval, shortlist, tops, 0, tops[0], "overlap")
        plain = greedy_approval(shortlist, tops)
        value = valuation("overlap", tops[0], shortlist)
        assert value(star) >= value(plain)


class TestFStarOutcomes:
    """The score-vector grid against the oracle's ordered enumeration of the others' profiles."""

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_grid_matches_ordered_path(self, data):
        m = data.draw(st.integers(1, 4))
        costs = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        instance = make_instance(costs, data.draw(st.integers(max(costs), sum(costs))))
        agents = data.draw(st.integers(1, 3))
        agent = data.draw(st.integers(0, agents - 1))
        ideal = ideal_set(instance, data.draw(st.permutations(list(instance.ids))))
        model = data.draw(st.sampled_from(["overlap", "cost"]))
        fast, slow = data.draw(rule_and_oracle(instance))
        kernel = score_kernel(fast)
        grid = strategy._fstar_outcomes(
            score_grid(kernel, instance, agents), instance, agents, agent, ideal, model
        )
        ordered = fstar_outcomes_oracle(slow, instance, agents, agent, ideal, model)
        assert list(grid.items()) == list(ordered.items())


def four_project_game():
    instance = unit_instance(4, 2)
    return StageGame(
        instance=instance,
        shortlist_rule=nomination,
        allocation_rule=greedy_approval,
        rankings=((1, 2, 3, 4), (4, 3, 2, 1)),
        awareness=(fs(1, 2, 3), fs(2, 3, 4)),
        model="overlap",
    )


def plain_fssp(game, variant, mode):
    """check_fssp's first witness and count, one check_manipulation per deviation."""
    checked = 0
    for agent in range(game.agents):
        truthful = game.truthful_proposal(agent, variant)
        baseline = dataclasses.replace(game, proposals=tuple(
            truthful if i == agent else p for i, p in enumerate(game.proposals)
        ))
        for deviation in subsets_ascending(game.deviation_pool(agent, variant)):
            if deviation != truthful:
                checked += 1
                result = check_manipulation(baseline, agent, deviation, mode)
                if result.successful:
                    return result.witness, checked
    return None, checked


def skipping_game():
    """A game where no deviation can beat its baseline: agent 1's truthful
    {1} is funded on every baseline, and agent 2 values only project 3,
    which no deviation of hers keeps on the shortlist."""
    return StageGame(
        instance=unit_instance(3, 1),
        shortlist_rule=nomination,
        allocation_rule=greedy_approval,
        rankings=((1, 2, 3), (3, 1, 2)),
        awareness=(fs(1, 2), fs(3)),
        model="overlap",
    )


class TestCheckManipulation:
    def test_crossed_awareness_empty_deviation_pessimistic(self):
        game = crossed_awareness_game()
        result = check_manipulation(game, 0, fs(), "pessimistic")
        assert result.successful

    def test_withheld_favourite_anticipative(self):
        game = ten_project_game()
        result = check_manipulation(game, 0, fs(4, 5, 10), "anticipative")
        assert result.successful
        assert result.witness["baseline_outcome"] == [1, 2, 3]
        assert result.witness["deviation_outcome"] == [2, 4, 5]

    def test_clustering_relocation_pessimistic(self, triangle_coords):
        instance = Instance(
            [Project(i, 1, triangle_coords[i]) for i in range(1, 8)], 3
        )
        metric = euclidean_metric(instance)
        game = StageGame(
            instance=instance,
            shortlist_rule=lambda inst, props: k_median(inst, props, 1, metric),
            allocation_rule=greedy_approval,
            rankings=((1, 2, 3, 5, 4, 6, 7), (4, 6, 7, 1, 2, 3, 5)),
            awareness=(fs(1, 2, 3, 5), fs(4, 6, 7)),
            model="overlap",
            proposals=(fs(1, 2, 3), fs(4, 6, 7)),
        )
        result = check_manipulation(game, 0, fs(1, 2, 5), "pessimistic")
        assert result.successful
        assert result.witness["baseline_shortlist"] == [4, 6, 7]
        assert result.witness["deviation_shortlist"] == [1, 2, 5]

    def test_identical_shortlists_never_pessimistically_successful(self):
        game = ten_project_game()
        result = check_manipulation(game, 0, fs(1, 4, 5), "pessimistic")
        assert result.verdict == "unsuccessful"

    def test_optimistic_allows_lucky_pairs_on_equal_shortlists(self):
        # the optimistic notion only asks for one favourable profile pair,
        # so a no-op deviation counts as successful when outcomes vary
        game = crossed_awareness_game()
        result = check_manipulation(game, 0, fs(1), "optimistic")
        assert result.successful
        assert result.witness["baseline_shortlist"] == result.witness["deviation_shortlist"]

    def test_anticipative_ignores_profile_cap(self):
        # anticipative verdicts evaluate exactly two profiles, so they stay
        # exact however small the profile-pair cap is
        game = ten_project_game()
        result = check_manipulation(
            game, 0, fs(4, 5, 10), "anticipative", Caps(profiles=1)
        )
        assert result.successful

    def test_cap_without_sampling_raises(self):
        game = ten_project_game()
        with pytest.raises(ResourceLimitError):
            check_manipulation(game, 0, fs(4, 5), "pessimistic", Caps(profiles=10))

    def test_equal_shortlists_charged_once(self):
        # Both shortlists are {1, 2}: one side of (2^2)^2 = 16 profiles.
        game = crossed_awareness_game()
        result = check_manipulation(game, 0, fs(1), "optimistic", Caps(profiles=16))
        assert result == check_manipulation(game, 0, fs(1), "optimistic")
        assert result.successful
        with pytest.raises(ResourceLimitError):
            check_manipulation(game, 0, fs(1), "optimistic", Caps(profiles=15))


    @pytest.mark.parametrize("agent", [-1, 2, True, 1.0])
    def test_agent_index_checked(self, agent):
        with pytest.raises(ValidationError, match="agent index"):
            check_manipulation(four_project_game(), agent, fs(1), "pessimistic")


class TestCheckFssp:
    @pytest.mark.parametrize("variant, mode, message", [
        ("restricted", "bogus", "unknown manipulation mode"),
        ("bogus", "pessimistic", "unknown variant"),
    ])
    def test_unknown_variant_or_mode_refused(self, variant, mode, message):
        with pytest.raises(ValidationError, match=message):
            check_fssp(crossed_awareness_game(), variant, mode)

    def test_no_agents_refused(self):
        # A game without agents has no deviation to try: its "holds" would prove nothing.
        with pytest.raises(ValidationError, match="at least one agent"):
            StageGame(
                instance=unit_instance(2, 1),
                shortlist_rule=nomination,
                allocation_rule=greedy_approval,
                rankings=(),
                awareness=(),
                model="overlap",
            )

    def test_one_awareness_set_per_ranking(self):
        with pytest.raises(ValidationError, match="one ranking and one awareness set"):
            StageGame(
                instance=unit_instance(2, 1),
                shortlist_rule=nomination,
                allocation_rule=greedy_approval,
                rankings=((1, 2), (2, 1)),
                awareness=(fs(1),),
                model="overlap",
            )

    @pytest.mark.parametrize("allocation_name", ["greedy-approval", "approval-maximising"])
    @pytest.mark.parametrize("mode", ["pessimistic", "anticipative"])
    def test_crossed_awareness_restricted_fails(self, allocation_name, mode):
        game = crossed_awareness_game(allocation_name)
        verdict = check_fssp(game, "restricted", mode)
        assert verdict.status == COUNTEREXAMPLE
        assert verdict.witness["agent"] == 1
        assert verdict.witness["deviation"] == []

    @pytest.mark.parametrize("allocation_name", ["greedy-approval", "approval-maximising"])
    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic", "anticipative"])
    def test_crossed_awareness_unrestricted_holds(self, allocation_name, mode):
        game = crossed_awareness_game(allocation_name)
        verdict = check_fssp(game, "unrestricted", mode)
        assert verdict.status == HOLDS and verdict.exact

    def test_representation_tie_scenario_exact_verdicts(self):
        instance = make_instance([1, 2, 1, 1], 2)
        game = StageGame(
            instance=instance,
            shortlist_rule=lambda inst, props: equal_representation(inst, props, 1),
            allocation_rule=greedy_approval,
            rankings=((3, 4, 2, 1), (1, 2, 3, 4), (2, 1, 3, 4)),
            awareness=(fs(1, 2, 3, 4), fs(1, 2), fs(2)),
            model="overlap",
            proposals=(fs(3, 4), fs(1, 2), fs(2)),
        )
        for mode in ("pessimistic", "optimistic", "anticipative"):
            verdict = check_fssp(game, "unrestricted", mode)
            assert verdict.holds and verdict.exact, mode

    # sha256 of the 72 exact verdicts below; any change to `checked` or a
    # witness moves it.
    SEEDED_GAMES_SHA256 = "dca10b5954023a3dba3f585beb995e7488989bc528ebdee842b9e78bef8a5ebc"

    def test_seeded_game_verdicts_pinned(self):
        def er2(instance, proposals):
            return equal_representation(instance, proposals, 2)

        combos = [(rule, a, m) for rule in (nomination, er2)
                  for a in ("greedy-approval", "approval-maximising")
                  for m in ("overlap", "cost")]
        rng = Random(2027)
        verdicts = []
        for i in range(12):
            m = 4 if i % 6 == 0 else 3
            instance = random_instance(rng, min_projects=m, max_projects=m, max_cost=4)
            rankings = tuple(random_ranking(rng, instance) for _ in range(3))
            awareness = tuple(random_subset(rng, instance.ids, allow_empty=False)
                              for _ in range(3))
            shortlist_rule, allocation_name, model = combos[i % len(combos)]
            game = StageGame(instance, shortlist_rule, allocation_rule(allocation_name),
                             rankings, awareness, model)
            for variant in ("restricted", "unrestricted"):
                for mode in ("pessimistic", "optimistic", "anticipative"):
                    verdicts.append(check_fssp(game, variant, mode).to_jsonable())
        assert sum(v["status"] == COUNTEREXAMPLE for v in verdicts) == 21
        assert sum(not v["exact"] for v in verdicts) == 0
        blob = json.dumps(verdicts, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.SEEDED_GAMES_SHA256

    def test_each_side_computed_once_per_run(self, monkeypatch):
        calls, grids = [], []
        search, build = strategy._fstar_outcomes, strategy.score_grid

        def counted(grid, instance, agents, agent, ideal, model):
            calls.append((instance.ids, ideal, agent))
            return search(grid, instance, agents, agent, ideal, model)

        def counted_grid(kernel, instance, n):
            grids.append(instance.ids)
            return build(kernel, instance, n)

        monkeypatch.setattr(strategy, "_fstar_outcomes", counted)
        monkeypatch.setattr(strategy, "score_grid", counted_grid)
        game = four_project_game()
        first = check_fssp(game, "unrestricted", "pessimistic")
        assert first.holds and first.checked == 30
        # The value bound skips the other sides: 4 computed, not 8.
        assert len(calls) == len(set(calls)) == 4
        # Both agents' sides on (1, 2, 3, 4) read one grid.
        assert sorted(grids) == sorted({ids for ids, _, _ in calls})
        assert len(grids) == 3
        calls.clear()
        grids.clear()
        second = check_fssp(game, "unrestricted", "pessimistic")
        assert len(calls) == 4 and len(grids) == 3
        assert second.to_jsonable() == first.to_jsonable()

    @pytest.mark.parametrize("allocation_name", ["greedy-approval", "approval-maximising"])
    def test_run_leaves_no_cyclic_garbage(self, allocation_name):
        # A memo that holds its owner would keep every side of a run alive
        # until the cycle collector runs.
        game = dataclasses.replace(
            four_project_game(), allocation_rule=allocation_rule(allocation_name)
        )
        gc.collect()
        gc.disable()
        try:
            for mode in ("pessimistic", "optimistic", "anticipative"):
                check_fssp(game, "unrestricted", mode)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_profile_cap_bounds_the_whole_run(self):
        # Every check fits 2 * (2^4)^2 = 512 profiles, but the run's distinct
        # shortlists add up to 800.
        game = four_project_game()
        with pytest.raises(ResourceLimitError):
            check_fssp(game, "restricted", "pessimistic", Caps(profiles=512))
        verdict = check_fssp(game, "restricted", "pessimistic", Caps(profiles=800))
        assert verdict.to_jsonable() == check_fssp(game, "restricted", "pessimistic").to_jsonable()

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_matches_plain_loop_of_manipulation_checks(self, data):
        # check_fssp shares sides and skips those the value bound rules out;
        # the plain loop checks each deviation on its own, computing both sides.
        m = data.draw(st.integers(3, 4))
        costs = data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        instance = make_instance(costs, data.draw(st.integers(max(costs), sum(costs))))
        agents = data.draw(st.integers(2, 3))
        subsets = st.sets(st.sampled_from(instance.ids), min_size=1).map(frozenset)
        er2 = functools.partial(equal_representation, k=2)
        game = StageGame(
            instance=instance,
            shortlist_rule=data.draw(st.sampled_from([nomination, er2])),
            allocation_rule=allocation_rule(
                data.draw(st.sampled_from(["greedy-approval", "approval-maximising"]))
            ),
            rankings=tuple(data.draw(st.permutations(instance.ids)) for _ in range(agents)),
            awareness=tuple(data.draw(subsets) for _ in range(agents)),
            model=data.draw(st.sampled_from(["overlap", "cost"])),
        )
        for variant in ("restricted", "unrestricted"):
            for mode in ("pessimistic", "optimistic", "anticipative"):
                verdict = check_fssp(game, variant, mode)
                witness, checked = plain_fssp(game, variant, mode)
                assert verdict.checked == checked
                if witness is None:
                    assert verdict.holds
                else:
                    got = dict(verdict.witness)
                    del got["variant"], got["truthful_proposal"]
                    assert got == witness

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic"])
    def test_profile_cap_charges_skipped_sides(self, monkeypatch, mode):
        # The run computes only the two baseline sides on (1, 3), 2 * (2^2)^2
        # = 32 profiles; every deviation side is skipped by the value bound,
        # and its charge alone takes the run past a cap of 32.
        calls = []
        search = strategy._fstar_outcomes
        monkeypatch.setattr(strategy, "_fstar_outcomes",
                            lambda *args: calls.append(args[1].ids) or search(*args))
        game = skipping_game()
        assert check_fssp(game, "restricted", mode).holds
        assert calls == [(1, 3), (1, 3)]
        with pytest.raises(ResourceLimitError, match="needs 36 profiles"):
            check_fssp(game, "restricted", mode, Caps(profiles=32))

    def test_ballot_cap_charges_skipped_anticipative_sides(self):
        # Anticipated sides are computed on (1, 3) only; the skipped
        # deviation to (1, 2) reaches the 3-project shortlist (1, 2, 3).
        game = skipping_game()
        with pytest.raises(ResourceLimitError, match="best-response enumeration needs 3"):
            check_fssp(game, "restricted", "anticipative", Caps(ballots=2))
        verdict = check_fssp(game, "restricted", "anticipative", Caps(ballots=3))
        assert verdict.holds and verdict.checked == 4

    def test_deviation_pool_cap(self):
        # Restricted pools are the 3-project awareness sets; unrestricted
        # pools add the other agent's proposal, 4 projects in all.
        game = four_project_game()
        with pytest.raises(ResourceLimitError, match="deviation enumeration"):
            check_fssp(game, "unrestricted", "pessimistic", Caps(ballots=3))
        verdict = check_fssp(game, "restricted", "pessimistic", Caps(ballots=3))
        assert verdict.to_jsonable() == check_fssp(game, "restricted", "pessimistic").to_jsonable()

    def test_witness_replays(self):
        game = ten_project_game()
        verdict = check_fssp(game, "restricted", "anticipative")
        assert verdict.status == COUNTEREXAMPLE
        witness = verdict.witness
        agent = witness["agent"] - 1
        result = check_manipulation(
            game, agent, fs(*witness["deviation"]), "anticipative"
        )
        assert result.successful
        assert result.witness["baseline_outcome"] == witness["baseline_outcome"]
        assert result.witness["deviation_outcome"] == witness["deviation_outcome"]


class TestImplicationLattice:
    def test_crossed_awareness_cells_consistent(self):
        cells = fssp_cells(crossed_awareness_game())
        report = verify_fssp_implications([("crossed", cells, False)])
        assert report.consistent

    def test_pessimistic_success_implies_optimistic_success(self):
        # an exact pessimistic witness always contains a strict pair, which
        # by itself is an optimistic witness
        game = crossed_awareness_game()
        successes = 0
        for agent in range(game.agents):
            for deviation in subsets_ascending(game.deviation_pool(agent, "restricted")):
                pessimistic = check_manipulation(game, agent, deviation, "pessimistic")
                if pessimistic.successful:
                    successes += 1
                    assert check_manipulation(game, agent, deviation, "optimistic").successful
        assert successes > 0

    def test_unrestricted_safe_restricted_broken_is_permitted(self):
        cells = fssp_cells(crossed_awareness_game())
        assert not cells[("restricted", "pessimistic")].holds
        assert cells[("unrestricted", "pessimistic")].holds
        report = verify_fssp_implications([("crossed", cells, False)])
        assert report.consistent

    def test_fabricated_inconsistent_table_reported(self):
        holds = PropertyVerdict(HOLDS, None, True, 1)
        broken = PropertyVerdict(COUNTEREXAMPLE, {"agent": 1}, True, 1)
        cells = {
            ("restricted", "optimistic"): holds,
            ("restricted", "pessimistic"): broken,
            ("restricted", "anticipative"): holds,
            ("unrestricted", "optimistic"): holds,
            ("unrestricted", "pessimistic"): holds,
            ("unrestricted", "anticipative"): holds,
        }
        report = verify_fssp_implications([("fabricated", cells, False)])
        assert not report.consistent
        assert "pessimistic" in report.violations[0]["violation"]

    def test_saturated_table_requires_matching_scopes(self):
        holds = PropertyVerdict(HOLDS, None, True, 1)
        broken = PropertyVerdict(COUNTEREXAMPLE, {"agent": 1}, True, 1)
        cells = {(variant, mode): holds for variant in ("restricted", "unrestricted")
                 for mode in ("pessimistic", "optimistic", "anticipative")}
        cells[("unrestricted", "anticipative")] = broken
        cells[("unrestricted", "optimistic")] = broken
        report = verify_fssp_implications([("saturated", cells, True)])
        assert not report.consistent

    def test_inexact_cells_rejected(self):
        sampled = PropertyVerdict(HOLDS, None, False, 1)
        cells = {(variant, mode): sampled for variant in ("restricted", "unrestricted")
                 for mode in ("pessimistic", "optimistic", "anticipative")}
        with pytest.raises(ValidationError):
            verify_fssp_implications([("sampled", cells, False)])

    @pytest.mark.parametrize("cell, verdict, message", [
        (("restricted", "optimistic"), None,
         r"^table 't' is missing cell \('restricted', 'optimistic'\)$"),
        (("unrestricted", "anticipative"), PropertyVerdict(HOLDS, None, False, 1),
         r"^table 't' cell \('unrestricted', 'anticipative'\) is not exact$"),
    ])
    def test_malformed_tables_refused(self, cell, verdict, message):
        cells = {(variant, mode): PropertyVerdict(HOLDS, None, True, 1)
                 for variant in ("restricted", "unrestricted")
                 for mode in ("pessimistic", "optimistic", "anticipative")}
        if verdict is None:
            del cells[cell]
        else:
            cells[cell] = verdict
        with pytest.raises(ValidationError, match=message):
            verify_fssp_implications([("t", cells, False)])


class TestNominationClassCheck:
    def test_tiny_class_has_no_pessimistic_witness(self):
        verdict = check_nomination_fssp_class(
            greedy_approval, "overlap", "pessimistic",
            max_projects=2, max_agents=2, costs=(1,), max_budget=2,
        )
        assert verdict.holds and verdict.exact

    def test_each_side_charged_against_profile_cap(self):
        # The largest side is a 2-project shortlist among 2 agents: (2^2)^2 = 16.
        def check(profiles):
            return check_nomination_fssp_class(
                greedy_approval, "overlap", "pessimistic", max_projects=2, max_agents=2,
                costs=(1,), max_budget=2, caps=Caps(profiles=profiles),
            )

        with pytest.raises(ResourceLimitError):
            check(15)
        assert check(16).holds

    def test_anticipative_mode_rejected(self):
        with pytest.raises(ValidationError):
            check_nomination_fssp_class(greedy_approval, "overlap", "anticipative")

    # sha256 of the verdicts below, recorded before both stages shared one
    # search loop; any change to `checked` or a witness moves it.
    CLASS_SHA256 = "f39c97f5e1f07f189e14e834bb8f6383a6263ecdb067e8e7d26418c475e8562c"

    def test_class_verdicts_pinned(self):
        verdicts = []
        for name in ("greedy-approval", "approval-maximising"):
            for model in ("overlap", "cost"):
                for mode, agents in (("pessimistic", 2), ("optimistic", 3)):
                    verdicts.append(check_nomination_fssp_class(
                        allocation_rule(name), model, mode, max_agents=agents
                    ).to_jsonable())
        assert [(v["status"], v["checked"]) for v in verdicts[:2]] == [
            (HOLDS, 12327), (COUNTEREXAMPLE, 60)
        ]
        blob = json.dumps(verdicts, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.CLASS_SHA256
