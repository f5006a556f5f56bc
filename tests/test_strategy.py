import pytest

from pbstages.core import Caps, Instance, Project, ResourceLimitError, ValidationError
from pbstages.allocation import allocation_rule, greedy_approval
from pbstages.preferences import ideal_set
from pbstages.shortlisting import equal_representation, euclidean_metric, k_median, nomination
from pbstages.strategy import (
    StageGame,
    best_response,
    check_fssp,
    check_manipulation,
    check_nomination_fssp_class,
    f_star,
    fssp_cells,
    verify_fssp_implications,
)
from pbstages.verification import COUNTEREXAMPLE, HOLDS, PropertyVerdict

from conftest import fs, make_instance, ranking_from, unit_instance


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


class TestFStar:
    def test_withheld_favourite_second_stage(self):
        game = ten_project_game()
        shortlist = game.instance.restrict(fs(*range(2, 11)))
        tops = tuple(game.top_on(i, shortlist.ids) for i in range(5))
        got = f_star(greedy_approval, shortlist, tops, 0, game.rankings[0], "overlap")
        assert got == fs(2, 4, 5)

    def test_truthful_second_stage(self):
        game = ten_project_game()
        shortlist = game.instance.restrict(fs(*range(1, 10)))
        tops = tuple(game.top_on(i, shortlist.ids) for i in range(5))
        got = f_star(greedy_approval, shortlist, tops, 0, game.rankings[0], "overlap")
        assert got == fs(1, 2, 3)

    def test_never_worse_than_submitted_ballot(self):
        # replacing the agent's ballot with her best response can only help
        game = ten_project_game()
        shortlist = game.instance.restrict(fs(*range(1, 10)))
        tops = list(game.top_on(i, shortlist.ids) for i in range(5))
        from pbstages.preferences import allocation_value

        star = f_star(greedy_approval, shortlist, tuple(tops), 0, game.rankings[0], "overlap")
        plain = greedy_approval(shortlist, tuple(tops))
        ideal = game.top_on(0, shortlist.ids)
        assert allocation_value("overlap", ideal, star, shortlist) >= allocation_value(
            "overlap", ideal, plain, shortlist
        )


class TestCheckManipulation:
    def test_crossed_awareness_empty_deviation_pessimistic(self):
        game = crossed_awareness_game()
        result = check_manipulation(game, 0, fs(), "pessimistic")
        assert result.successful and result.exact

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
        assert result.successful and result.exact
        assert result.witness["baseline_shortlist"] == [4, 6, 7]
        assert result.witness["deviation_shortlist"] == [1, 2, 5]

    def test_identical_shortlists_never_pessimistically_successful(self):
        game = ten_project_game()
        result = check_manipulation(game, 0, fs(1, 4, 5), "pessimistic")
        assert result.verdict == "unsuccessful" and result.exact

    def test_optimistic_allows_lucky_pairs_on_equal_shortlists(self):
        # the optimistic notion only asks for one favourable profile pair,
        # so a no-op deviation counts as successful when outcomes vary
        game = crossed_awareness_game()
        result = check_manipulation(game, 0, fs(1), "optimistic")
        assert result.successful
        assert result.witness["baseline_shortlist"] == result.witness["deviation_shortlist"]

    def test_sampled_mode_never_proves_pessimistic(self):
        game = ten_project_game()
        result = check_manipulation(
            game, 0, fs(4, 5), "pessimistic", Caps(profiles=10), sample=40
        )
        assert result.verdict in ("unknown", "unsuccessful")
        assert not result.exact

    def test_anticipative_ignores_profile_cap(self):
        # anticipative verdicts evaluate exactly two profiles, so they stay
        # exact however small the profile-pair cap is
        game = ten_project_game()
        result = check_manipulation(
            game, 0, fs(4, 5, 10), "anticipative", Caps(profiles=1)
        )
        assert result.successful and result.exact

    def test_cap_without_sampling_raises(self):
        game = ten_project_game()
        with pytest.raises(ResourceLimitError):
            check_manipulation(game, 0, fs(4, 5), "pessimistic", Caps(profiles=10))


class TestCheckFssp:
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
        from pbstages.core import subsets_ascending

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


class TestNominationClassCheck:
    def test_tiny_class_has_no_pessimistic_witness(self):
        verdict = check_nomination_fssp_class(
            greedy_approval, "overlap", "pessimistic",
            max_projects=2, max_agents=2, costs=(1,), max_budget=2,
        )
        assert verdict.holds and verdict.exact

    def test_anticipative_mode_rejected(self):
        with pytest.raises(ValidationError):
            check_nomination_fssp_class(greedy_approval, "overlap", "anticipative")
