import functools
import hashlib
import itertools
import json
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from pbstages.core import Caps, ResourceLimitError, ValidationError, subsets_ascending
from pbstages.allocation import (
    PriorityTieBreak,
    allocation_rule,
    approval_maximising,
    greedy_approval,
    kernel_args,
    score_kernel,
)
from pbstages.fixtures import load_fixture
from pbstages.oracles import (
    approval_maximising_oracle,
    greedy_approval_oracle,
    repaired_value,
    second_stage_sp_oracle,
)
from pbstages.preferences import ideal_set, truthful_ballots, valuation
from pbstages.shortlisting import equal_representation, nomination
from pbstages.strategy import check_nomination_fssp_class
from pbstages.suites import (
    allocation_cases,
    random_ballots,
    random_instance,
    random_proposals,
    random_ranking,
    shortlisting_cases,
    sp_cases,
)
from pbstages.verification import (
    COUNTEREXAMPLE,
    HOLDS,
    _box_max,
    _first_profiles,
    _refutations,
    aggregate,
    check_allocation_axiom,
    check_non_wasteful,
    check_representation_efficiency,
    check_second_stage_sp,
    check_rules_coincide_on_unit_class,
    check_sp_over_unit_class,
    find_representative_domination,
    repair_gain,
)

from conftest import contrarian, fs, make_instance, unit_instance


def universe_domination(instance, proposals, shortlist):
    """Some set of any projects, the union's or not, that representatively
    dominates ``shortlist``, by a plain scan of every subset; None if none does."""
    limit = sum(instance.cost(p) for p in shortlist)
    before = [len(set(shortlist) & set(p)) for p in proposals]
    for size in range(len(instance) + 1):
        for candidate in itertools.combinations(instance.ids, size):
            if sum(instance.cost(p) for p in candidate) > limit:
                continue
            after = [len(set(candidate) & set(p)) for p in proposals]
            if min(a - b for a, b in zip(after, before)) >= 0 and after != before:
                return frozenset(candidate)
    return None


def counted_kernel(monkeypatch, rule):
    """Route the searches' kernel for ``rule`` through a counter; return the levels of each call."""
    calls = []
    kernel = score_kernel(rule)

    def counted(*args):
        calls.append(args[3])
        return kernel(*args)

    monkeypatch.setattr("pbstages.verification.score_kernel", lambda rule: counted)
    return calls


def flat_deviation_scan(rule, instance, rankings, ballots, model, agents, deviations):
    """The first (agent, deviation) beating her truthful value, by plain calls of ``rule``.

    Each agent in ``agents`` in turn puts her ideal set, then each
    deviation, into her slot of ``ballots``.  Returns the witness's fields,
    the count of deviations tried, and the number of rule calls made.
    """
    tops = truthful_ballots(instance, rankings)
    value = {"overlap": len, "cost": instance.total_cost}[model]
    checked = calls = 0
    for agent in agents:
        def outcome(ballot):
            nonlocal calls
            calls += 1
            return rule(instance, [ballot if i == agent else b for i, b in enumerate(ballots)])

        ideal = tops[agent]
        truthful = outcome(ideal)
        for deviation in deviations:
            checked += 1
            manipulated = outcome(deviation)
            if value(ideal & manipulated) > value(ideal & truthful):
                profile = [deviation if i == agent else b for i, b in enumerate(ballots)]
                fields = {
                    "agent": agent + 1,
                    "profile": [sorted(b) for b in profile],
                    "truthful_outcome": sorted(truthful),
                    "manipulated_outcome": sorted(manipulated),
                }
                return fields, checked, calls
    return None, checked, calls


def constant_empty(instance, proposals):
    return frozenset()


class TestNonWasteful:
    def test_nomination_holds_on_suite(self):
        verdicts = [
            check_non_wasteful(nomination, instance, proposals)
            for instance, proposals in shortlisting_cases(3, 150)
        ]
        assert aggregate(verdicts).holds

    def test_dummy_rule_fails(self, ten_project_instance):
        proposals = (fs(1, 4, 5), fs(2, 6))
        verdict = check_non_wasteful(constant_empty, ten_project_instance, proposals)
        assert not verdict.holds
        assert verdict.witness["shortlist"] == []

    def test_doubled_budget_representation_rule_holds(self):
        rule = lambda i, p: equal_representation(i, p, 2)
        verdicts = [
            check_non_wasteful(rule, instance, proposals)
            for instance, proposals in shortlisting_cases(4, 80, max_projects=5)
        ]
        assert aggregate(verdicts).holds


class TestRepresentativeDomination:
    def test_single_agent_own_proposal_undominated(self):
        instance = unit_instance(4, 2)
        proposals = (fs(1, 2),)
        assert find_representative_domination(instance, proposals, fs(1, 2)) is None

    def test_equal_representation_outputs_undominated(self):
        rule = lambda i, p: equal_representation(i, p, 1)
        for instance, proposals in shortlisting_cases(6, 80, max_projects=5):
            assert check_representation_efficiency(rule, instance, proposals).holds

    def test_support_blind_shortlist_dominated(self):
        instance = unit_instance(3, 2)
        proposals = (fs(2), fs(2), fs(1, 2), fs(3))
        found = find_representative_domination(instance, proposals, fs(1, 3))
        assert found == fs(2, 3)

    def test_union_restriction_matches_universe_search(self):
        rng = Random(9)
        for _ in range(60):
            instance = random_instance(rng, max_projects=5)
            proposals = random_proposals(rng, instance, rng.randint(1, 3))
            shortlist = equal_representation(instance, proposals, 1)
            restricted = find_representative_domination(instance, proposals, shortlist)
            assert (restricted is None) == (
                universe_domination(instance, proposals, shortlist) is None
            )

    def test_cap_enforced(self, ten_project_instance):
        proposals = (fs(*range(1, 10)),)
        with pytest.raises(ResourceLimitError):
            find_representative_domination(
                ten_project_instance, proposals, fs(1), Caps(domination=4)
            )


class TestAllocationAxioms:
    @pytest.mark.parametrize("name", ["greedy-approval", "approval-maximising"])
    @pytest.mark.parametrize("axiom", ["exhaustive", "unanimous"])
    def test_rules_satisfy_axiom_on_suite(self, name, axiom):
        rule = allocation_rule(name)
        verdict = check_allocation_axiom(rule, axiom, allocation_cases(12, 200, axiom))
        assert verdict.holds, verdict.witness

    def test_greedy_strongly_unanimous_on_suite(self):
        rule = allocation_rule("greedy-approval")
        cases = allocation_cases(12, 200, "strongly-unanimous")
        assert check_allocation_axiom(rule, "strongly-unanimous", cases).holds

    def test_score_maximising_strong_unanimity_tie_gap(self):
        # exact score ties let a deviant displace the shared ballot: with
        # two agents on {3} and one on {1, 2}, both {3} and {1, 2} score 2
        # and the canonical tie-break picks {1, 2}
        rule = allocation_rule("approval-maximising")
        case = (make_instance([1, 1, 2], 2), fs(3), 3, 0, fs(1, 2))
        verdict = check_allocation_axiom(rule, "strongly-unanimous", [case])
        assert not verdict.holds
        assert verdict.witness["outcome"] == [1, 2]

    def test_score_maximising_strong_unanimity_outscored(self):
        # not only a tie-break effect: with two agents on {4} and one on
        # {1, 2, 3}, the deviant's set scores 3 against the shared ballot's
        # 2; greedy approval funds project 4 first and keeps the shared ballot
        case = (make_instance([1, 1, 1, 4], 4), fs(4), 3, 0, fs(1, 2, 3))
        maximising = allocation_rule("approval-maximising")
        verdict = check_allocation_axiom(maximising, "strongly-unanimous", [case])
        assert not verdict.holds
        assert verdict.witness["outcome"] == [1, 2, 3]
        greedy = allocation_rule("greedy-approval")
        assert check_allocation_axiom(greedy, "strongly-unanimous", [case]).holds

    def test_dummy_rule_not_exhaustive(self):
        rule = lambda instance, ballots: frozenset()
        cases = allocation_cases(1, 5, "exhaustive")
        verdict = check_allocation_axiom(rule, "exhaustive", cases)
        assert not verdict.holds

    @pytest.mark.parametrize("axiom, case, message", [
        ("bogus", None, "unknown allocation axiom"),
        ("unanimous", (unit_instance(3, 1), fs(1, 2), 2), "feasible shared ballot"),
        ("strongly-unanimous", (unit_instance(3, 1), fs(1), 2, 0, fs()), "3\\+ agents"),
        ("strongly-unanimous", (unit_instance(3, 1), fs(1, 2), 3, 0, fs()), "feasible shared"),
    ])
    def test_malformed_cases_refused(self, axiom, case, message):
        with pytest.raises(ValidationError, match=message):
            check_allocation_axiom(greedy_approval, axiom, [case])


class TestSecondStageSp:
    def test_full_enumeration_on_tiny_instance(self):
        instance = unit_instance(2, 1)
        rankings = ((1, 2), (2, 1))
        verdict = check_second_stage_sp(greedy_approval, instance, rankings, "overlap")
        assert verdict.holds and verdict.exact
        assert verdict.params["search"] == "full"

    def test_refuting_full_search_reads_one_grid(self, monkeypatch):
        # A refuted check reads the ordered scan's first witness off the
        # grid that refuted: one kernel call in all, and no scan.  The
        # witness comes at the 13th profile of (2^3)^2, its second agent.
        calls = counted_kernel(monkeypatch, greedy_approval)
        verdict = check_second_stage_sp(
            greedy_approval, make_instance([1, 1, 2], 3), ((1, 2, 3), (3, 2, 1)), "cost",
            search="full",
        )
        assert not verdict.holds and verdict.checked == 13 * 2
        assert verdict.witness["profile"] == [[1], [3]] and verdict.witness["agent"] == 2
        assert calls == [[range(3)] * 3]

    @pytest.mark.parametrize("approximate", [False, True])
    def test_holding_full_search_stays_on_the_grid(self, monkeypatch, approximate):
        # One kernel call on the whole score grid decides every agent; no
        # profile is enumerated.
        calls = counted_kernel(monkeypatch, greedy_approval)
        instance = unit_instance(4, 2)
        rankings = ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3))
        verdict = check_second_stage_sp(
            greedy_approval, instance, rankings, "overlap", approximate=approximate,
            search="full", agents=[0, 2],
        )
        assert verdict.holds and verdict.exact
        assert verdict.checked == 2 * (2**4) ** 3
        assert calls == [[range(4)] * 4]

    def test_fixed_others_reads_one_box_per_agent(self, monkeypatch):
        # Each pool agent's outcomes, her truthful one included, come from
        # one kernel call on the unit box above the others' score vector.
        calls = counted_kernel(monkeypatch, greedy_approval)
        verdict = check_second_stage_sp(
            greedy_approval, unit_instance(3, 1), ((1, 2, 3), (3, 2, 1), (2, 1, 3)), "overlap",
            search="fixed-others", agents=[2, 0],
        )
        assert verdict.holds and verdict.checked == 2 * 2**3
        assert calls == [[(1, 2), (0, 1), (1, 2)], [(0, 1), (1, 2), (1, 2)]]

    def test_deviation_list_makes_point_calls_only(self, monkeypatch):
        # On 30 projects each agent makes one point call per deviation and
        # one for her truthful outcome, and no ballot list is built.
        calls = counted_kernel(monkeypatch, greedy_approval)

        def refused(pids):
            raise AssertionError("every ballot was listed")

        monkeypatch.setattr("pbstages.verification.subsets_ascending", refused)
        ranking = tuple(range(1, 31))
        verdict = check_second_stage_sp(
            greedy_approval, unit_instance(30, 2), (ranking, ranking[::-1]), "overlap",
            search="fixed-others", deviations=[fs(), fs(3), fs(1, 30)],
        )
        assert verdict.checked == 2 * 3
        assert len(calls) == 2 * (3 + 1)
        assert all(len(level) == 1 for levels in calls for level in levels)

    def test_deviation_list_stops_at_first_witness(self, monkeypatch):
        # The second pool agent's second deviation is the first to beat her
        # truthful value: the point calls stop there, after the first
        # agent's truthful call and four deviations and the second agent's
        # truthful call and two deviations.
        instance = make_instance([1, 4, 4, 2, 1], 9)
        rankings = ((4, 3, 2, 5, 1), (3, 2, 4, 1, 5), (2, 3, 4, 1, 5))
        ballots = [fs(1, 2, 4), fs(1, 2, 3, 4, 5), fs(2, 4)]
        deviations = [fs(1, 2), fs(1, 2, 3), fs(4), fs(2, 4)]
        agents = [2, 0, 1]
        fields, checked, point_calls = flat_deviation_scan(
            greedy_approval_oracle, instance, rankings, ballots, "cost", agents, deviations
        )
        assert (fields["agent"], checked, point_calls) == (1, 4 + 1 + 1, (1 + 4) + (1 + 2))
        calls = counted_kernel(monkeypatch, greedy_approval)
        verdict = check_second_stage_sp(
            greedy_approval, instance, rankings, "cost", search="fixed-others",
            ballots=ballots, agents=agents, deviations=deviations,
        )
        assert not verdict.holds and verdict.checked == checked
        assert {key: verdict.witness[key] for key in fields} == fields
        assert len(calls) == point_calls
        assert all(len(level) == 1 for levels in calls for level in levels)

    def test_auto_falls_back_to_fixed_others(self):
        instance = unit_instance(6, 3)
        rankings = tuple(tuple(range(1, 7)) for _ in range(4))
        verdict = check_second_stage_sp(
            greedy_approval, instance, rankings, "overlap", caps=Caps(profiles=1000)
        )
        assert verdict.params["search"] == "fixed-others"
        assert not verdict.exact

    def test_full_search_past_profile_cap_refused(self):
        # 3 projects and 2 agents give (2^3)^2 = 64 profiles.
        instance = unit_instance(3, 1)
        rankings = ((1, 2, 3), (3, 2, 1))
        with pytest.raises(ResourceLimitError):
            check_second_stage_sp(
                greedy_approval, instance, rankings, "overlap", search="full",
                caps=Caps(profiles=63),
            )
        verdict = check_second_stage_sp(
            greedy_approval, instance, rankings, "overlap", search="full", caps=Caps(profiles=64)
        )
        assert verdict.holds and verdict.exact

    # Refutations of sp_cases(3, 200) past the default profile cap, with the
    # witness and count of the ordered profile scan under a raised cap.  That
    # scan took 47 s to reach case 87's witness on a 2-vCPU Xeon.
    @pytest.mark.parametrize("case, rule, model, approximate, agent, profile, outcomes, checked", [
        (12, "approval-maximising", "cost", False, 3, [[], [], [1], [2, 3]],
         ([2, 3, 6], [1, 3]), 283),
        (28, "greedy-approval", "cost", False, 4, [[], [], [2, 4], [5]],
         ([1, 2, 3, 4], [2, 4, 5]), 2628),
        (87, "approval-maximising", "cost", True, 3, [[6], [1, 6], [4, 5], [1, 4, 5, 6]],
         ([1, 2, 6], [1, 4, 5]), 34_101_479),
        (185, "approval-maximising", "overlap", True, 3, [[3, 4], [3, 4], [1, 2, 6], [3, 4]],
         ([3, 4], [1, 2, 4, 6]), 12_788_531),
    ])
    def test_past_cap_witness_pinned(
        self, case, rule, model, approximate, agent, profile, outcomes, checked
    ):
        instance, rankings, _ = next(itertools.islice(sp_cases(3, 200), case, None))
        assert (2 ** len(instance.ids)) ** len(rankings) > Caps().profiles
        verdict = check_second_stage_sp(
            allocation_rule(rule), instance, rankings, model, approximate=approximate,
            search="full", caps=Caps(profiles=10**30),
        )
        witness = verdict.witness
        assert verdict.exact and verdict.checked == checked
        assert (witness["agent"], witness["profile"]) == (agent, profile)
        assert (witness["truthful_outcome"], witness["manipulated_outcome"]) == outcomes

    def test_fixed_others_past_profile_cap_refused(self):
        # 2 agents each try the 2^3 ballots of 3 projects, 16 in all, or
        # each of 2 listed deviations, 4 in all.
        instance = unit_instance(3, 1)
        rankings = ((1, 2, 3), (3, 2, 1))
        for deviations, needed in ((None, 16), ([fs(1), fs(2, 3)], 4)):
            with pytest.raises(ResourceLimitError):
                check_second_stage_sp(
                    greedy_approval, instance, rankings, "overlap", search="fixed-others",
                    deviations=deviations, caps=Caps(profiles=needed - 1),
                )
            verdict = check_second_stage_sp(
                greedy_approval, instance, rankings, "overlap", search="fixed-others",
                deviations=deviations, caps=Caps(profiles=needed),
            )
            assert verdict.holds and verdict.checked == needed

    @pytest.mark.parametrize("search", ["auto", "full"])
    def test_deviations_outside_fixed_others_refused(self, search):
        # "auto" resolves to "full" here, which would try every ballot and
        # could report one outside the list.
        instance = unit_instance(2, 1)
        rankings = ((1, 2), (2, 1))
        with pytest.raises(ValidationError):
            check_second_stage_sp(
                greedy_approval, instance, rankings, "overlap", search=search,
                deviations=[fs(2)],
            )
        verdict = check_second_stage_sp(
            greedy_approval, instance, rankings, "overlap", search="fixed-others",
            deviations=[fs(2)],
        )
        assert verdict.checked == 2

    def test_partial_rankings_vote_their_ranked_ideal(self):
        # Rankings that leave projects out: the others' truthful ballots are
        # each agent's ideal set among the projects she ranks.
        instance = make_instance([2, 1, 1, 1], 3)
        rankings = ((1, 3), (4, 2, 3))
        truthful = check_second_stage_sp(
            greedy_approval, instance, rankings, "cost", search="fixed-others"
        )
        explicit = check_second_stage_sp(
            greedy_approval, instance, rankings, "cost", search="fixed-others",
            ballots=(fs(1, 3), fs(2, 3, 4)),
        )
        assert truthful.to_jsonable() == explicit.to_jsonable()

    def test_witness_replays(self):
        # greedy approval is manipulable on mixed costs: re-run the recorded
        # profile and confirm both outcomes
        instance = make_instance([3, 3, 1, 1, 1], 6)
        rankings = (
            (2, 3, 4, 5, 1),
            (1, 2, 3, 4, 5),
            (1, 2, 3, 4, 5),
        )
        ballots = (fs(2, 3, 4, 5), fs(1), fs(1))
        verdict = check_second_stage_sp(
            greedy_approval, instance, rankings, "overlap",
            approximate=True, search="fixed-others", ballots=ballots,
        )
        assert not verdict.holds
        witness = verdict.witness
        profile = tuple(fs(*b) for b in witness["profile"])
        agent = witness["agent"] - 1
        assert greedy_approval(instance, profile) == fs(*witness["manipulated_outcome"])
        truthful = tuple(
            fs(*witness["ideal"]) if i == agent else profile[i] for i in range(3)
        )
        assert greedy_approval(instance, truthful) == fs(*witness["truthful_outcome"])

    def test_verdicts_agree_across_models_on_unit_costs(self):
        rng = Random(41)
        for _ in range(40):
            m = rng.randint(2, 4)
            instance = unit_instance(m, rng.randint(1, m))
            rankings = tuple(random_ranking(rng, instance) for _ in range(rng.randint(1, 3)))
            overlap = check_second_stage_sp(greedy_approval, instance, rankings, "overlap")
            cost = check_second_stage_sp(greedy_approval, instance, rankings, "cost")
            assert overlap.holds == cost.holds


    @pytest.mark.parametrize("rankings, options, message", [
        ((), {}, "at least one agent"),
        (((1, 2), (2, 1)), {"search": "bogus"}, "unknown search mode"),
        (((1, 2), (2, 1)), {"search": "sample"}, "unknown search mode"),
        (((1, 2), (2, 1)), {"search": "fixed-others", "ballots": [fs(1)]}, "every agent"),
    ])
    def test_malformed_search_refused(self, rankings, options, message):
        with pytest.raises(ValidationError, match=message):
            check_second_stage_sp(
                greedy_approval, unit_instance(2, 1), rankings, "overlap", **options
            )

    @pytest.mark.parametrize("agents", [[-1], [9], [0, 0], [], [True], [1.0]])
    def test_malformed_agents_rejected(self, agents):
        doc = load_fixture("greedy-overlap-gap")
        with pytest.raises(ValidationError):
            check_second_stage_sp(
                greedy_approval, doc.instance, doc.rankings, "overlap", agents=agents
            )

    def test_agents_in_range_accepted(self):
        doc = load_fixture("greedy-overlap-gap")
        verdict = check_second_stage_sp(
            greedy_approval, doc.instance, doc.rankings, "overlap", agents=[2, 0]
        )
        assert verdict.params["agents"] == [3, 1]

    # sha256 of the fixed-others verdicts below, recorded before the search
    # ran on score vectors; any change to `checked` or a witness moves it.
    FIXED_OTHERS_SHA256 = "566de2039671b26692f60edfb6c59c8c1a57a01d8d5a11003f50bb664a0f1138"

    def test_fixed_others_verdicts_pinned(self):
        verdicts = []
        for instance, rankings, ballots in sp_cases(2026, 40, max_projects=6, max_cost=6):
            for rule in ("greedy-approval", "approval-maximising"):
                for model in ("cost", "overlap"):
                    for approximate in (False, True):
                        verdicts.append(check_second_stage_sp(
                            allocation_rule(rule), instance, rankings, model,
                            approximate=approximate, search="fixed-others", ballots=ballots,
                        ).to_jsonable())
        blob = json.dumps(verdicts, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.FIXED_OTHERS_SHA256


ORACLES = {"greedy-approval": greedy_approval_oracle,
           "approval-maximising": approval_maximising_oracle}


@st.composite
def sp_scenarios(draw, max_projects, max_agents):
    """(instance, rankings, ballots, pool) with costs <= 4 and one ranking per agent.

    ``pool`` is ``None`` (every agent may manipulate) or a non-empty list of
    distinct agent indices, in the order the search tries them.
    """
    m = draw(st.integers(1, max_projects))
    costs = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    instance = make_instance(costs, draw(st.integers(max(costs), sum(costs))))
    n = draw(st.integers(1, max_agents))
    rankings = tuple(draw(st.permutations(list(instance.ids))) for _ in range(n))
    ballots = tuple(
        frozenset(draw(st.sets(st.sampled_from(instance.ids)))) for _ in range(n)
    )
    agents = st.permutations(range(n)).flatmap(
        lambda order: st.integers(1, n).map(lambda k: list(order[:k]))
    )
    pool = draw(st.none() | agents)
    return instance, rankings, ballots, pool


# Scenarios small enough for a plain scan of the oracles: up to 4
# projects with 2 agents, or up to 3 agents on 3 projects; 1 agent included.
FULL_SCENARIOS = st.one_of(sp_scenarios(4, 2), sp_scenarios(3, 3))


class TestGridClosedForms:
    """The score grid's one-pass box maxima and first-profile indices against brute force."""

    @settings(deadline=None, max_examples=100)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2))
    def test_box_max_matches_brute_force(self, data, m, n, extra):
        side = n + 1 + extra
        keys = data.draw(st.lists(st.integers(0, 50), min_size=side**m, max_size=side**m))
        best = _box_max(list(keys), side, m)

        def index(point):
            return sum(t * side**j for j, t in enumerate(point))

        for point in itertools.product(range(side - 1), repeat=m):
            corners = itertools.product(*[(t, t + 1) for t in point])
            assert best[index(point)] == max(keys[index(c)] for c in corners)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_first_profile_index_matches_product_scan(self, m, n, extra):
        side = n + 1 + extra
        first = {}
        for position, masks in enumerate(itertools.product(range(2**m), repeat=n - 1)):
            scores = tuple(sum(mask >> j & 1 for mask in masks) for j in range(m))
            first.setdefault(scores, position)
        points, indices = _first_profiles(n, m, side)
        vectors = [tuple(p // side**j % side for j in range(m)) for p in points]
        assert sorted(vectors) == sorted(first)
        assert indices == [first[s] for s in vectors]


class TestSecondStageSpAgainstOracles:
    """The score-vector search against a plain scan of the oracle rules."""

    def agree(self, rule, slow, scenario, model, approximate, **search):
        instance, rankings, ballots, pool = scenario
        verdict = check_second_stage_sp(
            rule, instance, rankings, model, approximate=approximate, agents=pool, **search
        )
        fixed = ballots if search["search"] == "fixed-others" else None
        witness, checked = second_stage_sp_oracle(
            slow, instance, truthful_ballots(instance, rankings), model, approximate, fixed, pool
        )
        assert (verdict.witness, verdict.checked) == (witness, checked)
        assert verdict.holds == (witness is None)
        return verdict.to_jsonable()

    # Few draws refute, so besides one agent the examples pin two
    # refutations, with 2 and 3 agents, and the 3-agent one with only the
    # third and first agents, in that order, free to manipulate.  In the
    # last both agents manipulate in the first refuted profile, and the
    # second, tried first, gives the witness.
    @settings(deadline=None, max_examples=60)
    @given(FULL_SCENARIOS, st.sampled_from(sorted(ORACLES)),
           st.sampled_from(["overlap", "cost"]), st.booleans())
    @example(
        (make_instance([1, 2, 1], 2), ((3, 1, 2),), (), None), "approval-maximising", "cost",
        True,
    )
    @example(
        (make_instance([4, 1, 2], 6), ((3, 2, 1), (3, 2, 1)), (), None), "greedy-approval",
        "cost", False,
    )
    @example(
        (make_instance([4, 2, 4], 9), ((2, 3, 1), (2, 1, 3), (2, 3, 1)), (), None),
        "approval-maximising", "cost", False,
    )
    @example(
        (make_instance([4, 2, 4], 9), ((2, 3, 1), (2, 1, 3), (2, 3, 1)), (), [2, 0]),
        "approval-maximising", "cost", False,
    )
    @example(
        (make_instance([2, 3, 4, 3], 10), ((3, 1, 4, 2), (4, 2, 1, 3)), (), [1, 0]),
        "greedy-approval", "cost", False,
    )
    def test_full(self, scenario, rule, model, approximate):
        verdict = self.agree(
            allocation_rule(rule), ORACLES[rule], scenario, model, approximate, search="full"
        )
        # Every refutation read off the grid, not only the first, is a
        # manipulation by its first beating ballot on the oracle rule, and
        # the grid yields one exactly where the scan refutes.
        instance, rankings, _, pool = scenario
        n = len(rankings)
        grid = score_kernel(allocation_rule(rule))(
            *kernel_args(instance), [range(n + 1)] * len(instance.ids)
        )
        tops = truthful_ballots(instance, rankings)
        every = subsets_ascending(instance.ids)
        worth = {"overlap": len, "cost": instance.total_cost}[model]
        refuted = False
        for agent in range(n) if pool is None else pool:
            ideal = tops[agent]
            for others, mask, truthful, manipulated in _refutations(
                grid, instance, n, ideal, model, approximate
            ):
                refuted = True
                # The others' profile from its index in product order, first ballot highest.
                m = len(instance.ids)
                profile = [every[others >> m * i & 2**m - 1] for i in reversed(range(n - 1))]

                def outcome(ballot):
                    return ORACLES[rule](instance, profile[:agent] + [ballot] + profile[agent:])

                assert outcome(ideal) == truthful and outcome(every[mask]) == manipulated
                bar = (
                    repaired_value(model, ideal, truthful, instance)
                    if approximate
                    else worth(ideal & truthful)
                )
                gains = [worth(ideal & outcome(b)) for b in every[: mask + 1]]
                assert max(gains[:-1], default=bar) <= bar < gains[-1]
        assert refuted == (verdict["status"] == COUNTEREXAMPLE)

    @settings(deadline=None, max_examples=40)
    @given(st.data(), st.sampled_from(["overlap", "cost"]), st.booleans())
    def test_full_with_policy(self, data, model, approximate):
        scenario = data.draw(FULL_SCENARIOS)
        subsets = st.sets(st.sampled_from(scenario[0].ids)).map(frozenset)
        policy = PriorityTieBreak(tuple(data.draw(st.lists(subsets, max_size=5, unique=True))))
        self.agree(
            functools.partial(approval_maximising, policy=policy),
            functools.partial(approval_maximising_oracle, policy=policy),
            scenario, model, approximate, search="full",
        )

    @settings(deadline=None, max_examples=60)
    @given(sp_scenarios(5, 4), st.sampled_from(sorted(ORACLES)),
           st.sampled_from(["overlap", "cost"]), st.booleans())
    def test_fixed_others(self, scenario, rule, model, approximate):
        self.agree(allocation_rule(rule), ORACLES[rule], scenario, model, approximate,
                   search="fixed-others", ballots=scenario[2])

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_closed_form_bar_is_repaired_value(self, data):
        instance, *_ = data.draw(sp_scenarios(6, 1))
        subsets = st.sets(st.sampled_from(instance.ids)).map(frozenset)
        ideal, outcome = data.draw(subsets), data.draw(subsets)
        for model in ("overlap", "cost"):
            value = valuation(model, ideal, instance)
            closed = value(outcome) + repair_gain(value, ideal, outcome)
            assert closed == repaired_value(model, ideal, outcome, instance)


class TestUnitClassChecks:
    @pytest.mark.parametrize("name", ["greedy-approval", "approval-maximising"])
    @pytest.mark.parametrize("model", ["overlap", "cost"])
    def test_rules_strategyproof_on_unit_class(self, name, model):
        rule = allocation_rule(name)
        verdict = check_sp_over_unit_class(rule, model, max_projects=3, max_agents=2)
        assert verdict.holds and verdict.exact

    def test_rules_coincide(self):
        verdict = check_rules_coincide_on_unit_class(
            allocation_rule("greedy-approval"),
            allocation_rule("approval-maximising"),
            max_projects=3,
            max_agents=2,
        )
        assert verdict.holds and verdict.exact

    def test_rules_differ_witness_replays(self):
        verdict = check_rules_coincide_on_unit_class(greedy_approval, contrarian)
        assert verdict.status == COUNTEREXAMPLE and verdict.exact and verdict.checked == 20
        witness = verdict.witness
        assert witness == {
            "kind": "rules-differ",
            "instance": {"costs": [1, 1], "budget": 1},
            "ballots": [[2]],
            "first_outcome": [2],
            "second_outcome": [1],
        }
        instance = make_instance(witness["instance"]["costs"], witness["instance"]["budget"])
        ballots = tuple(fs(*b) for b in witness["ballots"])
        assert greedy_approval(instance, ballots) == fs(*witness["first_outcome"])
        assert contrarian(instance, ballots) == fs(*witness["second_outcome"])

    CLASS_CHECKS = {
        "sp": functools.partial(check_sp_over_unit_class, greedy_approval, "overlap"),
        "coincide": functools.partial(
            check_rules_coincide_on_unit_class, greedy_approval, approval_maximising
        ),
        "nomination": functools.partial(check_nomination_fssp_class, greedy_approval, "overlap"),
    }

    @pytest.mark.parametrize("check, bounds", [
        ("sp", {"max_projects": 0}),
        ("sp", {"max_agents": 0}),
        ("coincide", {"max_projects": 0}),
        ("coincide", {"max_agents": 0}),
        ("nomination", {"max_projects": 0}),
        ("nomination", {"max_agents": 0}),
        ("nomination", {"costs": ()}),
        ("nomination", {"costs": (5,), "max_budget": 3}),
    ])
    def test_empty_class_refused(self, check, bounds):
        # A class with no instance or no agent count would "hold" with nothing checked.
        with pytest.raises(ValidationError, match="no instance or no agent count"):
            self.CLASS_CHECKS[check](**bounds)

    def test_cap_enforced(self):
        # 4 projects and 3 agents need (2^4)^3 = 4,096 profiles.
        rule = allocation_rule("greedy-approval")
        with pytest.raises(ResourceLimitError):
            check_sp_over_unit_class(rule, "overlap", caps=Caps(profiles=4095))
        assert check_sp_over_unit_class(
            rule, "overlap", max_projects=2, max_agents=2, caps=Caps(profiles=16)
        ).holds

    # sha256 of the verdicts below, recorded before both stages shared one
    # search loop; any change to `checked` or a witness moves it.
    UNIT_CLASS_SHA256 = "f42c594c39be6a721b4fb170945d4d78d6acb981e0a1668314a4fbc036fd1c5f"

    def test_unit_class_verdicts_pinned(self):
        verdicts = []
        for rule in (greedy_approval, allocation_rule("approval-maximising")):
            for model in ("overlap", "cost"):
                for approximate in (False, True):
                    verdicts.append(check_sp_over_unit_class(
                        rule, model, max_projects=3, max_agents=3, approximate=approximate,
                    ).to_jsonable())
        assert {(v["status"], v["checked"]) for v in verdicts} == {(HOLDS, 8708)}
        blob = json.dumps(verdicts, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.UNIT_CLASS_SHA256

    @staticmethod
    def demoting_kernel(ids, costs, budget, levels):
        """Greedy approval, except that a project with 2 or more approvals is funded last."""
        out = []
        for point in itertools.product(*reversed(levels)):
            scores = point[::-1]
            chosen, left = [], budget
            for j in sorted(range(len(ids)), key=lambda j: (scores[j] >= 2, -scores[j])):
                if costs[j] <= left:
                    chosen.append(ids[j])
                    left -= costs[j]
            out.append(frozenset(chosen))
        return out

    @pytest.mark.parametrize("model", ["overlap", "cost"])
    def test_refuting_rule_witness_pinned(self, monkeypatch, model):
        # No declared rule refutes the class, so a kernel that punishes a
        # second approval drives the witness path.  The witness needs two
        # agents, so it also pins the order of the others' profiles.
        monkeypatch.setattr(
            "pbstages.verification.score_kernel", lambda rule: self.demoting_kernel
        )
        verdict = check_sp_over_unit_class(greedy_approval, model, max_projects=3, max_agents=3)
        assert verdict.status == COUNTEREXAMPLE and verdict.exact and verdict.checked == 41
        assert verdict.witness == {
            "kind": "second-stage-manipulation",
            "instance": {"budget": 1, "costs": {"1": 1, "2": 1}},
            "agent": 1,
            "model": model,
            "approximate": False,
            "profile": [[], [1]],
            "ideal": [1],
            "truthful_outcome": [2],
            "manipulated_outcome": [1],
            "truthful_value": 0,
            "repaired_value": 1,
            "manipulated_value": 1,
        }
        approximate = check_sp_over_unit_class(
            greedy_approval, model, max_projects=3, max_agents=3, approximate=True
        )
        assert approximate.holds and approximate.exact and approximate.checked == 8708

    @staticmethod
    def tie_flipping_kernel(ids, costs, budget, levels):
        """Greedy approval, except that ties go to the larger id once a project has 2 approvals."""
        out = []
        for point in itertools.product(*reversed(levels)):
            scores = point[::-1]
            flip = -1 if 2 in scores else 1
            chosen, left = [], budget
            for j in sorted(range(len(ids)), key=lambda j: (-scores[j], flip * j)):
                if costs[j] <= left:
                    chosen.append(ids[j])
                    left -= costs[j]
            out.append(frozenset(chosen))
        return out

    @staticmethod
    def flat_scan(kernel, model, approximate, max_projects, max_agents):
        """:func:`check_sp_over_unit_class`'s (witness, checked) for the rule of ``kernel``.

        Every instance, agent count and ideal set in turn, with every
        profile of the others in product order, and in each the first
        agent trying every ballot.
        """
        def rule(instance, ballots):
            ids = instance.ids
            scores = [sum(pid in ballot for ballot in ballots) for pid in ids]
            costs = [instance.cost(pid) for pid in ids]
            return kernel(ids, costs, instance.budget, [(s,) for s in scores])[0]

        checked = 0
        for m in range(1, max_projects + 1):
            for cost in (1, 2):
                for slots in range(1, m + 1):
                    instance = make_instance([cost] * m, cost * slots)
                    for n in range(1, max_agents + 1):
                        for ideal in map(frozenset, itertools.combinations(instance.ids, slots)):
                            # With the manipulator in the last slot, the scan's
                            # product order tries her ballot innermost.
                            witness, tried = second_stage_sp_oracle(
                                rule, instance, [ideal] * n, model, approximate, agents=[n - 1]
                            )
                            checked += tried
                            if witness is not None:
                                *others, ballot = witness["profile"]
                                witness.update(agent=1, profile=[ballot, *others])
                                return witness, checked
        return None, checked

    # The tie-flipping rule's first witness is not at the first ballot, so
    # it also pins that the others' profile is tried before her ballot.
    @pytest.mark.parametrize("kernel", ["demoting_kernel", "tie_flipping_kernel"])
    @pytest.mark.parametrize("size", [(2, 2), (3, 3)])
    def test_matches_flat_scan(self, monkeypatch, kernel, size):
        kernel = getattr(self, kernel)
        monkeypatch.setattr("pbstages.verification.score_kernel", lambda rule: kernel)
        for model in ("overlap", "cost"):
            for approximate in (False, True):
                verdict = check_sp_over_unit_class(
                    greedy_approval, model, *size, approximate=approximate
                )
                assert (verdict.witness, verdict.checked) == self.flat_scan(
                    kernel, model, approximate, *size
                )

    def test_contrarian_refuted_by_plain_scan(self):
        # The first agent approves nothing and gets her ideal project; voting
        # it would hand the budget to the other project.  With one project
        # added back the truthful outcome is as good, so the approximate
        # notion holds on all 4 profiles.
        instance = unit_instance(2, 1)
        for model in ("overlap", "cost"):
            witness, checked = second_stage_sp_oracle(contrarian, instance, [fs(1)], model)
            assert checked == 1
            assert witness == {
                "kind": "second-stage-manipulation",
                "instance": {"budget": 1, "costs": {"1": 1, "2": 1}},
                "agent": 1,
                "model": model,
                "approximate": False,
                "profile": [[]],
                "ideal": [1],
                "truthful_outcome": [2],
                "manipulated_outcome": [1],
                "truthful_value": 0,
                "repaired_value": 1,
                "manipulated_value": 1,
            }
            assert contrarian(instance, (fs(),)) == fs(1)
            assert contrarian(instance, (fs(1),)) == fs(2)
            assert second_stage_sp_oracle(
                contrarian, instance, [fs(1)], model, approximate=True
            ) == (None, 4)
