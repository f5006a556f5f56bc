import gc
import itertools
import math
import sys
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pbstages.core import Caps, ResourceLimitError, ValidationError
from pbstages.oracles import (
    _flat_partitions,
    equal_representation_oracle,
    k_median_oracle,
    partition_is_valid,
    partition_radius,
)
from pbstages.preferences import ideal_set
from pbstages.shortlisting import (
    _METRIC_TOLERANCE,
    ClusteringOutcome,
    Metric,
    VoronoiPartition,
    _level_weights,
    equal_representation,
    euclidean_metric,
    geometric_median,
    k_median,
    k_median_outcome,
    nomination,
    representation_score,
    table_metric,
)
from pbstages.suites import random_instance, random_proposals

from conftest import fs, make_instance, ranking_from, unit_instance


def example_proposals(instance):
    prefixes = ([1, 4, 5, 10], [1, 2, 6, 4], [1, 2, 7, 4], [1, 3, 8, 5], [1, 3, 9, 5])
    awareness = (fs(1, 4, 5, 10), fs(2, 6), fs(2, 7), fs(3, 8), fs(3, 9))
    return tuple(
        ideal_set(instance, ranking_from(prefix, 10), aware)
        for prefix, aware in zip(prefixes, awareness)
    )


class TestNomination:
    def test_union_of_proposals(self, ten_project_instance):
        proposals = example_proposals(ten_project_instance)
        assert nomination(ten_project_instance, proposals) == fs(*range(1, 10))

    def test_all_empty(self, ten_project_instance):
        assert nomination(ten_project_instance, (fs(), fs())) == fs()

    def test_deduplicates(self, ten_project_instance):
        assert nomination(ten_project_instance, (fs(1), fs(1))) == fs(1)


@pytest.mark.parametrize("rule", [
    nomination,
    lambda instance, proposals: equal_representation(instance, proposals, 1),
    lambda instance, proposals: k_median(instance, proposals, 1, euclidean_metric(instance)),
], ids=["nomination", "equal_representation", "k_median"])
def test_unknown_proposal_ids_refused(rule):
    instance = make_instance([1] * 4, 2, [(float(i), 0.0) for i in range(4)])
    with pytest.raises(
        ValidationError, match=r"^proposal of agent 2 contains unknown project ids \[9\]$"
    ):
        rule(instance, (fs(1, 2), [9, 3], fs(10)))


class TestRepresentationScore:
    def test_empty_set_scores_agent_count(self):
        proposals = (fs(1), fs(2), fs(1, 2), fs(2), fs(1))
        assert representation_score(fs(), proposals) == Fraction(5)

    def test_tie_between_recorded_and_computed(self):
        proposals = (fs(3, 4), fs(1, 2), fs(2))
        assert representation_score(fs(2), proposals) == Fraction(11, 3)
        assert representation_score(fs(1, 3), proposals) == Fraction(11, 3)

    def test_requires_subset_of_union(self):
        with pytest.raises(ValidationError):
            representation_score(fs(9), (fs(1),))

    def test_exact_arithmetic(self):
        proposals = tuple(fs(1, 2, 3) for _ in range(7))
        got = representation_score(fs(1, 2, 3), proposals)
        assert got == 7 * (1 + Fraction(1, 7) + Fraction(1, 49) + Fraction(1, 343))


class TestEqualRepresentation:
    def test_example_with_doubled_budget(self, ten_project_instance):
        proposals = example_proposals(ten_project_instance)
        got = equal_representation(ten_project_instance, proposals, 2)
        assert got == fs(1, 2, 3, 4, 6, 7)

    def test_single_agent_single_project(self):
        instance = unit_instance(3, 1)
        assert equal_representation(instance, (fs(2),), 1) == fs(2)

    def test_search_leaves_no_reference_cycle(self):
        # The branch and bound's state is freed when the call returns, not
        # left for the cycle collector.
        instance = make_instance([1 + i % 3 for i in range(1, 9)], 4)
        proposals = (fs(1, 2, 3), fs(3, 4, 5), fs(6, 7), fs(8, 1))
        assert instance.total_cost(fs(1, 2, 3, 4, 5, 6, 7, 8)) > instance.budget
        gc.collect()
        gc.disable()
        try:
            assert equal_representation(instance, proposals, 1) == fs(1, 3, 6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_tie_resolved_by_family_tiebreak(self):
        instance = make_instance([1, 2, 1, 1], 2)
        proposals = (fs(3, 4), fs(1, 2), fs(2))
        got = equal_representation(instance, proposals, 1)
        assert got == equal_representation_oracle(instance, proposals, 1)
        assert got == fs(1, 3)

    def test_k_must_be_positive(self, ten_project_instance):
        with pytest.raises(ValidationError):
            equal_representation(ten_project_instance, (fs(1),), 0)

    def test_cap_enforced(self, ten_project_instance):
        with pytest.raises(ResourceLimitError):
            equal_representation(
                ten_project_instance, (fs(*range(1, 10)),), 1, Caps(subset_search=5)
            )
        # A union that fits is returned without a search, but only after
        # the cap has been checked.
        with pytest.raises(ResourceLimitError):
            equal_representation(unit_instance(6, 6), (fs(*range(1, 7)),), 1, Caps(subset_search=5))
        # The union of 9 projects runs at a cap of 9 and is refused at 8.
        proposals = (fs(*range(1, 10)),)
        assert equal_representation(
            ten_project_instance, proposals, 1, Caps(subset_search=9)
        ) == equal_representation(ten_project_instance, proposals, 1)
        with pytest.raises(ResourceLimitError):
            equal_representation(ten_project_instance, proposals, 1, Caps(subset_search=8))

    def test_matches_oracle_on_random_instances(self):
        rng = Random(11)
        for _ in range(120):
            instance = random_instance(rng, max_projects=6, max_cost=4)
            proposals = random_proposals(rng, instance, rng.randint(1, 4))
            k = rng.randint(1, 2)
            assert equal_representation(instance, proposals, k) == (
                equal_representation_oracle(instance, proposals, k)
            )


@st.composite
def tie_heavy_profiles(draw):
    """Unions of up to 12 projects, 1-12 agents and k in {1, 2, 3}, built for ties.

    Agents copy one of a few shared proposals, costs are all 1 or chosen so
    that some projects exactly fill ``k * budget``.
    """
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["unit", "mixed", "fill"]))
    if kind == "unit":
        costs = [1] * m
        budget = draw(st.integers(1, m))
    elif kind == "mixed":
        costs = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        budget = draw(st.integers(max(costs), max(costs) + sum(costs)))
    else:
        budget = draw(st.integers(1, 5))
        parts = []
        while sum(parts) < k * budget and len(parts) < m:
            parts.append(draw(st.integers(1, min(budget, k * budget - sum(parts)))))
        fill = m - len(parts)
        rest = draw(st.lists(st.integers(1, budget), min_size=fill, max_size=fill))
        costs = draw(st.permutations(parts + rest))
    instance = make_instance(costs, budget)
    block = st.frozensets(st.integers(1, m), min_size=1)
    shared = draw(st.lists(block, min_size=1, max_size=3))
    proposals = tuple(
        draw(st.one_of(st.sampled_from(shared), block))
        for _ in range(draw(st.integers(1, 12)))
    )
    return instance, proposals, k


@st.composite
def overlapping_unaffordable_profiles(draw):
    """1-4 agents, each proposing 50-100 % of a union of 8-14 projects.

    Some agents copy another's proposal.  The budget is 30-60 % of the
    union's cost and ``k * budget`` never covers it, so every case is
    decided by the branch and bound.  The regime prunes hardest on the
    per-class level bound.
    """
    m = draw(st.integers(8, 14))
    k = draw(st.integers(1, 2))
    costs = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    total = sum(costs)
    low = max(max(costs), math.ceil(0.3 * total))
    high = min(int(0.6 * total), (total - 1) // k)
    assume(low <= high)
    budget = draw(st.integers(low, high))
    n = draw(st.integers(1, 4))
    block = st.frozensets(st.integers(1, m), min_size=(m + 1) // 2)
    shapes = draw(st.lists(block, min_size=1, max_size=n))
    shapes[0] |= frozenset(range(1, m + 1)).difference(*shapes)
    copies = [draw(st.sampled_from(shapes)) for _ in range(n - len(shapes))]
    proposals = tuple(draw(st.permutations(shapes + copies)))
    return make_instance(costs, budget), proposals, k


@st.composite
def fit_edge_profiles(draw):
    """Unions of 6-12 projects, 2-8 agents and k in {1, 2}, at the edges of the fit test.

    ``k * budget`` equals a running total of the cheapest costs, so a
    cheapest-first total meets the room exactly.  One project in the first
    half costs more than the budget less the cheapest cost, so once enough
    is taken the search skips it in front of projects that still fit.  One
    agent proposes only projects of the first half, so her class has every
    project decided while the search goes on.
    """
    m = draw(st.integers(6, 12))
    k = draw(st.integers(1, 2))
    costs = draw(st.lists(st.integers(1, 6), min_size=m - 1, max_size=m - 1))
    ranked = sorted(costs)
    totals = itertools.accumulate(ranked[: m - 2])
    rooms = [room for room in totals if room % k == 0 and k * ranked[-1] <= room]
    assume(rooms)
    room = draw(st.sampled_from(rooms))
    budget = room // k
    dear = draw(st.integers(budget - ranked[0] + 1, budget))
    costs.insert(draw(st.integers(0, m // 2 - 1)), dear)
    assume(room in itertools.accumulate(sorted(costs)))
    early = draw(st.frozensets(st.integers(1, m // 2), min_size=1))
    block = st.frozensets(st.integers(1, m), min_size=1)
    blocks = [early] + [draw(block) for _ in range(draw(st.integers(1, 7)))]
    blocks[-1] |= frozenset(range(1, m + 1)).difference(*blocks)
    proposals = tuple(draw(st.permutations(blocks)))
    return make_instance(costs, budget), proposals, k


class TestEqualRepresentationProperties:
    @settings(deadline=None, max_examples=80)
    @given(fit_edge_profiles())
    def test_matches_oracle_at_fit_test_edges(self, case):
        instance, proposals, k = case
        assert equal_representation(instance, proposals, k) == (
            equal_representation_oracle(instance, proposals, k)
        )

    @settings(deadline=None, max_examples=60)
    @given(tie_heavy_profiles())
    def test_matches_oracle(self, case):
        instance, proposals, k = case
        assert equal_representation(instance, proposals, k) == (
            equal_representation_oracle(instance, proposals, k)
        )

    @settings(deadline=None, max_examples=15)
    @given(overlapping_unaffordable_profiles())
    def test_matches_oracle_on_unaffordable_overlaps(self, case):
        instance, proposals, k = case
        assert equal_representation(instance, proposals, k) == (
            equal_representation_oracle(instance, proposals, k)
        )
        costs = [instance.cost(pid) for pid in sorted(instance.ids)]
        roomy = make_instance(costs, sum(costs))
        assert equal_representation(roomy, proposals, k) == frozenset(roomy.ids)

    @settings(deadline=None, max_examples=150)
    @given(tie_heavy_profiles(), st.data())
    def test_integer_score_is_scaled_fraction_score(self, case, data):
        _, proposals, _ = case
        union = sorted(set().union(*proposals))
        subset = data.draw(st.frozensets(st.sampled_from(union)))
        n, top = len(proposals), max(map(len, proposals))
        base, weights = _level_weights(proposals)
        integer_score = base + sum(sum(weights[: len(subset & block)]) for block in proposals)
        assert integer_score == representation_score(subset, proposals) * n**top


def mid_union_case(seed):
    """A seeded union of 10-14 projects with 3-12 agents, costs 1-6 and k in {1, 2}."""
    rng = Random(seed)
    instance = random_instance(rng, min_projects=10, max_projects=14, max_cost=6)
    agents = rng.randint(3, 12)
    proposals = random_proposals(rng, instance, agents)
    while not 10 <= len(nomination(instance, proposals)) <= 14:
        proposals = random_proposals(rng, instance, agents)
    return instance, proposals, rng.randint(1, 2)


# Seeds of mid_union_case on which the fractional-knapsack bound, which the
# search once tried before the level bound, pruned 7-39 nodes: the cases
# that lean on the level bound alone where it used to share the work.
KNAPSACK_PRUNED_SEEDS = [13, 38, 44, 49, 76, 163]


@pytest.mark.parametrize("seed", KNAPSACK_PRUNED_SEEDS)
def test_matches_oracle_where_knapsack_bound_pruned(seed):
    instance, proposals, k = mid_union_case(seed)
    assert equal_representation(instance, proposals, k) == (
        equal_representation_oracle(instance, proposals, k)
    )


def union_20_cases():
    """30 seeded unions of 20 projects with 2-6 agents and proposals of 8-20.

    Costs are 1-9 and the budget is within 3 of half the total cost, so
    about half the union fits and the search visits the most nodes.
    """
    rng = Random(19)
    cases = []
    while len(cases) < 30:
        costs = [rng.randint(1, 9) for _ in range(20)]
        budget = sum(costs) // 2 + rng.randint(-3, 3)
        proposals = tuple(
            frozenset(rng.sample(range(1, 21), rng.randint(8, 20)))
            for _ in range(rng.randint(2, 6))
        )
        if len(set().union(*proposals)) == 20:
            cases.append((make_instance(costs, budget), proposals))
    return cases


# The k = 1 winners of union_20_cases, as the search found them before the
# per-class level bound, when the slowest case took 1.0-1.6 s.
UNION_20_WINNERS = [
    fs(1, 3, 7, 9, 10, 12, 13, 14, 15, 16, 17, 19, 20),
    fs(1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 15, 18),
    fs(1, 3, 4, 7, 8, 9, 10, 14, 16, 17, 18, 19),
    fs(1, 2, 3, 4, 7, 8, 9, 11, 13, 14, 16, 18),
    fs(2, 3, 4, 6, 9, 10, 11, 12, 16, 17, 18, 19, 20),
    fs(4, 6, 7, 8, 9, 11, 12, 13, 16, 17, 19, 20),
    fs(1, 5, 8, 10, 11, 12, 13, 15, 16, 17, 20),
    fs(1, 3, 5, 6, 7, 9, 10, 15, 16, 17, 18, 19, 20),
    fs(1, 2, 3, 4, 7, 10, 11, 12, 13, 15, 16),
    fs(3, 4, 5, 7, 8, 10, 11, 12, 13, 15, 17, 18, 19),
    fs(1, 2, 6, 7, 9, 10, 11, 15, 17, 20),
    fs(1, 3, 4, 5, 6, 12, 13, 15, 16, 18, 19, 20),
    fs(1, 3, 4, 5, 6, 8, 10, 11, 12, 16, 17, 20),
    fs(1, 2, 4, 5, 7, 8, 9, 11, 14, 15, 16, 20),
    fs(1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19),
    fs(1, 4, 5, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19),
    fs(1, 2, 4, 5, 7, 8, 9, 11, 14, 15, 17, 18, 20),
    fs(2, 4, 5, 7, 8, 9, 12, 13, 15, 16, 18, 20),
    fs(3, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 18, 19, 20),
    fs(2, 4, 5, 7, 8, 10, 12, 13, 15, 16, 17, 18, 19),
    fs(2, 3, 4, 5, 6, 7, 9, 11, 12, 17, 19, 20),
    fs(2, 4, 5, 6, 7, 9, 10, 14, 15, 16, 17, 18, 19),
    fs(2, 3, 4, 6, 7, 10, 13, 14, 15, 16, 20),
    fs(1, 2, 3, 4, 5, 7, 8, 11, 12, 15, 16, 20),
    fs(1, 3, 4, 5, 6, 7, 9, 10, 14, 15, 18, 19),
    fs(1, 3, 4, 5, 6, 7, 9, 11, 12, 13, 14, 16, 17, 20),
    fs(1, 2, 4, 5, 6, 8, 10, 12, 15, 16, 18, 19, 20),
    fs(1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 17, 20),
    fs(1, 2, 4, 5, 6, 7, 8, 9, 11, 16, 18, 20),
    fs(1, 2, 3, 7, 8, 10, 11, 13, 15, 16, 18, 19),
]


def test_union_20_cases_pinned_within_budget():
    got, slowest = [], 0.0
    started = time.perf_counter()
    for instance, proposals in union_20_cases():
        before = time.perf_counter()
        got.append(equal_representation(instance, proposals, 1))
        slowest = max(slowest, time.perf_counter() - before)
    elapsed = time.perf_counter() - started
    print(f"union-20 equal representation: {elapsed:.2f}s / budget 5s, slowest {slowest:.2f}s / budget 1s")
    assert got == UNION_20_WINNERS
    assert slowest < 1.0, f"slowest union-20 case exceeded its 1s budget: {slowest:.2f}s"
    assert elapsed < 5.0, f"union-20 cases exceeded their 5s budget: {elapsed:.2f}s"


def test_union_20_search_visits_the_pinned_nodes():
    # The bounds prune the same nodes whichever way they are computed: a
    # faster bound that visits more or fewer nodes is a different search.
    walk = next(
        const for const in equal_representation.__code__.co_consts
        if getattr(const, "co_name", None) == "walk"
    )
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is walk:
            calls += 1

    cases = union_20_cases()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for instance, proposals in cases:
            equal_representation(instance, proposals, 1)
    finally:
        sys.setprofile(previous)
    assert calls == 33_364


# The message of two metric cases.  Strict parametrization refuses a
# duplicate id, so each names its id, numbered in order.
UNKNOWN_9 = r"^metric names unknown project ids \[9\]$"


class TestMetric:
    def test_euclidean_from_coords(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        assert metric.distance(1, 2) == pytest.approx(2.0)
        assert metric.distance(5, 6) == pytest.approx(1.0)
        assert metric.distance(1, 4) == metric.distance(2, 4)

    def test_table_metric_roundtrip(self):
        metric = table_metric([1, 2, 3], [(1, 2, 1.0), (1, 3, 2.0), (2, 3, 1.5)])
        assert metric.distance(2, 1) == 1.0
        assert metric.distance(1, 1) == 0.0

    @pytest.mark.parametrize("build, message", [
        (lambda: table_metric([1, 2], [(1, 2, 1.0)]).distance(1, 3),
         r"^metric does not cover the pair \(1, 3\)$"),
        (lambda: euclidean_metric(make_instance([1, 1], 2, [(0.0, 0.0), None])),
         r"^project p2 has no coordinates; a euclidean metric needs coordinates on every"),
        (lambda: euclidean_metric(make_instance([1, 1], 2, [(0.0, 0.0), (1.0, 0.0, 0.0)])),
         r"^projects have coordinates of mixed dimension$"),
        (lambda: table_metric([1, 2], [(1, 2, 1.0), (2, 2, 0.5)]),
         r"^distance of project 2 to itself must be 0$"),
        pytest.param(lambda: table_metric([1, 2], [(1, 2, 1.0), (1, 9, 5.0)]),
                     UNKNOWN_9, id=f"<lambda>-{UNKNOWN_9}0"),
        (lambda: table_metric([1, 2], [(1, 2, 1.0), (7, 8, -3.0)]),
         r"^metric names unknown project ids \[7, 8\]$"),
        pytest.param(lambda: table_metric([1, 2], [(1, 2, 1.0), (9, 9, 0.0)]),
                     UNKNOWN_9, id=f"<lambda>-{UNKNOWN_9}1"),
    ])
    def test_invalid_metric_refused(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_zero_self_distance_accepted(self):
        metric = table_metric([1, 2], [(1, 1, 0.0), (1, 2, 1.0)])
        assert metric.distance(1, 1) == 0.0 and metric.distance(1, 2) == 1.0

    def test_asymmetric_table_rejected(self):
        with pytest.raises(ValidationError):
            table_metric([1, 2], [(1, 2, 1.0), (2, 1, 2.0)])

    def test_triangle_violation_rejected(self):
        with pytest.raises(ValidationError):
            table_metric([1, 2, 3], [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 9.0)])

    def test_triangle_at_the_tolerance_accepted(self):
        # (1.0 + 1.0) + tolerance is this very float, so the slack is inclusive.
        far = 2.0 + _METRIC_TOLERANCE
        metric = table_metric([1, 2, 3], [(1, 2, 1.0), (2, 3, 1.0), (1, 3, far)])
        assert metric.distance(1, 3) == far

    def test_triangle_past_the_tolerance_refused(self):
        far = 2.0 + 2 * _METRIC_TOLERANCE
        with pytest.raises(ValidationError, match=r"^triangle inequality violated on projects"):
            table_metric([1, 2, 3], [(1, 2, 1.0), (2, 3, 1.0), (1, 3, far)])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            table_metric([1, 2], [(1, 2, -1.0)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_distance_rejected(self, value):
        # NaN compares false with everything, so neither the sign check nor
        # the triangle inequality would catch it.
        message = rf"^non-finite distance {value} for pair \(1, 2\)$"
        with pytest.raises(ValidationError, match=message):
            Metric([1, 2, 3], {(1, 2): value, (1, 3): 1.0, (2, 3): 1.0})

    def test_missing_pair_rejected(self):
        with pytest.raises(ValidationError):
            table_metric([1, 2, 3], [(1, 2, 1.0)])

    def test_colocated_projects_allowed(self):
        metric = table_metric([1, 2], [(1, 2, 0.0)])
        assert metric.distance(1, 2) == 0.0

    def test_table_rows_are_the_pairwise_distances(self):
        # Projects 1 and 3 are co-located; the rows follow the order asked for.
        metric = table_metric([1, 2, 3], [(1, 2, 2.0), (1, 3, 0.0), (2, 3, 2.0)])
        order = [3, 1, 2]
        rows = metric.table(order)
        assert rows == [[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        for i, j in itertools.product(range(3), repeat=2):
            assert rows[i][j] == rows[j][i] == metric.distance(order[i], order[j])

    def test_table_refuses_a_pair_outside_the_metric(self):
        metric = table_metric([1, 2], [(1, 2, 1.0)])
        with pytest.raises(ValidationError, match=r"^metric does not cover the pair \(1, 3\)$"):
            metric.table([1, 2, 3])
        # The rule reads its distances from the table, with the same refusal.
        instance = make_instance([1, 1, 1], 3)
        with pytest.raises(ValidationError, match=r"^metric does not cover the pair \(1, 3\)$"):
            k_median(instance, [fs(1, 2, 3)], 1, metric)

    @pytest.mark.parametrize("search", [k_median, k_median_outcome])
    def test_one_project_outside_the_metric_refused(self, search):
        # A one-project union has no pair, so only the project's own check can refuse it.
        metric = table_metric([1, 2], [(1, 2, 1.0)])
        with pytest.raises(ValidationError, match=r"^metric does not cover project 3$"):
            metric.distance(3, 3)
        with pytest.raises(ValidationError, match=r"^metric does not cover project 3$"):
            search(make_instance([1, 1, 1], 3), [fs(3)], 1, metric)


class TestGeometricMedian:
    def test_triangle_with_perimeter_point(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        assert geometric_median(fs(5, 6, 7), metric) == 5

    def test_tie_breaks_to_lowest_index(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        assert geometric_median(fs(2, 4), metric) == 2

    def test_singleton(self):
        metric = table_metric([3], [])
        assert geometric_median(fs(3), metric) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            geometric_median(fs(), table_metric([1], []))

    def test_equal_distance_multisets_tie_to_lowest_index(self):
        # Projects 1 and 4 are both at distances sqrt(8), sqrt(13), sqrt(17)
        # from the others; summed in id order, the two float sums differ in
        # their last bit and project 4 came out lower.
        instance = make_instance([1] * 4, 4, [(2, 4), (0, 2), (5, 2), (3, 0)])
        assert geometric_median(fs(1, 2, 3, 4), euclidean_metric(instance)) == 1


class TestMinimalRadius:
    def test_single_project(self):
        instance = unit_instance(1, 1)
        metric = table_metric([1], [])
        assert k_median_outcome(instance, [fs(1)], 1, metric).ell == 0.0

    def test_colocated_projects(self):
        instance = unit_instance(3, 1)
        metric = table_metric([1, 2, 3], [(1, 2, 0.0), (1, 3, 0.0), (2, 3, 0.0)])
        assert k_median_outcome(instance, [fs(1, 2, 3)], 1, metric).ell == 0.0

    def test_triangle_scenario(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        got = k_median_outcome(instance, [fs(1, 2, 3, 4, 6, 7)], 1, metric).ell
        assert got == pytest.approx(2 / math.sqrt(3.0))

    def test_cap_enforced(self):
        instance = unit_instance(4, 1)
        metric = table_metric(
            [1, 2, 3, 4],
            [(a, b, 1.0) for a in range(1, 5) for b in range(a + 1, 5)],
        )
        with pytest.raises(ResourceLimitError):
            k_median_outcome(instance, [instance.ids], 1, metric, Caps(partitions=3))
        # The 4 projects run at a cap of 4.
        assert k_median_outcome(
            instance, [instance.ids], 1, metric, Caps(partitions=4)
        ) == k_median_outcome(instance, [instance.ids], 1, metric)


class TestPartitionEnumerators:
    # the flat generator is load-bearing for the oracle equivalence tests,
    # so pin its counts to the known partition numbers
    BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}

    def test_flat_oracle_counts(self):
        for n, expected in self.BELL.items():
            got = list(_flat_partitions(list(range(1, n + 1))))
            assert len(got) == expected
            seen = {tuple(sorted(tuple(sorted(b)) for b in part)) for part in got}
            assert len(seen) == expected
            for part in got:
                assert sorted(x for block in part for x in block) == list(range(1, n + 1))


class TestKMedian:
    def test_truthful_clustering(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        proposals = (fs(1, 2, 3), fs(4, 6, 7))
        outcome = k_median_outcome(instance, proposals, 1, metric)
        assert outcome.shortlist == fs(4, 6, 7)
        assert len(outcome.partitions) == 1
        assert set(outcome.partitions[0].clusters) == {fs(1, 2, 3, 4), fs(6), fs(7)}

    def test_deviating_clustering(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        proposals = (fs(1, 2, 5), fs(4, 6, 7))
        assert k_median(instance, proposals, 1, metric) == fs(1, 2, 5)

    def test_single_proposed_project(self):
        instance = unit_instance(5, 2)
        metric = table_metric(
            [1, 2, 3, 4, 5],
            [(a, b, 1.0) for a in range(1, 6) for b in range(a + 1, 6)],
        )
        assert k_median(instance, (fs(4),), 1, metric) == fs(4)

    def test_empty_profile(self):
        instance = unit_instance(2, 1)
        metric = table_metric([1, 2], [(1, 2, 1.0)])
        assert k_median(instance, (fs(), fs()), 1, metric) == fs()

    # No proposed project: the full outcome and both oracles answer empty.
    @pytest.mark.parametrize("search, empty", [
        (k_median_outcome, ClusteringOutcome(0.0, (), fs())),
        (k_median_oracle, fs()),
        (lambda instance, proposals, k, metric: equal_representation_oracle(
            instance, proposals, k
        ), fs()),
    ], ids=["k_median_outcome", "k_median_oracle", "equal_representation_oracle"])
    def test_all_empty_proposals(self, search, empty):
        instance = unit_instance(2, 1)
        metric = table_metric([1, 2], [(1, 2, 1.0)])
        assert search(instance, (fs(), fs()), 1, metric) == empty

    def test_k_checked_on_empty_profile(self):
        instance = unit_instance(2, 1)
        metric = table_metric([1, 2], [(1, 2, 1.0)])
        with pytest.raises(ValidationError, match="k must be >= 1, got 0"):
            k_median(instance, (fs(), fs()), 0, metric)
        with pytest.raises(ValidationError, match="k must be >= 1, got 0"):
            equal_representation(instance, (fs(), fs()), 0)

    def test_partition_invariants_hold(self, triangle_coords):
        instance = make_instance([1] * 7, 3, [triangle_coords[i] for i in range(1, 8)])
        metric = euclidean_metric(instance)
        outcome = k_median_outcome(instance, (fs(1, 2, 5), fs(4, 6, 7)), 1, metric)
        for partition in outcome.partitions:
            assert partition_is_valid(partition.clusters, partition.medians, instance, 1, metric)
            assert partition_radius(partition.clusters, partition.medians, metric) == outcome.ell
            recomputed = tuple(geometric_median(c, metric) for c in partition.clusters)
            assert recomputed == partition.medians

    @pytest.mark.parametrize("m", [10, 12])
    def test_colocated_projects_answer_without_listing_partitions(self, m):
        # Every one of the 2^m - 1 median sets has radius 0 and Bell(m)
        # partitions are valid; the shortlist is the first median set in
        # canonical order with one valid clustering: all of them.
        instance = unit_instance(m, m)
        ids = list(instance.ids)
        metric = table_metric(ids, [(a, b, 0.0) for a in ids for b in ids if a < b])
        started = time.perf_counter()
        assert k_median(instance, [instance.ids], 1, metric) == frozenset(ids)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"{m} co-located projects took {elapsed:.2f}s"

    def test_matches_oracle_on_random_coordinate_instances(self):
        rng = Random(23)
        for _ in range(60):
            instance = random_instance(rng, max_projects=6, max_cost=3, coord_range=6)
            proposals = random_proposals(rng, instance, rng.randint(1, 3))
            metric = euclidean_metric(instance)
            k = rng.randint(1, 2)
            assert k_median(instance, proposals, k, metric) == (
                k_median_oracle(instance, proposals, k, metric)
            )


@st.composite
def clustering_cases(draw):
    """Unions of up to 8 projects, k in {1, 2, 3}, built for ties.

    The metric is either Euclidean on an integer grid of side 1-3, so
    projects coincide or sit equidistant, or a table with one distance for
    every pair.
    """
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 3))
    costs = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    budget = draw(st.integers(max(costs), sum(costs)))
    ids = list(range(1, m + 1))
    if draw(st.booleans()):
        side = draw(st.integers(1, 3))
        point = st.tuples(st.integers(0, side), st.integers(0, side))
        coords = draw(st.lists(point, min_size=m, max_size=m))
        instance = make_instance(costs, budget, coords)
        metric = euclidean_metric(instance)
    else:
        instance = make_instance(costs, budget)
        value = draw(st.sampled_from([0.0, 1.0, 2.5]))
        metric = table_metric(ids, [(a, b, value) for a in ids for b in ids if a < b])
    block = st.frozensets(st.sampled_from(ids), min_size=1)
    proposals = draw(st.lists(block, min_size=1, max_size=3))
    return instance, tuple(proposals), k, metric


def flat_minimal_partitions(instance, proposals, k, metric):
    """The least radius and its valid partitions, by a scan of every set partition."""
    union = sorted(set().union(*proposals))
    valid = []
    for blocks in _flat_partitions(union):
        clusters = tuple(sorted((frozenset(b) for b in blocks), key=min))
        medians = tuple(geometric_median(c, metric) for c in clusters)
        if partition_is_valid(clusters, medians, instance, k, metric):
            radius = partition_radius(clusters, medians, metric)
            valid.append((radius, VoronoiPartition(clusters, medians)))
    ell = min(radius for radius, _ in valid)
    found = [partition for radius, partition in valid if radius == ell]
    return ell, sorted(found, key=lambda p: [sorted(c) for c in p.clusters])


def single_median_case(coords):
    """Unit costs and one budget on these coordinates: every cluster is the whole union."""
    instance = make_instance([1] * len(coords), 1, coords)
    return instance, (frozenset(instance.ids),), 1, euclidean_metric(instance)


# Candidate medians whose distance sums are equal in the reals but not as
# surds, so the float sums decide.  On (2,2), (0,0), (0,0), (3,3) both
# sqrt(8) + sqrt(8) + sqrt(2) and 0 + sqrt(8) + sqrt(18) are 5 sqrt(2), the
# ascending float sums are equal too, and the lowest index wins.  On the
# six points of the second case, (2,2) and (1,1) both sum to
# 1 + 3 sqrt(2) + sqrt(5), and which float sum is less depends on the
# order of the terms: the ascending order elects (1,1); the order of the
# ids, the descending order and math.fsum elect (2,2).
SURD_TIE_CASES = [
    single_median_case([(2, 2), (0, 0), (0, 0), (3, 3)]),
    single_median_case([(2, 2), (1, 1), (2, 2), (0, 0), (0, 1), (3, 2)]),
]


class TestKMedianProperties:
    @settings(deadline=None, max_examples=80)
    @given(clustering_cases())
    @example(SURD_TIE_CASES[0])
    @example(SURD_TIE_CASES[1])
    def test_partitions_match_flat_scan(self, case):
        instance, proposals, k, metric = case
        outcome = k_median_outcome(instance, proposals, k, metric)
        ell, partitions = flat_minimal_partitions(instance, proposals, k, metric)
        assert outcome.ell == ell
        assert list(outcome.partitions) == partitions

    @settings(deadline=None, max_examples=80)
    @given(clustering_cases())
    def test_shortlist_stops_at_the_listed_tie_break(self, case):
        instance, proposals, k, metric = case
        assert (
            k_median(instance, proposals, k, metric)
            == k_median_outcome(instance, proposals, k, metric).shortlist
            == k_median_oracle(instance, proposals, k, metric)
        )
