"""First-stage strategyproofness: best responses and manipulation search.

A manipulator misreports her *proposals*, changing which projects reach
the vote, and reasons about the voting stage under one of three modes:
``pessimistic`` (her deviation must pay off against every pair of ballot
profiles on the two shortlists), ``optimistic`` (against at least one
pair), or ``anticipative`` (everyone votes their truthful ideal sets).
In all modes her own ballot is replaced by her best response, and
outcomes are compared by her ideal set on the union of both shortlists.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass

from pbstages.core import (
    Caps,
    Instance,
    Project,
    ValidationError,
    check_cap,
    greedy_scan,
    subsets_ascending,
    tiebreak_family,
)
from pbstages.allocation import approval_scores, score_kernel
from pbstages.grid import ballot_box, box_maxima, profile_at, score_grid
from pbstages.preferences import check_model, check_ranking, ideal_set, valuation
from pbstages.shortlisting import check_proposals, proposal_union
from pbstages.verification import (
    COUNTEREXAMPLE,
    HOLDS,
    AllocationRule,
    PropertyVerdict,
    ShortlistRule,
    check_agents,
    class_members,
    ids_list,
)

MODES = ("pessimistic", "optimistic", "anticipative")
VARIANTS = ("restricted", "unrestricted")

SUCCESSFUL = "successful"
UNSUCCESSFUL = "unsuccessful"


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValidationError(f"unknown manipulation mode {mode!r}; expected one of {MODES}")
    return mode


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


@dataclass(frozen=True)
class StageGame:
    """Everything a two-stage manipulation check needs.

    ``proposals`` is the baseline proposal profile; when omitted, every
    agent proposes the ideal set of her awareness set, and that profile
    is stored in its place.
    """

    instance: Instance
    shortlist_rule: ShortlistRule
    allocation_rule: AllocationRule
    rankings: tuple[tuple[int, ...], ...]
    awareness: tuple[frozenset[int], ...]
    model: str
    proposals: tuple[frozenset[int], ...] | None = None

    def __post_init__(self) -> None:
        score_kernel(self.allocation_rule)
        check_model(self.model)
        if not self.rankings:
            raise ValidationError("strategyproofness needs at least one agent")
        if len(self.rankings) != len(self.awareness):
            raise ValidationError("one ranking and one awareness set per agent")
        for ranking in self.rankings:
            check_ranking(self.instance, ranking)
        for aware in self.awareness:
            self.instance.check_subset(aware, "awareness set")
        # Unrestricted baselines may legitimately propose projects outside
        # the agent's own awareness set, so only universe membership is
        # checked here; scenario files are validated more strictly.
        if self.proposals is not None:
            check_proposals(self.instance, self.proposals)
        else:
            object.__setattr__(self, "proposals", tuple(
                ideal_set(self.instance, ranking, aware)
                for ranking, aware in zip(self.rankings, self.awareness)
            ))

    @property
    def agents(self) -> int:
        return len(self.rankings)

    def truthful_proposal(self, agent: int, variant: str) -> frozenset[int]:
        """The proposal an honest agent submits, per deviation variant."""
        return ideal_set(self.instance, self.rankings[agent], self.deviation_pool(agent, variant))

    def deviation_pool(self, agent: int, variant: str) -> frozenset[int]:
        if check_variant(variant) == "restricted":
            return self.awareness[agent]
        return self.awareness[agent] | proposal_union(self.proposals)

    def top_on(self, agent: int, shortlist: Iterable[int]) -> frozenset[int]:
        return ideal_set(self.instance, self.rankings[agent], shortlist)


def best_response(
    rule: AllocationRule,
    instance: Instance,
    ballots: Sequence[frozenset[int]],
    agent: int,
    ideal: frozenset[int],
    model: str,
    caps: Caps = Caps(),
) -> tuple[frozenset[int], frozenset[int]]:
    """Best ballot for ``agent`` against the others' fixed ballots.

    Reads every ballot's outcome from :func:`~pbstages.grid.ballot_box`
    and targets the outcome of highest value under her ideal set,
    canonically tie-broken among equal values (:func:`_outcome_key`);
    returns a canonical ballot achieving it together with that outcome.
    """
    check_agents([agent], len(ballots))
    ideal = instance.check_subset(ideal, "ideal set")
    check_cap(len(instance), caps.ballots, "best-response enumeration", "projects")
    scores = approval_scores(instance, ballots)
    box = ballot_box(score_kernel(rule), instance, scores, ballots[agent])
    target = max(set(box), key=_outcome_key(valuation(model, ideal, instance), instance.ids))
    every = subsets_ascending(instance.ids)
    return tiebreak_family(b for b, outcome in zip(every, box) if outcome == target), target


def _outcome_key(value: Callable[[frozenset[int]], int], ids: Sequence[int]) -> Callable:
    """The canonical order on outcomes, as an integer key.

    An outcome ranks by its ``value``, then by its characteristic vector
    in ascending id order, present above absent: the tie-break of
    :func:`~pbstages.core.tiebreak_family`, a total order by itself.
    """
    m = len(ids)
    bits = {pid: 1 << (m - 1 - j) for j, pid in enumerate(ids)}
    return lambda outcome: value(outcome) << m | sum(map(bits.__getitem__, outcome))


def _fstar_outcomes(
    grid: list[frozenset[int]],
    instance: Instance,
    agents: int,
    agent: int,
    ideal: frozenset[int],
    model: str,
) -> dict[frozenset[int], tuple[frozenset[int], ...]]:
    """Every best-response outcome over all ballot profiles of the others.

    Returns each distinct outcome with the first full profile realising
    it, in product order of the others' profiles, the manipulator's slot
    holding her ideal set for readability.  Callers charge the (2^m)^n
    profiles against ``caps.profiles``.

    Her own ballot never matters (her best response replaces it), and the
    others reach the rule only through their summed score vector s in
    {0..n-1}^m, which her ballot B moves to s + 1_B.  So her best response
    at s maximises :func:`_outcome_key` over the box s + {0,1}^m: the
    outcome's value under her ideal set, then the canonical tie-break.
    ``grid``, :func:`~pbstages.grid.score_grid` of ``agents`` ballots on
    ``instance``, holds the outcome at every point of {0..n}^m for any
    agent, and :func:`~pbstages.grid.box_maxima` gives each s's box
    maximum with the index of the others' first profile summing to s.
    """
    ids = instance.ids
    m = len(ids)
    rank = _outcome_key(valuation(model, ideal, instance), ids)
    # The index of the others' first profile reaching each key.
    first: dict[int, int] = {}
    for _, index, key in box_maxima(grid, rank, agents, m):
        if first.setdefault(key, index) > index:
            first[key] = index
    every = subsets_ascending(ids)
    out: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    for key, index in sorted(first.items(), key=lambda item: item[1]):
        rest = profile_at(index, agents - 1, every)
        # The key's low m bits are its outcome's characteristic vector.
        outcome = frozenset(pid for j, pid in enumerate(ids) if key >> m - 1 - j & 1)
        out[outcome] = (*rest[:agent], ideal, *rest[agent:])
    return out


def _judge_outcomes(
    mode: str,
    base_outcomes: Collection[frozenset[int]],
    dev_outcomes: Collection[frozenset[int]],
    value: Callable[[frozenset[int]], int],
) -> tuple[str, tuple[frozenset[int], frozenset[int]] | None]:
    """Pessimistic or optimistic verdict from the outcomes each shortlist can yield.

    Optimistic success needs one deviation-side outcome better than one
    baseline-side outcome.  Pessimistic success also needs every
    deviation-side outcome at least as good as every baseline-side one.
    Returns the (baseline, deviation) outcome pair that decides the
    verdict, or ``None`` when no pair does.
    """
    base_min = min(base_outcomes, key=value)
    base_max = max(base_outcomes, key=value)
    dev_min = min(dev_outcomes, key=value)
    dev_max = max(dev_outcomes, key=value)
    if mode == "pessimistic" and value(dev_min) < value(base_max):
        return UNSUCCESSFUL, (base_max, dev_min)
    if value(dev_max) > value(base_min):
        return SUCCESSFUL, (base_min, dev_max)
    return UNSUCCESSFUL, None


@dataclass
class ManipulationResult:
    """Verdict for one (agent, deviation) pair, with a replayable witness."""

    verdict: str
    witness: dict | None

    @property
    def successful(self) -> bool:
        return self.verdict == SUCCESSFUL


class _Sides:
    """Each side of a game's manipulation checks, computed once per search.

    The shortlist depends only on the proposal profile, and what a
    shortlist yields the manipulator only on the shortlist and her index:
    the anticipated outcome when everyone votes their ideal sets, or every
    best-response outcome over the others' profiles, read off one score
    grid per shortlist that all agents share, its outcomes deduplicated.
    A search holds one ``_Sides`` for its game and ``mode``, so deviations
    that reach a shortlist already seen reuse its side.  Every side a
    search computes or skips is charged: an exhaustive side its (2^m)^n
    profiles against ``caps.profiles``, once, an anticipated side its
    shortlist against ``caps.ballots`` (``charge`` when it is skipped).
    """

    def __init__(self, game: StageGame, caps: Caps, mode: str):
        # The memos close over the run's state, not ``self``: a run leaves no cycle.
        self.game, self.mode = game, mode
        kernel = score_kernel(game.allocation_rule)
        profiles = 0

        @functools.cache
        def shortlist(proposals: tuple[frozenset[int], ...]) -> frozenset[int]:
            return game.instance.check_subset(
                game.shortlist_rule(game.instance, proposals), "shortlist"
            )

        @functools.cache
        def anticipated(
            shortlist: frozenset[int], agent: int
        ) -> tuple[tuple[frozenset[int], ...], frozenset[int]]:
            """Everyone's ideal set on the shortlist, and the outcome of her best response."""
            profile = tuple(game.top_on(i, shortlist) for i in range(game.agents))
            _, outcome = best_response(
                game.allocation_rule, game.instance.restrict(shortlist), profile, agent,
                profile[agent], game.model, caps,
            )
            return profile, outcome

        @functools.cache
        def charge(shortlist: frozenset[int], agent: int) -> None:
            nonlocal profiles
            if mode == "anticipative":
                check_cap(len(shortlist), caps.ballots, "best-response enumeration", "projects")
                return
            profiles += (2 ** len(shortlist)) ** game.agents
            check_cap(
                profiles, caps.profiles, "first-stage search",
                "profiles over its distinct shortlists so far",
            )

        @functools.cache
        def grid(shortlist: frozenset[int]) -> list[frozenset[int]]:
            points = score_grid(kernel, game.instance.restrict(shortlist), game.agents)
            return list(map({outcome: outcome for outcome in points}.__getitem__, points))

        @functools.cache
        def outcomes(
            shortlist: frozenset[int], agent: int
        ) -> dict[frozenset[int], tuple[frozenset[int], ...]]:
            """:func:`_fstar_outcomes` of the agent on the shortlist, for her ideal set on it."""
            charge(shortlist, agent)
            return _fstar_outcomes(
                grid(shortlist), game.instance.restrict(shortlist), game.agents,
                agent, game.top_on(agent, shortlist), game.model,
            )

        self.shortlist, self.anticipated, self.outcomes = shortlist, anticipated, outcomes
        self.charge = charge


def check_manipulation(
    game: StageGame,
    agent: int,
    deviation: Iterable[int],
    mode: str,
    caps: Caps = Caps(),
) -> ManipulationResult:
    """Decide whether one proposal deviation is a successful manipulation.

    Builds the baseline shortlist from the game's proposals and the
    deviation shortlist with the agent's proposal swapped out, then
    compares best-response outcomes per the mode.  Every verdict is exact:
    pessimistic and optimistic checks charge each distinct shortlist its
    (2^m)^n profiles once, and raise ``ResourceLimitError`` when the
    charges pass ``caps.profiles``.
    """
    check_mode(mode)
    check_agents([agent], game.agents)
    deviation = game.instance.check_subset(deviation, "deviation")
    verdict, witness = _check_deviation(_Sides(game, caps, mode), game.proposals, agent, deviation)
    return ManipulationResult(verdict, None if witness is None else witness())


def _check_deviation(
    sides: _Sides,
    proposals: tuple[frozenset[int], ...],
    agent: int,
    deviation: frozenset[int],
    prune: bool = False,
) -> tuple[str, Callable[[], dict] | None]:
    """:func:`check_manipulation` of ``sides.game`` and ``sides.mode`` from ``proposals``.

    Each side is looked up in ``sides``.  Returns the verdict and, when
    there is a witness, the function that builds it.  ``prune`` applies
    the value bound of :func:`check_fssp`.
    """
    game, mode = sides.game, sides.mode
    base_shortlist = sides.shortlist(proposals)
    deviated = tuple(deviation if i == agent else p for i, p in enumerate(proposals))
    dev_shortlist = sides.shortlist(deviated)
    # Both shortlists are checked subsets of the instance, which the ranking covers.
    pool = base_shortlist | dev_shortlist
    ideal = greedy_scan(game.instance, [pid for pid in game.rankings[agent] if pid in pool])
    value = valuation(game.model, ideal, game.instance)

    def witness(base_profile, dev_profile, base_outcome, dev_outcome) -> Callable[[], dict]:
        return lambda: {
            "kind": "first-stage-manipulation",
            "agent": agent + 1,
            "mode": mode,
            "model": game.model,
            "deviation": ids_list(deviation),
            "baseline_proposal": ids_list(proposals[agent]),
            "baseline_shortlist": ids_list(base_shortlist),
            "deviation_shortlist": ids_list(dev_shortlist),
            "comparison_ideal": ids_list(ideal),
            "baseline_profile": [ids_list(b) for b in base_profile],
            "deviation_profile": [ids_list(b) for b in dev_profile],
            "baseline_outcome": ids_list(base_outcome),
            "deviation_outcome": ids_list(dev_outcome),
            "baseline_value": value(base_outcome),
            "deviation_value": value(dev_outcome),
        }

    if mode == "anticipative":
        base_profile, base_out = sides.anticipated(base_shortlist, agent)
        if prune and value(dev_shortlist) <= value(base_out):
            sides.charge(dev_shortlist, agent)
            return UNSUCCESSFUL, None
        dev_profile, dev_out = sides.anticipated(dev_shortlist, agent)
        verdict = SUCCESSFUL if value(dev_out) > value(base_out) else UNSUCCESSFUL
        return verdict, witness(base_profile, dev_profile, base_out, dev_out)

    # Identical shortlists draw both sides' outcomes from one set, so no
    # strict pair can coexist with universal weak improvement.
    if mode == "pessimistic" and base_shortlist == dev_shortlist:
        return UNSUCCESSFUL, None

    base_outs = sides.outcomes(base_shortlist, agent)
    if prune and value(dev_shortlist) <= min(map(value, base_outs)):
        sides.charge(dev_shortlist, agent)
        return UNSUCCESSFUL, None
    dev_outs = sides.outcomes(dev_shortlist, agent)
    verdict, pair = _judge_outcomes(mode, base_outs, dev_outs, value)
    if pair is None:
        return verdict, None
    base_out, dev_out = pair
    return verdict, witness(base_outs[base_out], dev_outs[dev_out], base_out, dev_out)


def check_fssp(
    game: StageGame,
    variant: str,
    mode: str,
    caps: Caps = Caps(),
) -> PropertyVerdict:
    """Search every agent and admissible proposal deviation for a manipulation.

    Restricted agents may propose any subset of their awareness set;
    unrestricted agents may also propose anything already proposed by
    others, and their honest baseline is the ideal set of that larger
    pool.  Reports the first successful deviation in canonical order.
    Every outcome on a deviation shortlist D lies in D, so a D worth no
    more than the baseline's worst outcome fails and its side is skipped.
    Each other side is computed once per call, and the call fails with
    ``ResourceLimitError`` once the profiles of its distinct exhaustive
    sides, skipped ones included, add up past ``caps.profiles``.
    """
    check_variant(variant)
    check_mode(mode)
    proposals = game.proposals
    sides = _Sides(game, caps, mode)
    checked = 0
    params = {"variant": variant, "mode": mode, "model": game.model}
    for agent in range(game.agents):
        truthful = game.truthful_proposal(agent, variant)
        baseline = tuple(truthful if i == agent else p for i, p in enumerate(proposals))
        pool = game.deviation_pool(agent, variant)
        check_cap(len(pool), caps.ballots, "deviation enumeration", "projects")
        for deviation in subsets_ascending(pool):
            if deviation == truthful:
                continue
            checked += 1
            verdict, witness = _check_deviation(sides, baseline, agent, deviation, True)
            if verdict == SUCCESSFUL:
                witness = witness() | {
                    "variant": variant, "truthful_proposal": ids_list(truthful)
                }
                return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    return PropertyVerdict(HOLDS, None, True, checked, params)


def fssp_cells(game: StageGame) -> dict[tuple[str, str], PropertyVerdict]:
    """All six first-stage strategyproofness verdicts for one game, under the default caps."""
    return {
        (variant, mode): check_fssp(game, variant, mode)
        for variant in VARIANTS
        for mode in MODES
    }


@dataclass
class ImplicationReport:
    violations: list[dict]
    tables: int

    @property
    def consistent(self) -> bool:
        return not self.violations


def verify_fssp_implications(
    tables: Iterable[tuple[str, dict[tuple[str, str], PropertyVerdict], bool]],
) -> ImplicationReport:
    """Check verdict tables against the logical implication lattice.

    Each table is ``(name, cells, awareness_covers_proposals)`` with one
    verdict per (variant, mode) cell.  A successful pessimistic or
    anticipative manipulation is in particular a successful optimistic
    one, so an exact optimistic "holds" together with a pessimistic or
    anticipative witness is contradictory.  When every agent's awareness
    covers all proposals, the restricted and unrestricted checks coincide
    and their cells must agree.  All cells must be exact.
    """
    violations = []
    count = 0
    for name, cells, saturated in tables:
        count += 1
        for variant in VARIANTS:
            for mode in MODES:
                if (variant, mode) not in cells:
                    raise ValidationError(f"table {name!r} is missing cell {(variant, mode)}")
                if not cells[(variant, mode)].exact:
                    raise ValidationError(
                        f"table {name!r} cell {(variant, mode)} is not exact"
                    )
        for variant in VARIANTS:
            optimistic = cells[(variant, "optimistic")]
            for implied in ("pessimistic", "anticipative"):
                if optimistic.holds and not cells[(variant, implied)].holds:
                    violations.append(
                        {
                            "table": name,
                            "scope": variant,
                            "violation": f"optimistic holds but {implied} has a witness",
                        }
                    )
        if saturated:
            for mode in MODES:
                if cells[("restricted", mode)].holds != cells[("unrestricted", mode)].holds:
                    violations.append(
                        {
                            "table": name,
                            "scope": mode,
                            "violation": "awareness covers all proposals but restricted "
                            "and unrestricted verdicts differ",
                        }
                    )
    return ImplicationReport(violations, count)


# ---------------------------------------------------------------------------
# Exhaustive class-level check for the nomination rule


def check_nomination_fssp_class(
    allocation_rule: AllocationRule,
    model: str,
    mode: str = "pessimistic",
    max_projects: int = 3,
    max_agents: int = 3,
    costs: tuple[int, ...] = (1, 2),
    max_budget: int = 3,
    caps: Caps = Caps(),
) -> PropertyVerdict:
    """Exhaustive unrestricted-manipulation check for the nomination rule.

    Enumerates every instance in the class (project count, cost vector,
    budget), every agent count, every preference order of the manipulator,
    every union of the other agents' proposals, every awareness pool, and
    every deviation.  The nomination shortlist depends on the others'
    proposals only through their union, the allocation rules read only
    score vectors (so the manipulator's position is irrelevant), and the
    other agents' preference orders never enter an exact pessimistic or
    optimistic verdict, which makes this reduced enumeration exhaustive
    for the full class.  Each side is charged its (2^m)^n profiles when
    first computed, and a side past ``caps.profiles`` raises
    ``ResourceLimitError``.
    """
    kernel = score_kernel(allocation_rule)
    check_model(model)
    check_mode(mode)
    if mode == "anticipative":
        raise ValidationError(
            "the class-level check quantifies ballot profiles; anticipative "
            "verdicts depend on the other agents' preference orders"
        )
    checked = 0
    params = {
        "rule": "nomination",
        "variant": "unrestricted",
        "mode": mode,
        "model": model,
        "max_projects": max_projects,
        "max_agents": max_agents,
        "costs": list(costs),
        "max_budget": max_budget,
    }
    subsets = functools.cache(subsets_ascending)
    instances = (
        Instance([Project(i + 1, c) for i, c in enumerate(cost_vector)], budget)
        for m in range(1, max_projects + 1)
        for cost_vector in itertools.product(costs, repeat=m)
        for budget in range(max(cost_vector), max_budget + 1)
    )
    for instance in class_members(instances, max_agents):
        # A side (every best-response outcome on a shortlist) depends only on
        # the shortlist, the manipulator's ideal set on it and n: each is computed once.
        ideal = functools.cache(functools.partial(ideal_set, instance))
        value = functools.cache(lambda top: functools.cache(valuation(model, top, instance)))

        @functools.cache
        def side(shortlist: frozenset[int], top: frozenset[int], n: int) -> dict:
            check_cap(
                (2 ** len(shortlist)) ** n, caps.profiles, "nomination class side", "profiles"
            )
            restricted = instance.restrict(shortlist)
            return _fstar_outcomes(score_grid(kernel, restricted, n), restricted, n, 0, top, model)

        @functools.cache
        def successful(
            ranking: tuple[int, ...], base: frozenset[int], dev: frozenset[int], n: int
        ) -> bool:
            verdict, _ = _judge_outcomes(
                mode,
                side(base, ideal(ranking, base), n),
                side(dev, ideal(ranking, dev), n),
                value(ideal(ranking, base | dev)),
            )
            return verdict == SUCCESSFUL

        ids = frozenset(instance.ids)
        cases = (
            (n, ranking, union, union | pool)
            for n in range(1, max_agents + 1)
            for ranking in itertools.permutations(instance.ids)
            for union in (subsets(ids) if n > 1 else [frozenset()])
            for pool in subsets(ids - union)
        )
        for n, ranking, union, aware in cases:
            truthful = ideal(ranking, aware)
            for deviation in subsets(aware):
                if deviation == truthful:
                    continue
                checked += 1
                if successful(ranking, union | truthful, union | deviation, n):
                    witness = {
                        "kind": "first-stage-manipulation",
                        "rule": "nomination",
                        "mode": mode,
                        "model": model,
                        "instance": {
                            "costs": [p.cost for p in instance.projects],
                            "budget": instance.budget,
                        },
                        "agents": n,
                        "ranking": list(ranking),
                        "others_union": ids_list(union),
                        "awareness_pool": ids_list(aware),
                        "truthful_proposal": ids_list(truthful),
                        "deviation": ids_list(deviation),
                        "baseline_shortlist": ids_list(union | truthful),
                        "deviation_shortlist": ids_list(union | deviation),
                    }
                    return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    return PropertyVerdict(HOLDS, None, True, checked, params)
