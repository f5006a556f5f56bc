"""Axiom checkers and second-stage strategyproofness search.

A verdict is *exact* when it covers the whole declared search space,
enumerated or decided in closed form on the score grid, in which case
"holds" is a proof for that space.  The fixed-others search covers one
slice of the profile space, so its "holds" is not exact.  Every
counterexample witness carries enough data to be replayed.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from pbstages.core import (
    Caps,
    Instance,
    Project,
    ValidationError,
    check_cap,
    subsets_ascending,
)
from pbstages.allocation import EXHAUSTIVE, approval_scores, classify_allocation, score_kernel
import pbstages.grid
from pbstages.grid import ballot_box, box_maxima, offset, profile_at, score_grid
from pbstages.preferences import check_model, truthful_ballots, valuation
from pbstages.shortlisting import check_proposals, proposal_union

HOLDS = "holds-on-suite"
COUNTEREXAMPLE = "counterexample-found"

AllocationRule = Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]]
ShortlistRule = Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]]


@dataclass
class PropertyVerdict:
    """Outcome of a property check over one case or a whole suite."""

    status: str
    witness: dict | None = None
    exact: bool = True
    checked: int = 0
    params: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_jsonable(self) -> dict:
        return {
            "status": self.status,
            "exact": self.exact,
            "checked": self.checked,
            "params": self.params,
            "witness": self.witness,
        }


def aggregate(verdicts: Iterable[PropertyVerdict], params: dict | None = None) -> PropertyVerdict:
    """Combine per-case verdicts; the first counterexample wins."""
    total = 0
    exact = True
    for verdict in verdicts:
        total += max(verdict.checked, 1)
        exact = exact and verdict.exact
        if not verdict.holds:
            return PropertyVerdict(
                COUNTEREXAMPLE, verdict.witness, verdict.exact, total, params or {}
            )
    return PropertyVerdict(HOLDS, None, exact, total, params or {})


def instance_payload(instance: Instance) -> dict:
    data = {"budget": instance.budget, "costs": {str(i): c for i, c in instance.costs.items()}}
    coords = {str(p.index): list(p.coords) for p in instance.projects if p.coords is not None}
    if coords:
        data["coords"] = coords
    return data


# ---------------------------------------------------------------------------
# Shortlisting axioms


def check_non_wasteful(
    rule: ShortlistRule, instance: Instance, proposals: Sequence[Iterable[int]]
) -> PropertyVerdict:
    """One-case check: the shortlist exhausts the budget or takes everything."""
    proposals = check_proposals(instance, proposals)
    shortlist = rule(instance, proposals)
    if instance.total_cost(shortlist) >= instance.budget or shortlist == proposal_union(proposals):
        return PropertyVerdict(HOLDS, checked=1)
    witness = {
        "kind": "non-wasteful",
        "instance": instance_payload(instance),
        "proposals": [sorted(p) for p in proposals],
        "shortlist": sorted(shortlist),
        "shortlist_cost": instance.total_cost(shortlist),
        "budget": instance.budget,
    }
    return PropertyVerdict(COUNTEREXAMPLE, witness, checked=1)


def find_representative_domination(
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    shortlist: Iterable[int],
    caps: Caps = Caps(),
) -> frozenset[int] | None:
    """A no-costlier set giving every agent weakly more proposals, someone strictly more.

    The search space is the union of proposals: projects outside it
    intersect no proposal and every project costs at least 1, so adding
    them can never help.
    """
    proposals = check_proposals(instance, proposals)
    shortlist = instance.check_subset(shortlist, "shortlist")
    space = proposal_union(proposals)
    check_cap(len(space), caps.domination, "domination search", "projects")
    limit = instance.total_cost(shortlist)
    baseline = [len(shortlist & p) for p in proposals]
    for candidate in subsets_ascending(space):
        if instance.total_cost(candidate) > limit:
            continue
        hits = [len(candidate & p) for p in proposals]
        if all(h >= b for h, b in zip(hits, baseline)) and any(
            h > b for h, b in zip(hits, baseline)
        ):
            return candidate
    return None


def check_representation_efficiency(
    rule: ShortlistRule,
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    caps: Caps = Caps(),
) -> PropertyVerdict:
    """One-case check: the rule's shortlist is not representatively dominated."""
    proposals = check_proposals(instance, proposals)
    shortlist = rule(instance, proposals)
    dominating = find_representative_domination(instance, proposals, shortlist, caps)
    if dominating is None:
        return PropertyVerdict(HOLDS, checked=1)
    witness = {
        "kind": "representative-domination",
        "instance": instance_payload(instance),
        "proposals": [sorted(p) for p in proposals],
        "shortlist": sorted(shortlist),
        "dominating_set": sorted(dominating),
    }
    return PropertyVerdict(COUNTEREXAMPLE, witness, checked=1)


# ---------------------------------------------------------------------------
# Allocation axioms

ALLOCATION_AXIOMS = ("exhaustive", "unanimous", "strongly-unanimous")


def check_allocation_axiom(rule: AllocationRule, axiom: str, cases: Iterable) -> PropertyVerdict:
    """Check an allocation-rule axiom over generated cases.

    Case shapes by axiom:

    - ``"exhaustive"``: ``(instance, ballots)``; the outcome must be a
      feasible allocation that no leftover project still fits.
    - ``"unanimous"``: ``(instance, shared, n)``; when all ``n`` agents
      submit the feasible set ``shared``, the outcome must contain it.
    - ``"strongly-unanimous"``: ``(instance, shared, n, deviant, ballot)``;
      with ``n >= 3`` agents, all but the deviant submitting ``shared``,
      the outcome must still contain it.
    """
    if axiom not in ALLOCATION_AXIOMS:
        raise ValidationError(f"unknown allocation axiom {axiom!r}")
    checked = 0
    for case in cases:
        checked += 1
        if axiom == "exhaustive":
            instance, ballots = case
            outcome = rule(instance, ballots)
            label = classify_allocation(instance, outcome)
            if label != EXHAUSTIVE:
                witness = {
                    "kind": "exhaustive",
                    "instance": instance_payload(instance),
                    "ballots": [sorted(b) for b in ballots],
                    "outcome": sorted(outcome),
                    "classification": label,
                }
                return PropertyVerdict(COUNTEREXAMPLE, witness, checked=checked)
            continue
        if axiom == "unanimous":
            instance, shared, n = case
            deviant = deviant_ballot = None
        else:
            instance, shared, n, deviant, deviant_ballot = case
            if n < 3:
                raise ValidationError("strong unanimity is only defined for 3+ agents")
        shared = instance.check_subset(shared, "shared ballot")
        if instance.total_cost(shared) > instance.budget:
            kind = "unanimity" if axiom == "unanimous" else "strong unanimity"
            raise ValidationError(f"{kind} cases need a feasible shared ballot")
        ballots = tuple(
            instance.check_subset(deviant_ballot) if i == deviant else shared for i in range(n)
        )
        outcome = rule(instance, ballots)
        if not shared <= outcome:
            witness = {
                "kind": axiom,
                "instance": instance_payload(instance),
                "shared": sorted(shared),
                "agents": n,
                "deviant": None if deviant is None else deviant + 1,
                "ballots": [sorted(b) for b in ballots],
                "outcome": sorted(outcome),
            }
            return PropertyVerdict(COUNTEREXAMPLE, witness, checked=checked)
    return PropertyVerdict(HOLDS, checked=checked)


# ---------------------------------------------------------------------------
# Second-stage strategyproofness


def repair_gain(
    value: Callable[[Iterable[int]], int], ideal: frozenset[int], outcome: frozenset[int]
) -> int:
    """The most that adding one arbitrary project to ``outcome`` gains the agent.

    ``value`` is the agent's :func:`~pbstages.preferences.valuation`.  The
    best single project to add is the worthiest ideal project the outcome
    lacks; adding any other project adds nothing.  The approximate bar,
    and a witness's ``repaired_value``, is ``value(outcome)`` plus this gain.
    """
    return max((value((pid,)) for pid in ideal - outcome), default=0)


def _bar(
    value: Callable, ideal: frozenset[int], truthful: frozenset[int], approximate: bool
) -> int:
    """What a manipulation must beat: ``value(truthful)``, plus its repair gain if approximate."""
    return value(truthful) + (repair_gain(value, ideal, truthful) if approximate else 0)


def _refutations(
    grid: list[frozenset[int]], instance: Instance, n: int, ideal: frozenset[int],
    model: str, approximate: bool,
) -> Iterable[tuple[int, int, frozenset[int], frozenset[int]]]:
    """Where an agent with ideal set ``ideal``, among ``n``, beats voting truthfully.

    ``grid`` is :func:`~pbstages.grid.score_grid`, from one kernel call
    that serves every ideal set.  The other agents reach the rule only
    through their score vector s in {0..n-1}^m, and the agent's ballot B
    moves it to s + 1_B.  So she manipulates at s iff the box maximum of
    her value over s + {0,1}^m beats the bar at s + 1_I: the truthful
    outcome's value, plus :func:`repair_gain` when approximate.

    For each such s it yields the others' first profile index there
    (:func:`~pbstages.grid.box_maxima`), the first ballot mask beating the
    bar, and the truthful and manipulated outcomes; no profile is listed.
    """
    ids = instance.ids
    value = functools.cache(valuation(model, ideal, instance))  # once per outcome
    bar_of = functools.cache(lambda truthful: _bar(value, ideal, truthful, approximate))
    shift = offset(ids, ideal, n + 1)
    offsets = [offset(ids, b, n + 1) for b in subsets_ascending(ids)]
    for low, others, best in box_maxima(grid, value, n, len(ids)):
        truthful = grid[low + shift]
        bar = bar_of(truthful)
        if best > bar:
            mask = next(b for b, off in enumerate(offsets) if value(grid[low + off]) > bar)
            yield others, mask, truthful, grid[low + offsets[mask]]


def _first_refutation(
    grid: list[frozenset[int]], instance: Instance, n: int, tops: Sequence[frozenset[int]],
    agent_pool: Sequence[int], model: str, approximate: bool,
) -> tuple[int, int, int, frozenset[int], frozenset[int]] | None:
    """The first manipulation in the ``full`` order, or ``None`` if there is none.

    The order takes profiles in product order of ``subsets_ascending``
    ballots, then the agents of ``agent_pool``, agent i of ideal set
    ``tops[i]``.  Returns the profile index, the agent's rank in the pool,
    the agent, and her truthful and manipulated outcomes.
    """
    m = len(instance.ids)
    refutations = {
        ideal: list(_refutations(grid, instance, n, ideal, model, approximate))
        for ideal in {tops[a] for a in agent_pool}
    }
    # The agent's ballot takes her slot among the others' first profile:
    # the others after her keep the low bits of its index.
    return min(
        (
            (others >> low << low + m | mask << low | others & (1 << low) - 1, rank, agent,
             truthful, manipulated)
            for rank, agent in enumerate(agent_pool)
            for low in [m * (n - 1 - agent)]
            for others, mask, truthful, manipulated in refutations[tops[agent]]
        ),
        default=None,
    )


def check_second_stage_sp(
    rule: AllocationRule,
    instance: Instance,
    rankings: Sequence[Sequence[int]],
    model: str,
    approximate: bool = False,
    search: str = "auto",
    caps: Caps = Caps(),
    ballots: Sequence[Iterable[int]] | None = None,
    agents: Sequence[int] | None = None,
    deviations: Sequence[Iterable[int]] | None = None,
) -> PropertyVerdict:
    """Search for a ballot manipulation that beats voting truthfully.

    A manipulation succeeds when the rule's outcome under some profile is
    strictly better for the manipulator than the outcome with her ballot
    replaced by her ideal set; in approximate mode the truthful outcome
    may first be augmented with any single project.

    Search modes:

    - ``"full"``: every profile and manipulator (exact; charged
      :func:`~pbstages.grid.charge` profiles).  One kernel call on the
      score grid {0..n}^m decides, and :func:`_first_refutation` reads off
      it the first witness of the ordered enumeration, with the
      ``checked`` count of that enumeration.  No profile is listed.
    - ``"fixed-others"``: other agents keep the scenario ballots (their
      truthful ideal sets unless ``ballots`` is given) while each agent
      tries every ballot, or each of ``deviations``, read by
      :func:`~pbstages.grid.ballot_box`; the first to beat the bar is the
      witness.  Every ballot's outcome comes from one box per agent, whose
      distinct outcomes are valued once each: a box whose best value
      cannot beat the bar is skipped whole, and ballots are listed only to
      name a witness.  Deviations are tried one point call at a time,
      stopping at the first witness.  This covers one slice of the space.
      Other modes refuse ``deviations``.
    - ``"auto"``: ``"full"`` when the profile space fits the cap,
      otherwise ``"fixed-others"``.
    """
    kernel = score_kernel(rule)
    check_model(model)
    n = len(rankings)
    if n == 0:
        raise ValidationError("strategyproofness needs at least one agent")
    ids = instance.ids
    tops = truthful_ballots(instance, rankings)
    agent_pool = list(range(n)) if agents is None else check_agents(agents, n)
    m = len(ids)
    charge = pbstages.grid.charge(m, n)
    if search not in ("auto", "full", "fixed-others"):
        raise ValidationError(f"unknown search mode {search!r}")
    if deviations is not None and search != "fixed-others":
        raise ValidationError(
            f"a deviation list applies only to the fixed-others search, not to {search!r}"
        )
    if search == "auto":
        search = "full" if charge <= caps.profiles else "fixed-others"
    params = {
        "search": search,
        "model": model,
        "approximate": approximate,
        "agents": [a + 1 for a in agent_pool],
    }

    if search == "full":
        check_cap(charge, caps.profiles, "full profile enumeration", "profiles")
        grid = score_grid(kernel, instance, n)
        first = _first_refutation(grid, instance, n, tops, agent_pool, model, approximate)
        if first is None:
            return PropertyVerdict(HOLDS, None, True, len(agent_pool) * (2**m) ** n, params)
        index, rank, agent, truthful, manipulated = first
        profile = profile_at(index, n, subsets_ascending(ids))
        witness = _witness(
            instance, model, approximate, agent, tops[agent], profile, truthful, manipulated
        )
        return PropertyVerdict(
            COUNTEREXAMPLE, witness, True, index * len(agent_pool) + rank + 1, params
        )

    base = tops if ballots is None else [instance.check_subset(b) for b in ballots]
    if len(base) != n:
        raise ValidationError("fixed ballots must cover every agent")
    if deviations is not None:
        deviations = [instance.check_subset(d, "deviation") for d in deviations]
    need = len(agent_pool) * (2 ** len(ids) if deviations is None else len(deviations))
    check_cap(need, caps.profiles, "fixed-others search", f"ballots over {len(agent_pool)} agents")
    scores = approval_scores(instance, base)
    checked = 0
    for agent in agent_pool:
        ideal = tops[agent]
        value = valuation(model, ideal, instance)
        if deviations is None:
            outcomes = ballot_box(kernel, instance, scores, base[agent])
            truthful = outcomes[offset(ids, ideal, 2)]
            bar = _bar(value, ideal, truthful, approximate)
            beating = {outcome for outcome in set(outcomes) if value(outcome) > bar}
            if not beating:
                checked += 2**m
                continue
            mask = next(i for i, outcome in enumerate(outcomes) if outcome in beating)
            checked += mask + 1
            ballot, manipulated = subsets_ascending(ids)[mask], outcomes[mask]
        else:
            outcomes = ballot_box(kernel, instance, scores, base[agent], [ideal, *deviations])
            truthful = next(outcomes)
            bar = _bar(value, ideal, truthful, approximate)
            for ballot, manipulated in zip(deviations, outcomes):
                checked += 1
                if value(manipulated) > bar:
                    break
            else:
                continue
        profile = [ballot if i == agent else b for i, b in enumerate(base)]
        witness = _witness(
            instance, model, approximate, agent, ideal, profile, truthful, manipulated
        )
        return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    # Fixed-others searched one slice of the profile space: no proof.
    return PropertyVerdict(HOLDS, None, False, checked, params)


def _witness(
    instance: Instance, model: str, approximate: bool, agent: int, ideal: frozenset[int],
    profile: Sequence[frozenset[int]], truthful: frozenset[int], manipulated: frozenset[int],
) -> dict:
    """The replayable record of ``agent``'s ballot in ``profile`` beating her truthful outcome."""
    value = valuation(model, ideal, instance)
    return {
        "kind": "second-stage-manipulation",
        "instance": instance_payload(instance),
        "agent": agent + 1,
        "model": model,
        "approximate": approximate,
        "profile": [sorted(b) for b in profile],
        "ideal": sorted(ideal),
        "truthful_outcome": sorted(truthful),
        "manipulated_outcome": sorted(manipulated),
        "truthful_value": value(truthful),
        "repaired_value": _bar(value, ideal, truthful, True),
        "manipulated_value": value(manipulated),
    }


def check_agents(agents: Iterable[int], n: int) -> list[int]:
    pool = list(agents)
    for agent in pool:
        if isinstance(agent, bool) or not isinstance(agent, int) or not 0 <= agent < n:
            raise ValidationError(f"agent index {agent!r} is not an integer in 0..{n - 1}")
    if not pool:
        raise ValidationError("the agent list is empty")
    if len(set(pool)) != len(pool):
        raise ValidationError(f"the agent list {pool} repeats an agent")
    return pool


def class_members(members: Iterable, max_agents: int) -> list:
    """A class's members; with none or no agent count its "holds" would prove nothing."""
    members = list(members)
    if not members or max_agents < 1:
        raise ValidationError("the class has no instance or no agent count to check")
    return members


def check_sp_over_unit_class(
    rule: AllocationRule,
    model: str,
    max_projects: int = 4,
    max_agents: int = 3,
    approximate: bool = False,
    caps: Caps = Caps(),
) -> PropertyVerdict:
    """Exhaustively check strategyproofness over small equal-cost instances.

    Covers every instance size, shared cost, budget, agent count,
    manipulator ideal set, and full ballot profile.  ``rule`` must have a
    score kernel (:func:`pbstages.allocation.score_kernel`), so it reads
    only approval scores and is anonymous: fixing the manipulator position
    while quantifying over ideal sets and full profiles covers every agent
    position.  With equal costs every fixed-size subset arises as the
    greedy ideal of some ranking, so quantifying ideal sets covers every
    preference order.

    Each (instance, agent count) is decided on its score grid, listing no
    profile: per ideal set, :func:`_first_refutation` with the manipulator
    last, so the others' profile is tried before her ballot (the witness
    lists it first).  Verdicts and ``checked`` are that enumeration's.
    """
    kernel = score_kernel(rule)
    check_model(model)
    need = pbstages.grid.charge(max_projects, max_agents)
    check_cap(need, caps.profiles, "unit-class check", "profiles")
    checked = 0
    params = {
        "class": "unit-cost",
        "max_projects": max_projects,
        "max_agents": max_agents,
        "unit_costs": list(UNIT_COSTS),
        "model": model,
        "approximate": approximate,
    }
    for instance, slots in class_members(_unit_class(max_projects), max_agents):
        ids = instance.ids
        m = len(ids)
        for n in range(1, max_agents + 1):
            grid = score_grid(kernel, instance, n)
            for ideal in map(frozenset, itertools.combinations(ids, slots)):
                first = _first_refutation(
                    grid, instance, n, [ideal] * n, [n - 1], model, approximate
                )
                if first is None:
                    checked += (2**m) ** n
                    continue
                index, _, _, truthful, manipulated = first
                checked += index + 1
                *others, ballot = profile_at(index, n, subsets_ascending(ids))
                witness = _witness(
                    instance, model, approximate, 0, ideal, [ballot, *others],
                    truthful, manipulated,
                )
                return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    return PropertyVerdict(HOLDS, None, True, checked, params)


# The shared project costs of the unit class.
UNIT_COSTS = (1, 2)


def _unit_class(max_projects: int):
    """Each equal-cost instance of the class, with the number of projects its budget buys."""
    for m in range(1, max_projects + 1):
        for cost in UNIT_COSTS:
            for slots in range(1, m + 1):
                yield Instance([Project(i + 1, cost) for i in range(m)], cost * slots), slots


def check_rules_coincide_on_unit_class(
    first: AllocationRule,
    second: AllocationRule,
    max_projects: int = 4,
    max_agents: int = 3,
) -> PropertyVerdict:
    """Exhaustively compare two rules over small equal-cost instances.

    Enumerates realizable score vectors directly (any vector with entries
    between 0 and the agent count arises from some ballot profile, and
    both rules are anonymous).
    """
    checked = 0
    params = {
        "class": "unit-cost",
        "max_projects": max_projects,
        "max_agents": max_agents,
        "unit_costs": list(UNIT_COSTS),
    }
    for instance, _ in class_members(_unit_class(max_projects), max_agents):
        ids = instance.ids
        for n in range(1, max_agents + 1):
            for scores in itertools.product(range(n + 1), repeat=len(ids)):
                # One agent per score unit keeps the profile well formed.
                ballots = tuple(
                    frozenset(pid for pid, s in zip(ids, scores) if s > level)
                    for level in range(n)
                )
                checked += 1
                a = first(instance, ballots)
                b = second(instance, ballots)
                if a != b:
                    witness = {
                        "kind": "rules-differ",
                        "instance": {
                            "costs": [p.cost for p in instance.projects],
                            "budget": instance.budget,
                        },
                        "ballots": [sorted(x) for x in ballots],
                        "first_outcome": sorted(a),
                        "second_outcome": sorted(b),
                    }
                    return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    return PropertyVerdict(HOLDS, None, True, checked, params)
