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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from pbstages.core import (
    Caps,
    Instance,
    Project,
    ResourceLimitError,
    ValidationError,
    subsets_ascending,
)
from pbstages.allocation import (
    EXHAUSTIVE,
    approval_scores,
    classify_allocation,
    kernel_args,
    score_kernel,
)
from pbstages.preferences import check_model, truthful_ballots, valuation
from pbstages.shortlisting import check_proposals, proposal_union

HOLDS = "holds-on-suite"
COUNTEREXAMPLE = "counterexample-found"

AllocationRule = Callable[[Instance, Sequence[frozenset[int]]], frozenset[int]]
ScoreKernel = Callable[..., list[frozenset[int]]]
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


def ids_list(pids: Iterable[int]) -> list[int]:
    return sorted(pids)


def instance_payload(instance: Instance) -> dict:
    data = {
        "budget": instance.budget,
        "costs": {str(p.index): p.cost for p in instance.projects},
    }
    if any(p.coords is not None for p in instance.projects):
        data["coords"] = {
            str(p.index): list(p.coords)
            for p in instance.projects
            if p.coords is not None
        }
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
        "proposals": [ids_list(p) for p in proposals],
        "shortlist": ids_list(shortlist),
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
    if len(space) > caps.domination:
        raise ResourceLimitError(
            f"domination search over {len(space)} projects exceeds the cap "
            f"of {caps.domination}"
        )
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
        "proposals": [ids_list(p) for p in proposals],
        "shortlist": ids_list(shortlist),
        "dominating_set": ids_list(dominating),
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
                    "ballots": [ids_list(b) for b in ballots],
                    "outcome": ids_list(outcome),
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
                "shared": ids_list(shared),
                "agents": n,
                "deviant": None if deviant is None else deviant + 1,
                "ballots": [ids_list(b) for b in ballots],
                "outcome": ids_list(outcome),
            }
            return PropertyVerdict(COUNTEREXAMPLE, witness, checked=checked)
    return PropertyVerdict(HOLDS, checked=checked)


# ---------------------------------------------------------------------------
# Second-stage strategyproofness


def _offset(ids: Sequence[int], ballot: frozenset[int], side: int) -> int:
    """How far adding ``ballot`` moves an index on a grid of ``side`` levels per slot.

    A score kernel returns the outcome at point t of its grid at index
    sum(t_j * side^j), slot 0 fastest, so each search reads every outcome
    by index from the one kernel result it makes.  On a unit box (``side``
    2) the offset is the ballot's position in
    :func:`~pbstages.core.subsets_ascending` order.
    """
    return sum(side**j for j, pid in enumerate(ids) if pid in ballot)


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


def _box_max(keys: list[int], side: int, m: int) -> list[int]:
    """Each point s of {0..side-2}^m takes the maximum of ``keys`` over s + {0,1}^m, in place.

    ``keys`` holds one key per point t of {0..side-1}^m at index
    sum(t_j * side^j), slot 0 fastest (the kernels' order).  A box is a
    product of per-axis intervals, so one pairwise-max pass per axis turns
    the keys into box maxima (van Herk 1992; Gil & Werman 1993), each pass
    one shifted max over the whole list.  Only entries with a coordinate
    at side - 1 take values from across a row boundary, and only such
    entries read them, so every other entry is exact.
    """
    for j in range(m):
        stride = side**j
        keys[:-stride] = map(max, keys[:-stride], keys[stride:])
    return keys


def _first_profiles(n: int, m: int, side: int) -> tuple[list[int], list[int]]:
    """Each score vector s of {0..n-1}^m of n - 1 ballots: its grid index and first profile.

    The grid index is sum(s_j * side^j).  The first profile summing to s,
    in product order of :func:`~pbstages.core.subsets_ascending` masks, is
    a staircase: project j sits in the last s_j ballots, so each earlier
    ballot, which weighs more in the order, is as small as it can be.  Its
    index among the (2^m)^(n-1) profiles is therefore sum(level(s_j) << j),
    with level(v) = sum_{k<v} 2^(m k).
    """
    points, firsts = [0], [0]
    for j in range(m):
        stride, levels = side**j, [((1 << m * v) - 1) // ((1 << m) - 1) << j for v in range(n)]
        points = [p + v * stride for v in range(n) for p in points]
        firsts = [f + level for level in levels for f in firsts]
    return points, firsts


def _profile(index: int, n: int, every: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The profile of ``n`` ballots at ``index`` in product order of the ballots ``every``."""
    m = len(every).bit_length() - 1
    return [every[index >> m * i & len(every) - 1] for i in reversed(range(n))]


def _refutations(
    grid: list[frozenset[int]], instance: Instance, n: int, ideal: frozenset[int],
    model: str, approximate: bool,
) -> Iterable[tuple[int, int, frozenset[int], frozenset[int]]]:
    """Where an agent with ideal set ``ideal``, among ``n``, beats voting truthfully.

    ``grid`` is the rule's outcome at every point of {0..n}^m, from one
    kernel call that serves every ideal set.  The other agents reach the
    rule only through their score vector s in {0..n-1}^m, and the agent's
    ballot B moves it to s + 1_B.  So she manipulates at s iff the box
    maximum of her value over s + {0,1}^m beats the bar at s + 1_I: the
    truthful outcome's value, plus :func:`repair_gain` when approximate.

    For each such s this yields the index of the others' first profile
    reaching it (:func:`_first_profiles`), the first ballot mask that
    beats the bar, and the truthful and manipulated outcomes.  Nothing is
    yielded iff the agent can manipulate in no profile, so no profile is
    ever listed.
    """
    ids = instance.ids
    m = len(ids)
    side = n + 1
    value = valuation(model, ideal, instance)
    worth = {o: value(o) for o in set(grid)}
    bars = {o: _bar(value, ideal, o, approximate) for o in worth}
    best = _box_max(list(map(worth.__getitem__, grid)), side, m)
    shift = _offset(ids, ideal, side)
    offsets = [_offset(ids, b, side) for b in subsets_ascending(ids)]
    for low, others in zip(*_first_profiles(n, m, side)):
        truthful = grid[low + shift]
        bar = bars[truthful]
        if best[low] > bar:
            mask = next(b for b, off in enumerate(offsets) if worth[grid[low + off]] > bar)
            yield others, mask, truthful, grid[low + offsets[mask]]


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

    - ``"full"``: every profile and manipulator (exact; capped at the
      (2^m)^n profiles).  One kernel call on the score grid {0..n}^m
      decides, and :func:`_refutations` reads off it the first witness
      of the ordered enumeration: the least profile in product order of
      :func:`~pbstages.core.subsets_ascending`, ties going to the agent
      first in ``agents``, with the ``checked`` count of that enumeration.
      No profile is listed.
    - ``"fixed-others"``: other agents keep the scenario ballots (their
      truthful ideal sets unless ``ballots`` is given) while each agent
      tries every ballot, or each of ``deviations``, read by
      :func:`_ballot_box`; the first to beat the bar is the witness.  This
      covers one slice of the space.  Other modes refuse ``deviations``.
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
    agent_pool = list(range(n)) if agents is None else _check_agents(agents, n)
    full_space = (2 ** len(ids)) ** n
    if search == "auto":
        search = "full" if full_space <= caps.profiles else "fixed-others"
    if search not in ("full", "fixed-others"):
        raise ValidationError(f"unknown search mode {search!r}")
    if deviations is not None and search != "fixed-others":
        raise ValidationError(
            f"a deviation list applies only to the fixed-others search, not to {search!r}"
        )
    if search == "full" and full_space > caps.profiles:
        raise ResourceLimitError(
            f"full profile enumeration needs {full_space} profiles, "
            f"exceeding the cap of {caps.profiles}"
        )
    params = {
        "search": search,
        "model": model,
        "approximate": approximate,
        "agents": [a + 1 for a in agent_pool],
    }

    if search == "full":
        m = len(ids)
        grid = kernel(*kernel_args(instance), [range(n + 1)] * m)
        refutations = {
            ideal: list(_refutations(grid, instance, n, ideal, model, approximate))
            for ideal in {tops[a] for a in agent_pool}
        }
        # The agent's ballot takes her slot among the others' first profile:
        # the others after her keep the low bits of its index.
        first = min(
            (
                (others >> low << low + m | mask << low | others & (1 << low) - 1, rank, agent,
                 truthful, manipulated)
                for rank, agent in enumerate(agent_pool)
                for low in [m * (n - 1 - agent)]
                for others, mask, truthful, manipulated in refutations[tops[agent]]
            ),
            default=None,
        )
        if first is None:
            return PropertyVerdict(HOLDS, None, True, len(agent_pool) * full_space, params)
        index, rank, agent, truthful, manipulated = first
        profile = _profile(index, n, subsets_ascending(ids))
        witness = _witness(
            instance, model, approximate, agent, tops[agent], profile, truthful, manipulated
        )
        return PropertyVerdict(
            COUNTEREXAMPLE, witness, True, index * len(agent_pool) + rank + 1, params
        )

    base = tops if ballots is None else [instance.check_subset(b) for b in ballots]
    if len(base) != n:
        raise ValidationError("fixed ballots must cover every agent")
    charge = len(agent_pool) * (2 ** len(ids) if deviations is None else len(deviations))
    if charge > caps.profiles:
        raise ResourceLimitError(
            f"fixed-others search tries {charge} ballots over {len(agent_pool)} agents, "
            f"exceeding the cap of {caps.profiles}"
        )
    if deviations is not None:
        deviations = [instance.check_subset(d, "deviation") for d in deviations]
    # A deviation list stands in for the 2^m ballots, which are then never listed.
    tried = subsets_ascending(ids) if deviations is None else deviations
    checked = 0
    for agent in agent_pool:
        ideal = tops[agent]
        if deviations is None:
            outcomes = _ballot_box(kernel, instance, base, agent)
            truthful = outcomes[_offset(ids, ideal, 2)]
        else:
            outcomes = _ballot_box(kernel, instance, base, agent, [ideal, *deviations])
            truthful = next(outcomes)
        value = functools.cache(valuation(model, ideal, instance))  # once per outcome
        bar = _bar(value, ideal, truthful, approximate)
        for ballot, manipulated in zip(tried, outcomes):
            checked += 1
            if value(manipulated) > bar:
                profile = [ballot if i == agent else b for i, b in enumerate(base)]
                witness = _witness(
                    instance, model, approximate, agent, ideal, profile, truthful, manipulated
                )
                return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    # Fixed-others searched one slice of the profile space: no proof.
    return PropertyVerdict(HOLDS, None, False, checked, params)


def _ballot_box(
    kernel: ScoreKernel, instance: Instance, profile: Sequence[frozenset[int]], agent: int,
    ballots: Sequence[frozenset[int]] | None = None,
) -> Sequence[frozenset[int]] | Iterator[frozenset[int]]:
    """The agent's outcome for each ballot while the others keep theirs in ``profile``.

    Without ``ballots``: every ballot's, in ``subsets_ascending`` order, from one kernel
    call on the unit box above the others' score vector; else one lazy point call per ballot.
    """
    own = profile[agent]
    others = [s - (pid in own) for pid, s in approval_scores(instance, profile).items()]
    args = kernel_args(instance)
    if ballots is None:
        return kernel(*args, [(s, s + 1) for s in others])
    return (
        kernel(*args, [(s + (pid in ballot),) for pid, s in zip(instance.ids, others)])[0]
        for ballot in ballots
    )


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
        "profile": [ids_list(b) for b in profile],
        "ideal": ids_list(ideal),
        "truthful_outcome": ids_list(truthful),
        "manipulated_outcome": ids_list(manipulated),
        "truthful_value": value(truthful),
        "repaired_value": _bar(value, ideal, truthful, True),
        "manipulated_value": value(manipulated),
    }


def _check_agents(agents: Iterable[int], n: int) -> list[int]:
    pool = list(agents)
    for agent in pool:
        if isinstance(agent, bool) or not isinstance(agent, int) or not 0 <= agent < n:
            raise ValidationError(f"agent index {agent!r} is not an integer in 0..{n - 1}")
    if not pool:
        raise ValidationError("the agent list is empty")
    if len(set(pool)) != len(pool):
        raise ValidationError(f"the agent list {pool} repeats an agent")
    return pool


def _class_members(members: Iterable, max_agents: int) -> list:
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

    Each (instance, agent count) is decided on its score grid, and
    :func:`_refutations` reads off it, listing no profile, the first
    witness of the ordered enumeration: for each agent count, ideal set
    and profile of the others in product order, the first agent tries
    every ballot.  Verdicts and ``checked`` are that enumeration's.
    """
    kernel = score_kernel(rule)
    check_model(model)
    space = (2**max_projects) ** max_agents
    if space > caps.profiles:
        raise ResourceLimitError(
            f"unit-class check enumerates {space} profiles of {max_agents} agents "
            f"on {max_projects} projects, exceeding the cap of {caps.profiles}"
        )
    checked = 0
    params = {
        "class": "unit-cost",
        "max_projects": max_projects,
        "max_agents": max_agents,
        "unit_costs": list(UNIT_COSTS),
        "model": model,
        "approximate": approximate,
    }
    for instance, slots in _class_members(_unit_class(max_projects), max_agents):
        ids = instance.ids
        m = len(ids)
        args = kernel_args(instance)
        for n in range(1, max_agents + 1):
            grid = kernel(*args, [range(n + 1)] * m)
            for ideal in map(frozenset, itertools.combinations(ids, slots)):
                # The others' profile is tried before her ballot.
                first = min(
                    (
                        (others << m | mask, truthful, manipulated)
                        for others, mask, truthful, manipulated in _refutations(
                            grid, instance, n, ideal, model, approximate
                        )
                    ),
                    default=None,
                )
                if first is None:
                    checked += (2**m) ** n
                    continue
                index, truthful, manipulated = first
                checked += index + 1
                every = subsets_ascending(ids)
                witness = _witness(
                    instance, model, approximate, 0, ideal,
                    [every[index & 2**m - 1], *_profile(index >> m, n - 1, every)],
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
    for instance, _ in _class_members(_unit_class(max_projects), max_agents):
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
                        "ballots": [ids_list(x) for x in ballots],
                        "first_outcome": ids_list(a),
                        "second_outcome": ids_list(b),
                    }
                    return PropertyVerdict(COUNTEREXAMPLE, witness, True, checked, params)
    return PropertyVerdict(HOLDS, None, True, checked, params)
