"""Operations on a scenario: the one dispatcher behind the CLI and the checks.

``run(kind, doc, options, caps)`` maps an operation name and its options
to a JSON-ready result.  The CLI commands and the bundled fixture checks,
which ``paper-suite`` runs, all go through it, so a check computes exactly
what the command it mirrors reports.  Results depend only on (kind,
document, options, caps); ``paper-suite`` alone takes no document.
"""

from __future__ import annotations

from dataclasses import dataclass

from pbstages.core import Caps, ValidationError
from pbstages.allocation import allocation_rule
from pbstages.fixtures import FIXTURES, load_fixture
from pbstages.preferences import truthful_ballots
from pbstages.scenario import ScenarioDocument
from pbstages.shortlisting import (
    equal_representation,
    k_median,
    k_median_outcome,
    nomination,
    representation_score,
)
from pbstages.strategy import StageGame, check_fssp, check_manipulation
from pbstages.suites import allocation_cases, shortlisting_cases
from pbstages.verification import (
    aggregate,
    check_allocation_axiom,
    check_non_wasteful,
    check_representation_efficiency,
    check_second_stage_sp,
    find_representative_domination,
)

SHORTLIST_RULES = ("nomination", "equal-representation", "k-median")


class Options(dict):
    """Operation options; reading a missing required option is a validation error."""

    def __missing__(self, key: str):
        raise ValidationError(f"missing option {key!r}")


def _k_median_metric(doc: ScenarioDocument, k: int | None):
    if k is None:
        raise ValidationError("k-median needs k")
    metric = doc.metric()
    if metric is None:
        raise ValidationError("k-median needs a metric (coordinates or a table)")
    return metric


def shortlist_rule_for(doc: ScenarioDocument, name: str, k: int | None, caps: Caps):
    if name == "nomination":
        return nomination
    if name == "equal-representation":
        if k is None:
            raise ValidationError("equal-representation needs k")
        return lambda instance, proposals: equal_representation(instance, proposals, k, caps)
    if name == "k-median":
        metric = _k_median_metric(doc, k)
        return lambda instance, proposals: k_median(instance, proposals, k, metric, caps)
    raise ValidationError(f"unknown shortlisting rule {name!r}")


def stage_game(doc: ScenarioDocument, options: Options, caps: Caps) -> StageGame:
    return StageGame(
        instance=doc.instance,
        shortlist_rule=shortlist_rule_for(doc, options["rule"], options.get("k"), caps),
        allocation_rule=allocation_rule(options["allocation_rule"]),
        rankings=doc.rankings,
        awareness=doc.awareness,
        model=options["model"],
        proposals=doc.proposals,
    )


def _proposals(doc: ScenarioDocument, options: Options):
    if "proposals" in options:
        return tuple(doc.instance.check_subset(p, "proposals") for p in options["proposals"])
    if doc.proposals is None:
        raise ValidationError("scenario has no proposal profile")
    return doc.proposals


def _policy(doc: ScenarioDocument, options: Options):
    return doc.tiebreak if options.get("tiebreak") == "document" else None


def _shortlist(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    name, k = options["rule"], options.get("k")
    if name != "k-median":
        rule = shortlist_rule_for(doc, name, k, caps)
        return {"shortlist": sorted(rule(doc.instance, _proposals(doc, options)))}
    metric = _k_median_metric(doc, k)
    outcome = k_median_outcome(doc.instance, _proposals(doc, options), k, metric, caps)
    return {
        "shortlist": sorted(outcome.shortlist),
        "radius": outcome.ell,
        "partitions": [[sorted(c) for c in part.clusters] for part in outcome.partitions],
    }


def _allocate(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    """Allocate on the whole instance or on ``shortlist``.  ``ballots`` is
    absent (the scenario's ballots, else truthful ones), ``"truthful"``, or
    an explicit profile."""
    rule = allocation_rule(options["rule"], _policy(doc, options))
    shortlist = options.get("shortlist")
    base = doc.instance if shortlist in (None, "all") else doc.instance.restrict(shortlist)
    ballots = options.get("ballots")
    if ballots is None:
        ballots = doc.ballots or truthful_ballots(base, doc.rankings)
    elif ballots == "truthful":
        ballots = truthful_ballots(base, doc.rankings)
    else:
        ballots = tuple(base.check_subset(b, "ballots") for b in ballots)
    return {
        "ballots": [sorted(b) for b in ballots],
        "allocation": sorted(rule(base, ballots)),
    }


def _end_to_end(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    """Shortlist, then allocate on the shortlist from truthful ballots."""
    shortlist = _shortlist(doc, options, caps)["shortlist"]
    vote = Options(rule=options["allocation_rule"], shortlist=shortlist, ballots="truthful")
    return {"shortlist": shortlist, **_allocate(doc, vote, caps)}


def _check_axiom(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    """Shortlisting axioms are checked on the scenario's proposals plus
    ``suite`` random cases; allocation axioms only on a seeded random
    suite of ``suite`` cases (200 when 0)."""
    axiom = options["axiom"]
    name = options["rule"]
    seed = options.get("seed", 0)
    suite = options.get("suite", 0)
    if suite < 0:
        raise ValidationError(f"suite size must be >= 0, got {suite}")
    if axiom in ("non-wasteful", "representation-efficiency"):
        if doc.proposals is None and not suite:
            raise ValidationError(
                "the scenario has no proposal profile and the suite is empty: "
                "there is nothing to check (give --suite)"
            )
        rule = shortlist_rule_for(doc, name, options.get("k"), caps)
        check = (
            check_non_wasteful
            if axiom == "non-wasteful"
            else lambda r, i, p: check_representation_efficiency(r, i, p, caps)
        )
        verdicts = []
        if doc.proposals is not None:
            verdicts.append(check(rule, doc.instance, doc.proposals))
        if suite:
            if name == "k-median":
                raise ValidationError(
                    "random suites are not supported for k-median (the scenario's "
                    "metric does not cover generated instances); omit --suite"
                )
            for instance, proposals in shortlisting_cases(seed, suite, max_projects=5):
                verdicts.append(check(rule, instance, proposals))
        verdict = aggregate(verdicts, {"axiom": axiom, "rule": name, "suite": suite, "seed": seed})
        return {"verdict": verdict.to_jsonable()}
    rule = allocation_rule(name)
    # The cases are drawn lazily, after the axiom name has been checked.
    verdict = check_allocation_axiom(rule, axiom, allocation_cases(seed, suite or 200, axiom))
    verdict.params = {"axiom": axiom, "rule": name, "suite": suite or 200, "seed": seed}
    return {"verdict": verdict.to_jsonable()}


def _check_ssp(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    rule = allocation_rule(options["rule"], _policy(doc, options))
    agents, deviations = options.get("agents"), options.get("deviations")
    verdict = check_second_stage_sp(
        rule,
        doc.instance,
        doc.rankings,
        options.get("model", "overlap"),
        approximate=bool(options.get("approximate", False)),
        search=options.get("search", "auto"),
        caps=caps,
        ballots=doc.ballots,
        agents=None if agents is None else [doc.agent_index(a) for a in agents],
        deviations=None if deviations is None else [frozenset(d) for d in deviations],
    )
    return {"verdict": verdict.to_jsonable()}


def _check_fssp(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    game = stage_game(doc, options, caps)
    verdict = check_fssp(game, options["variant"], options["mode"], caps)
    return {"verdict": verdict.to_jsonable()}


def _manipulation(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    result = check_manipulation(
        stage_game(doc, options, caps),
        doc.agent_index(options["agent"]),
        frozenset(options["deviation"]),
        options["mode"],
        caps,
    )
    return {"verdict": result.verdict, "witness": result.witness}


def _score(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    if doc.proposals is None:
        raise ValidationError("score check needs a proposal profile")
    return {"score": str(representation_score(frozenset(options["subset"]), doc.proposals))}


def _domination(doc: ScenarioDocument, options: Options, caps: Caps) -> dict:
    shortlist = _shortlist(doc, options, caps)["shortlist"]
    dominating = find_representative_domination(
        doc.instance, _proposals(doc, options), shortlist, caps
    )
    result = {"found": dominating is not None, "shortlist": shortlist}
    if dominating is not None:
        result["dominating"] = sorted(dominating)
    return result


def _paper_suite(doc: None, options: Options, caps: Caps) -> dict:
    suite = run_bundled_suite(caps)
    tagged = [
        (f"{name}/{r.check_id}", r.status) for name, results in suite.items() for r in results
    ]
    failures = [tag for tag, status in tagged if status == "fail"]
    return {
        "fixtures": {name: [r.to_jsonable() for r in results] for name, results in suite.items()},
        "informational": [tag for tag, status in tagged if status == "informational"],
        "failures": failures,
        "ok": not failures,
    }


OPERATIONS = {
    "shortlist": _shortlist,
    "allocate": _allocate,
    "end-to-end": _end_to_end,
    "check-axiom": _check_axiom,
    "check-ssp": _check_ssp,
    "check-fssp": _check_fssp,
    "manipulation": _manipulation,
    "score": _score,
    "domination": _domination,
    "paper-suite": _paper_suite,
}


def run(kind: str, doc: ScenarioDocument | None, options: dict, caps: Caps = Caps()) -> dict:
    """Run one operation on a document (None for paper-suite); pure given its arguments."""
    try:
        operation = OPERATIONS[kind]
    except KeyError:
        raise ValidationError(f"unknown operation {kind!r}") from None
    if (doc is None) != (kind == "paper-suite"):
        raise ValidationError(f"{kind} {'needs a' if doc is None else 'takes no'} document")
    return operation(doc, Options(options), caps)


# ---------------------------------------------------------------------------
# Check runner


@dataclass
class CheckResult:
    check_id: str
    kind: str
    status: str  # "pass" | "fail" | "informational"
    expected: dict
    computed: dict
    note: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "id": self.check_id,
            "kind": self.kind,
            "status": self.status,
            "expected": self.expected,
            "computed": self.computed,
            "note": self.note,
        }


# Check kind -> the operation it runs.
CHECK_OPERATIONS = {
    "shortlist": "shortlist",
    "clusters": "shortlist",
    "allocation": "allocate",
    "end-to-end": "end-to-end",
    "score": "score",
    "manipulation": "manipulation",
    "fssp": "check-fssp",
    "ssp": "check-ssp",
    "domination": "domination",
}

# Witness fields that verdict checks copy into ``computed``.
WITNESS_FIELDS = {
    "manipulation": ("baseline_outcome", "deviation_outcome"),
    "fssp": ("agent", "deviation"),
    "ssp": ("agent", "truthful_outcome", "manipulated_outcome"),
}


def _check_options(doc: ScenarioDocument, check: dict) -> dict:
    """Map a check's recorded fields onto the options of its operation."""
    kind = check["kind"]
    options = {
        key: value
        for key, value in check.items()
        if key not in ("id", "kind", "expect", "required", "note")
    }
    if "shortlist_rule" in options:
        options["rule"] = options.pop("shortlist_rule")
    if kind == "clusters":
        options["rule"] = "k-median"
    elif kind == "allocation":
        options.setdefault("ballots", "truthful")
    elif kind in ("manipulation", "fssp"):
        options.setdefault("model", doc.config.get("model", "overlap"))
    return options


def _computed(kind: str, result: dict) -> dict:
    """The fields of an operation's result that a check of ``kind`` compares."""
    if kind == "clusters":
        return result
    if kind not in WITNESS_FIELDS:
        # Only clusters checks compare the clustering detail; none compares ballots.
        return {k: v for k, v in result.items() if k not in ("radius", "partitions", "ballots")}
    if kind == "manipulation":
        computed, witness = {"verdict": result["verdict"]}, result["witness"]
    else:
        computed, witness = {"status": result["verdict"]["status"]}, result["verdict"]["witness"]
    if witness:
        computed.update((key, witness[key]) for key in WITNESS_FIELDS[kind])
        if kind == "ssp":
            computed["manipulator_ballot"] = witness["profile"][witness["agent"] - 1]
    computed["witness"] = witness
    return computed


def run_check(doc: ScenarioDocument, check: dict, caps: Caps = Caps()) -> CheckResult:
    """Execute one recorded expectation against the document."""
    kind = check["kind"]
    if kind not in CHECK_OPERATIONS:
        raise ValidationError(f"unknown check kind {kind!r}")
    result = run(CHECK_OPERATIONS[kind], doc, _check_options(doc, check), caps)
    computed = _computed(kind, result)
    expect = check.get("expect", {})
    matches = all(computed.get(key) == value for key, value in expect.items())
    required = check.get("required", True)
    if matches:
        status = "pass"
    elif required:
        status = "fail"
    else:
        status = "informational"
    return CheckResult(
        check_id=check.get("id", kind),
        kind=kind,
        status=status,
        expected=expect,
        computed=computed,
        note=check.get("note"),
    )


def run_fixture(name: str, caps: Caps = Caps()) -> list[CheckResult]:
    doc = load_fixture(name)
    return [run_check(doc, check, caps) for check in doc.checks]


def run_bundled_suite(caps: Caps = Caps()) -> dict[str, list[CheckResult]]:
    """Run every bundled fixture's checks; the suite's exit contract is
    zero failures and exactly the documented informational records."""
    return {name: run_fixture(name, caps) for name in FIXTURES}
