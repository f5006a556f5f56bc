"""Command-line front end.

Every command reads a scenario (from a file or a bundled fixture), runs
rules or checkers on it, and emits a JSON report that embeds the scenario
and the exact configuration, so any report can be replayed byte-for-byte
later.  Verdicts live in the report; the exit code only distinguishes
completed runs (0), validation errors (2), and resource-limit refusals (3).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from pbstages.core import Caps, ResourceLimitError, ValidationError
from pbstages.allocation import ALLOCATION_RULES
from pbstages.fixtures import fixture_names, load_fixture
from pbstages.operations import SHORTLIST_RULES, run
from pbstages.preferences import MODELS
from pbstages.scenario import (
    ScenarioDocument,
    document_to_dict,
    dump_json,
    parse_scenario,
    parse_scenario_dict,
)
from pbstages.strategy import MODES, VARIANTS

REPORT_FORMAT = "pb-report"
REPORT_VERSION = 1
# Commands whose reports replay through :func:`pbstages.operations.run`.
COMMANDS = ("shortlist", "allocate", "end-to-end", "check-axiom", "check-ssp", "check-fssp",
            "paper-suite")
CAP_NAMES = tuple(cap.name for cap in dataclasses.fields(Caps))
# Parsed flags that are not operation options, besides the --cap-* flags.
NOT_OPTIONS = ("command", "scenario", "fixture", "output", "no_timing", "metric")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="pbstages",
        description="Two-stage participatory budgeting rules and checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_source: bool = True) -> None:
        if needs_source:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--scenario", help="path to a scenario JSON file")
            src.add_argument(
                "--fixture", choices=fixture_names(), help="bundled scenario name"
            )
        p.add_argument("--output", help="write the report to this file instead of stdout")
        p.add_argument("--no-timing", action="store_true", help="omit timing from the report")
        for cap in dataclasses.fields(Caps):
            p.add_argument(f"--cap-{cap.name.replace('_', '-')}", type=int, default=cap.default)

    def seed_flag(p: argparse.ArgumentParser) -> None:
        # check-axiom reads the seed of its random suite.  allocate,
        # end-to-end and paper-suite never draw, but their --no-timing report
        # bytes, seed option included, are pinned by sha256.
        p.add_argument("--seed", type=int, default=0, help="seed for random suites")

    def metric_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metric",
            choices=("document", "euclidean", "table"),
            default="document",
            help="override the scenario's metric kind (euclidean needs "
            "coordinates; table needs a distance table in the scenario)",
        )

    p = sub.add_parser("shortlist", help="run a shortlisting rule on the scenario's proposals")
    p.add_argument("--rule", choices=SHORTLIST_RULES, required=True)
    p.add_argument("--k", type=int)
    metric_flag(p)
    common(p)

    p = sub.add_parser("allocate", help="run an allocation rule on the scenario's ballots")
    p.add_argument("--rule", choices=ALLOCATION_RULES, required=True)
    p.add_argument(
        "--tiebreak",
        choices=("canonical", "document"),
        default="canonical",
        help="use the scenario's priority tie-break list instead of the canonical rule",
    )
    seed_flag(p)
    common(p)

    p = sub.add_parser("end-to-end", help="shortlist, then vote truthfully, then allocate")
    p.add_argument("--rule", choices=SHORTLIST_RULES, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--allocation-rule", choices=ALLOCATION_RULES, required=True)
    metric_flag(p)
    seed_flag(p)
    common(p)

    p = sub.add_parser(
        "check-axiom",
        help="check a rule axiom: a shortlisting axiom on the scenario's proposals "
        "(plus --suite random cases), an allocation axiom on a seeded random suite only",
    )
    p.add_argument(
        "--axiom",
        required=True,
        choices=(
            "non-wasteful",
            "representation-efficiency",
            "exhaustive",
            "unanimous",
            "strongly-unanimous",
        ),
    )
    p.add_argument("--rule", required=True, help="shortlisting or allocation rule name")
    p.add_argument("--k", type=int)
    p.add_argument(
        "--suite",
        type=int,
        default=0,
        help="number of random cases: added to the scenario for shortlisting axioms; "
        "the whole check for allocation axioms, which never read the scenario's "
        "ballots (0 means 200)",
    )
    metric_flag(p)
    seed_flag(p)
    common(p)

    p = sub.add_parser("check-ssp", help="search for a voting-stage manipulation")
    p.add_argument("--rule", choices=ALLOCATION_RULES, required=True)
    p.add_argument("--model", choices=MODELS, default="overlap")
    p.add_argument("--approximate", action="store_true")
    p.add_argument(
        "--search", choices=("auto", "full", "fixed-others"), default="auto",
        help="auto is full within --cap-profiles and otherwise falls back to fixed-others, "
        'whose "holds" is not exact',
    )
    p.add_argument(
        "--tiebreak", choices=("canonical", "document"), default="canonical"
    )
    common(p)

    p = sub.add_parser("check-fssp", help="search for a proposal-stage manipulation")
    p.add_argument("--rule", choices=SHORTLIST_RULES, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--allocation-rule", choices=ALLOCATION_RULES, required=True)
    p.add_argument("--model", choices=MODELS, default="overlap")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    metric_flag(p)
    common(p)

    p = sub.add_parser("replay", help="re-run a report and verify it reproduces")
    p.add_argument("report", help="path to a report JSON file")
    p.add_argument("--output", help="write the replay report to this file")
    p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("paper-suite", help="run every bundled fixture against its records")
    seed_flag(p)
    common(p, needs_source=False)

    return parser


def _caps(args: argparse.Namespace) -> Caps:
    return Caps(**{name: getattr(args, f"cap_{name}") for name in CAP_NAMES})


def _load_document(args: argparse.Namespace) -> tuple[ScenarioDocument, dict]:
    if getattr(args, "fixture", None):
        doc, source = load_fixture(args.fixture), {"fixture": args.fixture}
    else:
        doc, source = parse_scenario(args.scenario), {"scenario": args.scenario}
    return _apply_metric_override(doc, getattr(args, "metric", "document")), source


def _apply_metric_override(doc: ScenarioDocument, kind: str) -> ScenarioDocument:
    if kind in (None, "document"):
        return doc
    if kind == "table":
        if doc.metric_spec is None or doc.metric_spec.get("kind") != "table":
            raise ValidationError("--metric table needs a distance table in the scenario")
        return doc
    doc = dataclasses.replace(doc, metric_spec={"kind": "euclidean"})
    doc.metric()
    return doc


def _emit(report: dict, output: str | None) -> None:
    text = dump_json(report) + "\n"
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write report {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_option_types(command: str, options: dict) -> None:
    """Refuse a stored option the command's parser could not have produced.

    An integer ``seed`` is accepted on every command: reports written
    while ``shortlist``, ``check-fssp`` and ``check-ssp`` still took
    ``--seed`` carry one, and nothing reads it.  So is an integer
    ``samples`` on ``check-ssp``, left from its removed sampled search.
    A stored ``"search": "sample"`` names that search and is refused.
    """
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        action.dest: action
        for action in commands.choices[command]._actions
        if action.dest not in (*NOT_OPTIONS, "help") and not action.dest.startswith("cap_")
    }
    for key, value in options.items():
        action = flags.get(key)
        if action is None:
            retired = key == "seed" or (command, key) == ("check-ssp", "samples")
            if retired and type(value) is int:
                continue
            raise ValidationError(f"report option {key!r} is not an option of {command}")
        if action.nargs == 0:
            ok = type(value) is bool
        elif value is None:
            ok = action.default is None
        else:
            ok = type(value) is (action.type or str) and (
                action.choices is None or value in action.choices
            )
        if not ok:
            raise ValidationError(
                f"report option {action.dest!r} = {value!r} is not a value of --"
                f"{action.dest.replace('_', '-')}"
            )


def _replay(args: argparse.Namespace) -> dict:
    try:
        stored = json.loads(Path(args.report).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read report {args.report}: {exc}") from exc
    if not isinstance(stored, dict):
        raise ValidationError("a report must be a JSON object")
    for key in ("command", "options", "caps", "document", "results"):
        if key not in stored:
            raise ValidationError(f"report is missing the {key!r} field")
    command, raw_caps = stored["command"], stored["caps"]
    if command not in COMMANDS:
        raise ValidationError(f"cannot replay a report of command {command!r}")
    if not isinstance(stored["options"], dict):
        raise ValidationError("report options must be a JSON object")
    if not (isinstance(raw_caps, dict) and set(raw_caps) <= set(CAP_NAMES)):
        raise ValidationError(f"report caps must map some of {', '.join(CAP_NAMES)} to integers")
    header = stored.get("format"), stored.get("version")
    if header != (REPORT_FORMAT, REPORT_VERSION) or type(header[1]) is not int:
        raise ValidationError(f"not a {REPORT_FORMAT} version {REPORT_VERSION} report: {header}")
    _check_option_types(command, stored["options"])
    caps = Caps(**raw_caps)
    doc = stored["document"]
    if doc is not None:
        doc = parse_scenario_dict(doc, where="report.document")
    fresh = run(command, doc, stored["options"], caps)
    matches = fresh == stored["results"]
    return {
        "replayed_command": command,
        "reproduces": matches,
        "results": fresh,
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "replay":
            report = {"source": {"report": args.report}, "results": _replay(args)}
        else:
            caps = _caps(args)
            options = {
                key: value
                for key, value in vars(args).items()
                if key not in NOT_OPTIONS and not key.startswith("cap_")
            }
            doc, report = None, {"options": options, "document": None}
            if "scenario" in vars(args):
                doc, source = _load_document(args)
                report.update(source=source, document=document_to_dict(doc))
            report["results"] = run(args.command, doc, options, caps)
            report["caps"] = caps.__dict__
        report.update(
            format=REPORT_FORMAT, version=REPORT_VERSION, command=args.command, status="completed"
        )
        if not args.no_timing:
            report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        _emit(report, args.output)
        return 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
