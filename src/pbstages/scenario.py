"""Scenario documents: the JSON file format shared by the CLI and fixtures.

One format describes instances, agents, proposal and ballot profiles,
metrics, tie-break policies, checker configuration, and recorded
expectations, so every computed counterexample can be replayed from a
file alone.  Parsing validates referential integrity and metric axioms up
front and reports the offending location.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from pbstages.core import Instance, Project, ValidationError
from pbstages.allocation import PriorityTieBreak
from pbstages.preferences import check_ranking
from pbstages.shortlisting import Metric, euclidean_metric, table_metric

FORMAT = "pb-scenario"
VERSION = 1


class ScenarioError(ValidationError):
    """A scenario document failed validation; the message names the location."""


def _fail(where: str, message: str) -> None:
    raise ScenarioError(f"{where}: {message}")


@dataclass(frozen=True)
class AgentSpec:
    label: int
    ranking: tuple[int, ...]
    awareness: frozenset[int] | None = None


@dataclass(frozen=True)
class ScenarioDocument:
    instance: Instance
    agents: tuple[AgentSpec, ...]
    proposals: tuple[frozenset[int], ...] | None = None
    ballots: tuple[frozenset[int], ...] | None = None
    metric_spec: dict | None = None
    tiebreak: PriorityTieBreak | None = None
    config: dict = field(default_factory=dict)
    checks: tuple[dict, ...] = ()

    @property
    def rankings(self) -> tuple[tuple[int, ...], ...]:
        return tuple(agent.ranking for agent in self.agents)

    @property
    def awareness(self) -> tuple[frozenset[int], ...]:
        out = []
        for agent in self.agents:
            if agent.awareness is None:
                out.append(frozenset(self.instance.ids))
            else:
                out.append(agent.awareness)
        return tuple(out)

    def metric(self) -> Metric | None:
        if self.metric_spec is None:
            return None
        if self.metric_spec["kind"] == "euclidean":
            return euclidean_metric(self.instance)
        entries = [tuple(e) for e in self.metric_spec["entries"]]
        return table_metric(self.instance.ids, entries)

    def agent_index(self, label: int) -> int:
        for i, agent in enumerate(self.agents):
            if agent.label == label:
                return i
        raise ScenarioError(f"no agent with label {label}")


def _expect(data: dict, key: str, kind, where: str):
    if key not in data:
        _fail(where, f"missing required key {key!r}")
    value = data[key]
    if kind is int and isinstance(value, bool):
        _fail(f"{where}.{key}", "expected an integer")
    if not isinstance(value, kind):
        _fail(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _id_list(values, where: str) -> list[int]:
    # One check per distinct element type, not per id: ints and their
    # subclasses pass, bool (an int subclass in Python) does not.
    if not isinstance(values, list) or not all(
        issubclass(kind, int) and kind is not bool for kind in set(map(type, values))
    ):
        _fail(where, "expected a list of project ids")
    return list(values)


def parse_scenario_dict(data: dict, where: str = "scenario") -> ScenarioDocument:
    """Validate a raw dict and build the document; errors carry locations."""
    if not isinstance(data, dict):
        _fail(where, "expected a JSON object")
    if data.get("format", FORMAT) != FORMAT:
        _fail(where, f"unknown format {data.get('format')!r}")
    if data.get("version", VERSION) != VERSION:
        _fail(where, f"unsupported version {data.get('version')!r}")

    raw_instance = _expect(data, "instance", dict, where)
    budget = _expect(raw_instance, "budget", int, f"{where}.instance")
    raw_projects = _expect(raw_instance, "projects", list, f"{where}.instance")
    projects = []
    for j, entry in enumerate(raw_projects):
        loc = f"{where}.instance.projects[{j}]"
        pid = _expect(entry, "id", int, loc)
        cost = _expect(entry, "cost", int, loc)
        coords = entry.get("coords")
        if coords is not None:
            if not isinstance(coords, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in coords
            ):
                _fail(loc, "coords must be a list of numbers")
            coords = tuple(float(x) for x in coords)
        try:
            projects.append(Project(pid, cost, coords))
        except ValidationError as exc:
            _fail(loc, str(exc))
    try:
        instance = Instance(projects, budget)
    except ValidationError as exc:
        _fail(f"{where}.instance", str(exc))

    raw_agents = _expect(data, "agents", list, where)
    agents = []
    labels = set()
    for j, entry in enumerate(raw_agents):
        loc = f"{where}.agents[{j}]"
        label = _expect(entry, "id", int, loc)
        if label in labels:
            _fail(loc, f"duplicate agent id {label}")
        if label != j + 1:
            # Reports and witnesses identify agents by 1-based position, so
            # the declared ids must match it.
            _fail(loc, f"agent ids must be 1..n in order; expected {j + 1}, got {label}")
        labels.add(label)
        ranking = tuple(_id_list(_expect(entry, "ranking", list, loc), f"{loc}.ranking"))
        try:
            check_ranking(instance, ranking)
        except ValidationError as exc:
            _fail(f"{loc}.ranking", str(exc))
        awareness = None
        if entry.get("awareness") is not None:
            ids = _id_list(entry["awareness"], f"{loc}.awareness")
            try:
                awareness = instance.check_subset(ids, "awareness set")
            except ValidationError as exc:
                _fail(f"{loc}.awareness", str(exc))
        agents.append(AgentSpec(label, ranking, awareness))
    agents = tuple(agents)

    def profile(key: str) -> tuple[frozenset[int], ...] | None:
        if data.get(key) is None:
            return None
        raw = _expect(data, key, list, where)
        if len(raw) != len(agents):
            _fail(f"{where}.{key}", f"expected one entry per agent ({len(agents)})")
        blocks = []
        for j, entry in enumerate(raw):
            ids = _id_list(entry, f"{where}.{key}[{j}]")
            try:
                blocks.append(instance.check_subset(ids, key))
            except ValidationError as exc:
                _fail(f"{where}.{key}[{j}]", str(exc))
        return tuple(blocks)

    proposals = profile("proposals")
    if proposals is not None:
        for j, (block, agent) in enumerate(zip(proposals, agents)):
            if agent.awareness is not None and not block <= agent.awareness:
                _fail(
                    f"{where}.proposals[{j}]",
                    "proposal contains projects outside the agent's awareness set",
                )
    ballots = profile("ballots")

    metric_spec = data.get("metric")
    if metric_spec is not None:
        kind = _expect(metric_spec, "kind", str, f"{where}.metric")
        if kind not in ("euclidean", "table"):
            _fail(f"{where}.metric", f"unknown metric kind {kind!r}")
        if kind == "table":
            entries = _expect(metric_spec, "entries", list, f"{where}.metric")
            cleaned = []
            for j, entry in enumerate(entries):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 3
                    or not all(isinstance(x, (int, float)) for x in entry[:2])
                ):
                    _fail(f"{where}.metric.entries[{j}]", "expected [id, id, distance]")
                cleaned.append([int(entry[0]), int(entry[1]), float(entry[2])])
            metric_spec = {"kind": "table", "entries": cleaned}
        else:
            metric_spec = {"kind": "euclidean"}

    tiebreak = None
    if data.get("tiebreak") is not None:
        raw = data["tiebreak"]
        kind = _expect(raw, "kind", str, f"{where}.tiebreak")
        if kind == "canonical":
            tiebreak = None
        elif kind == "priority":
            allocations = _expect(raw, "allocations", list, f"{where}.tiebreak")
            sets = []
            for j, entry in enumerate(allocations):
                ids = _id_list(entry, f"{where}.tiebreak.allocations[{j}]")
                sets.append(instance.check_subset(ids, "priority allocation"))
            try:
                tiebreak = PriorityTieBreak(tuple(sets))
            except ValidationError as exc:
                _fail(f"{where}.tiebreak", str(exc))
        else:
            _fail(f"{where}.tiebreak", f"unknown tie-break kind {kind!r}")

    config = data.get("config") or {}
    if not isinstance(config, dict):
        _fail(f"{where}.config", "expected a JSON object")
    checks = data.get("checks") or []
    if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
        _fail(f"{where}.checks", "expected a list of JSON objects")

    doc = ScenarioDocument(
        instance=instance,
        agents=agents,
        proposals=proposals,
        ballots=ballots,
        metric_spec=metric_spec,
        tiebreak=tiebreak,
        config=dict(config),
        checks=tuple(dict(c) for c in checks),
    )
    try:
        doc.metric()
    except ValidationError as exc:
        _fail(f"{where}.metric", str(exc))
    return doc


def parse_scenario(path: str | Path) -> ScenarioDocument:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON ({exc.msg})"
        ) from exc
    return parse_scenario_dict(data, where=str(path))


def document_to_dict(doc: ScenarioDocument) -> dict:
    """Normalised plain-dict form; serialising then parsing is the identity."""
    projects = []
    for project in doc.instance.projects:
        entry: dict = {"id": project.index, "cost": project.cost}
        if project.coords is not None:
            entry["coords"] = list(project.coords)
        projects.append(entry)
    data: dict = {
        "format": FORMAT,
        "version": VERSION,
        "instance": {"budget": doc.instance.budget, "projects": projects},
        "agents": [
            {
                "id": agent.label,
                "ranking": list(agent.ranking),
                **(
                    {"awareness": sorted(agent.awareness)}
                    if agent.awareness is not None
                    else {}
                ),
            }
            for agent in doc.agents
        ],
    }
    if doc.proposals is not None:
        data["proposals"] = [sorted(p) for p in doc.proposals]
    if doc.ballots is not None:
        data["ballots"] = [sorted(b) for b in doc.ballots]
    if doc.metric_spec is not None:
        data["metric"] = doc.metric_spec
    if doc.tiebreak is not None:
        data["tiebreak"] = {
            "kind": "priority",
            "allocations": [sorted(a) for a in doc.tiebreak.allocations],
        }
    if doc.config:
        data["config"] = doc.config
    if doc.checks:
        data["checks"] = [dict(c) for c in doc.checks]
    return data


def dump_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, the standard library falls back to its pure-Python
    encoder, which yields one chunk per token.  This writer joins each list
    of plain ints in one call and hands every other scalar to the C encoder
    of ``json.dumps``.  Keys are sorted before a non-string key is turned
    into a string, as ``json`` does.  ``tests/test_scenario.py`` checks it
    against the standard library.
    """
    return _dump(value, "\n")


def _dump(value, newline: str) -> str:
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = sep.join(map(str, value))
        else:
            body = sep.join([_dump(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        body = sep.join([f"{_key(key)}: {_dump(item, inner)}" for key, item in items])
        return "{" + inner + body + newline + "}"
    return json.dumps(value)


def _key(key) -> str:
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def dump_scenario(doc: ScenarioDocument) -> str:
    return dump_json(document_to_dict(doc)) + "\n"


def write_scenario(doc: ScenarioDocument, path: str | Path) -> None:
    Path(path).write_text(dump_scenario(doc))
