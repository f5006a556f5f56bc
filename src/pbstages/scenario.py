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

from pbstages.core import Instance, Project, ValidationError, is_number
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
    if not isinstance(data, dict):
        _fail(where, "expected a JSON object")
    if key not in data:
        _fail(where, f"missing required key {key!r}")
    value = data[key]
    if kind is int and isinstance(value, bool):
        _fail(f"{where}.{key}", "expected an integer")
    if not isinstance(value, kind):
        _fail(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _checked(where: str, check, *args):
    """``check(*args)``, its ValidationError refused at ``where``."""
    try:
        return check(*args)
    except ValidationError as exc:
        _fail(where, str(exc))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _id_list(values, where: str) -> list[int]:
    # One check per distinct element type, not per id: ints and their
    # subclasses pass, bool (an int subclass in Python) does not.
    if isinstance(values, list):
        kinds = set(map(type, values))
        if kinds <= {int} or all(issubclass(kind, int) and kind is not bool for kind in kinds):
            return values
    _fail(where, "expected a list of project ids")


def _each(raw: list, where: str, parse) -> list:
    """``parse(j, entry)`` for every entry of ``raw``.

    ``parse`` raises with a location relative to its entry ("" for the
    entry itself, ".key" for one of its fields), so an entry's location
    string is built only when it is refused.
    """
    out = []
    for j, entry in enumerate(raw):
        try:
            out.append(parse(j, entry))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}[{j}]{exc}") from None
    return out


def _project(entry) -> Project:
    pid = _expect(entry, "id", int, "")
    cost = _expect(entry, "cost", int, "")
    coords = entry.get("coords")
    if coords is not None and (
        not isinstance(coords, list) or not all(map(is_number, coords))
    ):
        _fail("", "coords must be a list of numbers")
    return _checked("", Project, pid, cost, coords)


def _id_set(entry, instance: Instance, ids: frozenset[int], what: str) -> frozenset[int]:
    """A list of known project ids as a set; ``check_subset`` words a refusal."""
    block = frozenset(_id_list(entry, ""))
    if not block <= ids:
        _checked("", instance.check_subset, block, what)
    return block


def _agent(position: int, entry, instance: Instance, ids: frozenset[int]) -> AgentSpec:
    label = _expect(entry, "id", int, "")
    # Agents 1..position-1 are already read, with exactly those ids.
    if 1 <= label < position:
        _fail("", f"duplicate agent id {label}")
    if label != position:
        # Reports and witnesses identify agents by 1-based position, so
        # the declared ids must match it.
        _fail("", f"agent ids must be 1..n in order; expected {position}, got {label}")
    ranking = _id_list(_expect(entry, "ranking", list, ""), ".ranking")
    if len(ranking) != len(ids) or set(ranking) != ids:
        _checked(".ranking", check_ranking, instance, ranking)
    awareness = entry.get("awareness")
    if awareness is not None:
        try:
            awareness = _id_set(awareness, instance, ids, "awareness set")
        except ScenarioError as exc:
            raise ScenarioError(f".awareness{exc}") from None
    return AgentSpec(label, tuple(ranking), awareness)


def _agents(
    raw: list, where: str, instance: Instance, ids: frozenset[int]
) -> tuple[AgentSpec, ...]:
    """The agents of ``raw``, in the manner of :func:`_each` over :func:`_agent`.

    An entry passes the accept test when its id is its position, it has no
    awareness set and its ranking is a permutation of ``ids``, all plain
    ints; :func:`_agent` reads every other entry and words its refusal.
    Sets hold ``1.0`` and ``True`` equal to ``1``, so the types are tested
    apart.
    """
    out = []
    for position, entry in enumerate(raw, 1):
        ranking = entry.get("ranking") if type(entry) is dict else None
        if (
            type(ranking) is list
            and type(entry.get("id")) is int
            and entry["id"] == position
            and entry.get("awareness") is None
            and len(ranking) == len(ids)
            and set(ranking) == ids
            and set(map(type, ranking)) == {int}
        ):
            out.append(AgentSpec(position, tuple(ranking)))
            continue
        try:
            out.append(_agent(position, entry, instance, ids))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}[{position - 1}]{exc}") from None
    return tuple(out)


def _distance(entry) -> list:
    if not (
        isinstance(entry, list)
        and len(entry) == 3
        and _is_int(entry[0])
        and _is_int(entry[1])
        and is_number(entry[2])
    ):
        _fail("", "expected [id, id, distance]")
    return [int(entry[0]), int(entry[1]), float(entry[2])]


def parse_scenario_dict(data: dict, where: str = "scenario") -> ScenarioDocument:
    """Validate a raw dict and build the document; errors carry locations."""
    if not isinstance(data, dict):
        _fail(where, "expected a JSON object")
    if data.get("format", FORMAT) != FORMAT:
        _fail(where, f"unknown format {data.get('format')!r}")
    version = data.get("version", VERSION)
    if not _is_int(version) or version != VERSION:
        _fail(where, f"unsupported version {version!r}")

    raw_instance = _expect(data, "instance", dict, where)
    budget = _expect(raw_instance, "budget", int, f"{where}.instance")
    raw_projects = _expect(raw_instance, "projects", list, f"{where}.instance")
    projects = _each(raw_projects, f"{where}.instance.projects", lambda j, entry: _project(entry))
    instance = _checked(f"{where}.instance", Instance, projects, budget)
    ids = frozenset(instance.ids)

    raw_agents = _expect(data, "agents", list, where)
    agents = _agents(raw_agents, f"{where}.agents", instance, ids)

    def profile(key: str) -> tuple[frozenset[int], ...] | None:
        if data.get(key) is None:
            return None
        raw = _expect(data, key, list, where)
        if len(raw) != len(agents):
            _fail(f"{where}.{key}", f"expected one entry per agent ({len(agents)})")
        return tuple(
            _each(raw, f"{where}.{key}", lambda j, entry: _id_set(entry, instance, ids, key))
        )

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
            cleaned = _each(entries, f"{where}.metric.entries", lambda j, entry: _distance(entry))
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
            sets = _each(
                allocations,
                f"{where}.tiebreak.allocations",
                lambda j, entry: _id_set(entry, instance, ids, "priority allocation"),
            )
            tiebreak = _checked(f"{where}.tiebreak", PriorityTieBreak, tuple(sets))
        else:
            _fail(f"{where}.tiebreak", f"unknown tie-break kind {kind!r}")

    # Only an absent or null field is empty; a falsy value of a wrong type is not.
    config = {} if data.get("config") is None else data["config"]
    if not isinstance(config, dict):
        _fail(f"{where}.config", "expected a JSON object")
    checks = [] if data.get("checks") is None else data["checks"]
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
    _checked(f"{where}.metric", doc.metric)
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


# Prebuilt text of the ints a report is made of: project and agent ids, counts.
_INT_TEXT = {i: str(i) for i in range(1024)}


def dump_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, the standard library falls back to its pure-Python
    encoder, which yields one chunk per token.  This writer appends the
    chunks depth first to one list and joins it once.  A list of plain ints
    is joined in one call from a table of prebuilt text for 0..1023, falling
    back to ``str`` for the whole list when an int lies outside it; a
    plain-int dict value is written with its key.  Every scalar other than
    a plain int or string goes to the C encoder of ``json.dumps``.  Keys are
    sorted before a non-string key is turned into a string, as ``json``
    does.  ``tests/test_scenario.py`` checks it against the standard library.
    """
    out: list[str] = []
    _dump(value, "\n", out)
    return "".join(out)


def _dump(value, newline: str, out: list[str]) -> None:
    kind = type(value)
    if kind is int:
        out.append(str(value))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == {int}:
            try:
                text = ("," + inner).join(map(_INT_TEXT.__getitem__, value))
            except KeyError:
                text = ("," + inner).join(map(str, value))
            out += ("[", inner, text, newline, "]")
            return
        head, sep = "[" + inner, "," + inner
        for item in value:
            out.append(head)
            _dump(item, inner, out)
            head = sep
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head, sep = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            if type(item) is int:
                out += (head, _key(key), ": ", str(item))
            else:
                out += (head, _key(key), ": ")
                _dump(item, inner, out)
            head = sep
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def _key(key) -> str:
    if type(key) is str:
        return encode_basestring_ascii(key)
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def dump_scenario(doc: ScenarioDocument) -> str:
    return dump_json(document_to_dict(doc)) + "\n"


def write_scenario(doc: ScenarioDocument, path: str | Path) -> None:
    Path(path).write_text(dump_scenario(doc))
