import enum
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from pbstages.fixtures import fixture_names, load_fixture
from pbstages.scenario import (
    ScenarioError,
    document_to_dict,
    dump_json,
    dump_scenario,
    parse_scenario,
    parse_scenario_dict,
    write_scenario,
)


def minimal_scenario(**overrides):
    data = {
        "format": "pb-scenario",
        "version": 1,
        "instance": {
            "budget": 3,
            "projects": [
                {"id": 1, "cost": 1},
                {"id": 2, "cost": 2},
                {"id": 3, "cost": 3},
            ],
        },
        "agents": [
            {"id": 1, "ranking": [1, 2, 3], "awareness": [1, 2]},
            {"id": 2, "ranking": [3, 2, 1]},
        ],
        "proposals": [[1, 2], [3]],
    }
    data.update(overrides)
    return data


# Messages that several cases share.  Strict parametrization refuses a
# duplicate id, so each such case names its id, numbered in order.
BAD_ENTRY = r"^scenario\.metric\.entries\[0\]: expected \[id, id, distance\]$"
UNKNOWN_9 = r"^scenario\.metric: metric names unknown project ids \[9\]$"


def setting(*path, value):
    """An edit of a scenario dict that sets the entry at ``path`` (keys and indices)."""

    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data

    return edit


class TestParsing:
    def test_minimal_document(self):
        doc = parse_scenario_dict(minimal_scenario())
        assert doc.instance.budget == 3
        assert doc.agents[0].awareness == frozenset({1, 2})
        assert doc.awareness[1] == frozenset({1, 2, 3})
        assert doc.proposals == (frozenset({1, 2}), frozenset({3}))

    def test_cost_above_budget_rejected(self):
        data = minimal_scenario()
        data["instance"]["projects"][2]["cost"] = 4
        with pytest.raises(ScenarioError, match="exceeding the budget"):
            parse_scenario_dict(data)

    def test_dangling_proposal_id_rejected(self):
        with pytest.raises(
            ScenarioError,
            match=r"^scenario\.proposals\[0\]: proposals contains unknown project ids \[9\]$",
        ):
            parse_scenario_dict(minimal_scenario(proposals=[[1, 9], [3]]))
        with pytest.raises(
            ScenarioError,
            match=r"^scenario\.ballots\[1\]: ballots contains unknown project ids \[7\]$",
        ):
            parse_scenario_dict(minimal_scenario(ballots=[[1], [3, 7]]))

    def test_ranking_must_be_permutation(self):
        # A short ranking, and one of the right length with a repeated id.
        for ranking in ([1, 2], [1, 2, 2]):
            data = minimal_scenario()
            data["agents"][0]["ranking"] = ranking
            listed = re.escape(str(ranking))
            with pytest.raises(
                ScenarioError,
                match=rf"^scenario\.agents\[0\]\.ranking: ranking {listed} is not a "
                r"permutation of the project ids$",
            ):
                parse_scenario_dict(data)

    def test_proposal_outside_awareness_rejected(self):
        data = minimal_scenario(proposals=[[1, 3], [3]])
        with pytest.raises(ScenarioError, match="outside the agent's awareness"):
            parse_scenario_dict(data)

    def test_asymmetric_table_metric_rejected(self):
        data = minimal_scenario(
            metric={"kind": "table", "entries": [[1, 2, 1.0], [2, 1, 2.0], [1, 3, 1.0], [2, 3, 1.0]]}
        )
        with pytest.raises(ScenarioError, match="asymmetric"):
            parse_scenario_dict(data)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="malformed JSON"):
            parse_scenario(path)

    def test_duplicate_agent_ids_rejected(self):
        data = minimal_scenario()
        data["agents"][1]["id"] = 1
        with pytest.raises(ScenarioError, match="duplicate agent id"):
            parse_scenario_dict(data)

    def test_agent_ids_must_be_positional(self):
        data = minimal_scenario()
        data["agents"][1]["id"] = 7
        with pytest.raises(ScenarioError, match="1..n in order"):
            parse_scenario_dict(data)

    def test_bool_in_ranking_rejected_with_location(self):
        data = minimal_scenario()
        data["agents"][1]["ranking"] = json.loads("[1, true, 3]")
        with pytest.raises(
            ScenarioError, match=r"^scenario\.agents\[1\]\.ranking: expected a list of project ids$"
        ):
            parse_scenario_dict(data)

    @pytest.mark.parametrize("position, key, value, message", [
        pytest.param(1, "ranking", [True, 2, 3],
                     r"^scenario\.agents\[1\]\.ranking: expected a list of project ids$",
                     id="ranking-true"),
        pytest.param(1, "ranking", [3, 2, 1.0],
                     r"^scenario\.agents\[1\]\.ranking: expected a list of project ids$",
                     id="ranking-float"),
        pytest.param(0, "id", True, r"^scenario\.agents\[0\]\.id: expected an integer$",
                     id="id-true"),
        pytest.param(0, "id", 1.0, r"^scenario\.agents\[0\]\.id: expected int, got float$",
                     id="id-float"),
    ])
    def test_values_equal_to_ints_rejected_with_location(self, position, key, value, message):
        # 1.0 and True hash and compare equal to 1, so each entry would pass
        # a test of set equality alone; none of these agents has an awareness set.
        data = minimal_scenario()
        del data["agents"][0]["awareness"]
        data["agents"][position][key] = value
        with pytest.raises(ScenarioError, match=message):
            parse_scenario_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: [], r"^scenario: expected a JSON object$"),
        (setting("format", value="pb-other"), r"^scenario: unknown format 'pb-other'$"),
        (setting("version", value=2), r"^scenario: unsupported version 2$"),
        (setting("instance", value=[]), r"^scenario\.instance: expected dict, got list$"),
        (setting("instance", "budget", value=True),
         r"^scenario\.instance\.budget: expected an integer$"),
        (setting("instance", "projects", 0, "coords", value="north"),
         r"^scenario\.instance\.projects\[0\]: coords must be a list of numbers$"),
        (setting("instance", "projects", 0, "id", value=0),
         r"^scenario\.instance\.projects\[0\]: project index must be >= 1, got 0$"),
        (setting("agents", 0, "awareness", value=[1, 9]),
         r"^scenario\.agents\[0\]\.awareness: awareness set contains unknown project ids \[9\]$"),
        (setting("proposals", value=[[1]]),
         r"^scenario\.proposals: expected one entry per agent \(2\)$"),
        (setting("metric", value={"kind": "manhattan"}),
         r"^scenario\.metric: unknown metric kind 'manhattan'$"),
        pytest.param(setting("metric", value={"kind": "table", "entries": [[1, 2]]}),
                     BAD_ENTRY, id=f"edit-{BAD_ENTRY}0"),
        (setting("tiebreak", value={"kind": "priority", "allocations": [[1], [1]]}),
         r"^scenario\.tiebreak: priority list contains duplicate allocations$"),
        (setting("tiebreak", value={"kind": "random"}),
         r"^scenario\.tiebreak: unknown tie-break kind 'random'$"),
        (setting("config", value=["seed"]), r"^scenario\.config: expected a JSON object$"),
        (setting("checks", value="all"), r"^scenario\.checks: expected a list of JSON objects$"),
        # Entries that must be objects and are not.
        (setting("agents", value=[5]), r"^scenario\.agents\[0\]: expected a JSON object$"),
        (setting("instance", "projects", value=[7]),
         r"^scenario\.instance\.projects\[0\]: expected a JSON object$"),
        (setting("tiebreak", value=3), r"^scenario\.tiebreak: expected a JSON object$"),
        (setting("metric", value=5), r"^scenario\.metric: expected a JSON object$"),
        # Table entries are [int, int, number]: no string, float id or bool.
        pytest.param(setting("metric", value={"kind": "table", "entries": [[1, 2, "x"]]}),
                     BAD_ENTRY, id=f"edit-{BAD_ENTRY}1"),
        pytest.param(setting("metric", value={"kind": "table", "entries": [[1.5, 1, 0]]}),
                     BAD_ENTRY, id=f"edit-{BAD_ENTRY}2"),
        pytest.param(setting("metric", value={"kind": "table", "entries": [[1, True, 1]]}),
                     BAD_ENTRY, id=f"edit-{BAD_ENTRY}3"),
        pytest.param(setting("metric", value={"kind": "table", "entries": [[1, 2, False]]}),
                     BAD_ENTRY, id=f"edit-{BAD_ENTRY}4"),
        # json reads NaN and Infinity; geometry must be finite.
        (setting("instance", "projects", 0, "coords", value=[float("nan"), 0]),
         r"^scenario\.instance\.projects\[0\]: project p1 has non-finite coordinates "
         r"\[nan, 0\.0\]$"),
        (setting("metric", value={
            "kind": "table", "entries": [[1, 2, float("inf")], [1, 3, 1], [2, 3, 1]],
        }), r"^scenario\.metric: non-finite distance inf for pair \(1, 2\)$"),
        # Table entries, self-pairs included, name only the instance's projects.
        pytest.param(
            setting("metric", value={"kind": "table", "entries": [[1, 2, 1.0], [1, 9, 5.0]]}),
            UNKNOWN_9, id=f"edit-{UNKNOWN_9}0",
        ),
        pytest.param(setting("metric", value={
            "kind": "table", "entries": [[1, 2, 1], [1, 3, 1], [2, 3, 1], [9, 9, 0]],
        }), UNKNOWN_9, id=f"edit-{UNKNOWN_9}1"),
        (setting("tiebreak", value={"kind": "priority", "allocations": [[1], [9]]}),
         r"^scenario\.tiebreak\.allocations\[1\]: priority allocation contains unknown "
         r"project ids \[9\]$"),
        # Falsy values of a wrong type are refused, not read as empty.
        *(pytest.param(setting("config", value=falsy),
                       r"^scenario\.config: expected a JSON object$", id=f"config={falsy!r}")
          for falsy in (0, False, [], "")),
        *(pytest.param(setting("checks", value=falsy),
                       r"^scenario\.checks: expected a list of JSON objects$",
                       id=f"checks={falsy!r}")
          for falsy in (0, False, "", {})),
        # The version is the integer 1, not a value equal to it.
        pytest.param(setting("version", value=True), r"^scenario: unsupported version True$",
                     id="version=True"),
        pytest.param(setting("version", value=1.0), r"^scenario: unsupported version 1\.0$",
                     id="version=1.0"),
        # An integer no float can hold is not a number: refused, not an OverflowError.
        pytest.param(setting("instance", "projects", 0, "coords", value=[10**400, 0]),
                     r"^scenario\.instance\.projects\[0\]: coords must be a list of numbers$",
                     id="coords=[10**400, 0]"),
        pytest.param(setting("metric", value={"kind": "table", "entries": [[1, 2, 10**400]]}),
                     r"^scenario\.metric\.entries\[0\]: expected \[id, id, distance\]$",
                     id="distance=10**400"),
    ])
    def test_invalid_document_refused_at_its_location(self, edit, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario_dict(edit(minimal_scenario()))

    def test_file_errors_located_by_path(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ScenarioError, match="^" + re.escape(f"{missing}: cannot read")):
            parse_scenario(missing)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(minimal_scenario(version=2)))
        with pytest.raises(ScenarioError, match="^" + re.escape(f"{path}: unsupported version 2")):
            parse_scenario(path)

    def test_unknown_agent_label_refused(self):
        doc = parse_scenario_dict(minimal_scenario())
        assert doc.agent_index(2) == 1
        with pytest.raises(ScenarioError, match=r"^no agent with label 9$"):
            doc.agent_index(9)

    def test_canonical_tiebreak_is_no_policy(self):
        doc = parse_scenario_dict(minimal_scenario(tiebreak={"kind": "canonical"}))
        assert doc.tiebreak is None

    def test_int_subclass_ids_accepted(self):
        class Id(int):
            pass

        data = minimal_scenario(proposals=[[Id(1), 2], [Id(3)]])
        data["agents"][1]["ranking"] = [Id(3), 2, Id(1)]
        doc = parse_scenario_dict(data)
        assert doc.agents[1].ranking == (3, 2, 1)
        assert doc.proposals == (frozenset({1, 2}), frozenset({3}))


class TestRoundTrip:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_round_trip_identity(self, name):
        doc = load_fixture(name)
        rebuilt = parse_scenario_dict(document_to_dict(doc))
        assert rebuilt == doc

    @pytest.mark.parametrize("name", fixture_names())
    def test_serialisation_is_byte_stable(self, name):
        doc = load_fixture(name)
        once = dump_scenario(doc)
        twice = dump_scenario(parse_scenario_dict(json.loads(once)))
        assert once == twice

    def test_file_round_trip(self, tmp_path):
        doc = load_fixture("example1")
        path = tmp_path / "scenario.json"
        write_scenario(doc, path)
        assert parse_scenario(path) == doc


def json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text()
    )
    # Lists of ints take the writer's one-call path; bools mixed in must not.
    int_lists = st.lists(st.integers() | st.booleans(), max_size=6)
    return st.recursive(
        scalars | int_lists,
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            # json sorts non-string keys before it turns them into strings.
            | st.dictionaries(st.integers(), children, max_size=4)
            | st.dictionaries(st.floats(allow_nan=False), children, max_size=3)
        ),
        max_leaves=20,
    )


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 1024


class TestDumpJson:
    @settings(max_examples=100, deadline=None)
    @given(json_values())
    @example({10: {}, 9: [], -1: [[]], 2**70: ()})
    @example([True, 1, 2, False])
    @example([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -(2**80)])
    @example({"\u00e9\n\"\\": "\x00\u2028\U0001f600", "": [{}]})
    @example({1.5: 1, 0.25: 2, True: 3})
    @example([-1, 0, 1023, 1024, 2**70])
    @example([1, 1.0, 2])
    @example([0, True])
    @example([Colour.RED, 1, Colour.BLUE])
    @example({"x": Colour.RED, "y": [Colour.BLUE]})
    @example({"a": 1, "b": True, "c": 1.0, "d": 2**70})
    def test_matches_stdlib_encoder(self, value):
        assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{(1,): 2}, {1: 2, "a": 3}, [frozenset()]])
    def test_refuses_what_stdlib_refuses(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(value)
