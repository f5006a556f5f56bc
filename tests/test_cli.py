import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from pbstages import cli, shortlisting
from pbstages.cli import main
from pbstages.core import Instance, Project
from pbstages.fixtures import load_fixture
from pbstages.oracles import approval_maximising_oracle
from pbstages.scenario import (
    AgentSpec,
    ScenarioDocument,
    document_to_dict,
    parse_scenario,
    parse_scenario_dict,
    write_scenario,
)
from pbstages.suites import random_instance, random_ranking


# sha256 of the `paper-suite --no-timing` report, recorded on Python 3.11.7.
PAPER_SUITE_SHA256 = "6e5f2c080020cbccbfb74d5c84b9eb95f02595b055e47edda27b7aacbbfea251"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


SHORTLIST_ARGV = ("shortlist", "--fixture", "example1", "--rule", "nomination")
CHECK_SSP_ARGV = (
    "check-ssp", "--fixture", "greedy-overlap-gap", "--rule", "greedy-approval", "--search", "full",
)
CHECK_FSSP_ARGV = (
    "check-fssp", "--fixture", "theorem-rfssp", "--rule", "nomination",
    "--allocation-rule", "greedy-approval", "--variant", "restricted", "--mode", "anticipative",
)


def stored_report(tmp_path, edit, argv=SHORTLIST_ARGV):
    """Write a report (`shortlist` unless ``argv`` says otherwise), let
    ``edit`` change its JSON, return the path."""
    path = tmp_path / "report.json"
    assert main([*argv, "--no-timing", "--output", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


class TestCommands:
    def test_module_entry_point_matches_main(self, capsys):
        # `python -m pbstages.cli` runs the module's __main__ block.
        argv = ["shortlist", "--fixture", "example1", "--rule", "nomination", "--no-timing"]
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "pbstages.cli", *argv],
            capture_output=True, env=env, timeout=60, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out.encode()

    def test_end_to_end_example(self, capsys):
        code, report = run_cli(
            capsys,
            "end-to-end", "--fixture", "example1",
            "--rule", "nomination", "--allocation-rule", "greedy-approval",
            "--no-timing",
        )
        assert code == 0
        assert report["results"]["shortlist"] == list(range(1, 10))
        assert report["results"]["allocation"] == [1, 2, 3]

    def test_parser_built_once_serves_each_command(self, capsys):
        # main reuses one parser; a second command's flags and defaults must
        # not carry over from the first.
        code, first = run_cli(
            capsys,
            "end-to-end", "--fixture", "example1", "--rule", "nomination",
            "--allocation-rule", "greedy-approval", "--seed", "7", "--no-timing",
        )
        assert code == 0
        assert first["options"]["seed"] == 7
        code, second = run_cli(
            capsys, "allocate", "--fixture", "example1", "--rule", "approval-maximising",
            "--no-timing",
        )
        assert code == 0
        assert second["command"] == "allocate"
        assert second["options"] == {
            "rule": "approval-maximising", "tiebreak": "canonical", "seed": 0,
        }
        assert cli.build_parser() is cli.build_parser()

    def test_shortlist_with_radius_details(self, capsys):
        code, report = run_cli(
            capsys,
            "shortlist", "--fixture", "kmedian-relocation",
            "--rule", "k-median", "--k", "1", "--no-timing",
        )
        assert code == 0
        assert report["results"]["shortlist"] == [4, 6, 7]
        assert report["results"]["partitions"] == [[[1, 2, 3, 4], [6], [7]]]

    def test_kmedian_shortlist_searches_once(self, capsys, monkeypatch):
        calls = []
        search = shortlisting._radius_groups

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(shortlisting, "_radius_groups", counted)
        code, report = run_cli(
            capsys,
            "shortlist", "--fixture", "kmedian-relocation",
            "--rule", "k-median", "--k", "1", "--no-timing",
        )
        assert code == 0
        assert report["results"]["shortlist"] == [4, 6, 7]
        assert len(calls) == 1

    def test_kmedian_partitions_canonical_and_replayed(self, capsys, tmp_path):
        # four equidistant unit-cost projects: at radius 1 every partition
        # whose clusters each hold their least member as median is valid
        ids = (1, 2, 3, 4)
        scenario = tmp_path / "scenario.json"
        write_scenario(ScenarioDocument(
            instance=Instance([Project(i, 1) for i in ids], 1),
            agents=(AgentSpec(1, ids), AgentSpec(2, ids[::-1])),
            proposals=(frozenset({1, 2}), frozenset({3, 4})),
            metric_spec={
                "kind": "table",
                "entries": [[a, b, 1.0] for a in ids for b in ids if a < b],
            },
        ), scenario)
        report_path = tmp_path / "report.json"
        assert main([
            "shortlist", "--scenario", str(scenario), "--rule", "k-median", "--k", "2",
            "--no-timing", "--output", str(report_path),
        ]) == 0
        results = json.loads(report_path.read_text())["results"]
        assert results["radius"] == 1.0
        assert results["shortlist"] == [1, 2]
        assert results["partitions"] == [
            [[1], [2, 3, 4]], [[1, 2], [3, 4]], [[1, 2, 3], [4]], [[1, 2, 3, 4]],
            [[1, 2, 4], [3]], [[1, 3], [2, 4]], [[1, 3, 4], [2]], [[1, 4], [2, 3]],
        ]
        code, replay = run_cli(capsys, "replay", str(report_path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is True
        assert replay["results"]["results"]["partitions"] == results["partitions"]

    def test_metric_override(self, capsys, tmp_path):
        # Projects at 0, 1 and 10 on a line: project 2 is the euclidean
        # median of the three, project 1 the median under the table.
        def scenario(name, metric_spec):
            path = tmp_path / name
            write_scenario(ScenarioDocument(
                instance=Instance(
                    [Project(1, 1, (0.0, 0.0)), Project(2, 1, (1.0, 0.0)),
                     Project(3, 1, (10.0, 0.0))], 1,
                ),
                agents=(AgentSpec(1, (1, 2, 3)),),
                proposals=(frozenset({1, 2, 3}),),
                metric_spec=metric_spec,
            ), path)
            return str(path)

        table = scenario("table.json", {
            "kind": "table", "entries": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 2.0]],
        })
        shortlist = ["shortlist", "--rule", "k-median", "--k", "1", "--no-timing"]
        code, report = run_cli(capsys, *shortlist, "--scenario", table)
        assert code == 0
        assert report["results"]["shortlist"] == [1]

        report_path = tmp_path / "report.json"
        assert main([
            *shortlist, "--scenario", table, "--metric", "euclidean",
            "--output", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["results"]["shortlist"] == [2]
        assert report["document"]["metric"] == {"kind": "euclidean"}
        code, replay = run_cli(capsys, "replay", str(report_path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is True

        coordinates_only = scenario("coords.json", None)
        assert main([*shortlist, "--scenario", coordinates_only, "--metric", "table"]) == 2
        assert "--metric table" in capsys.readouterr().err

    def test_kmedian_table_missing_a_union_project_refused(self, capsys, tmp_path):
        # The table leaves out project 3 of the union: the scenario is
        # refused as it is read, before the rule builds its distance table.
        path = tmp_path / "scenario.json"
        write_scenario(ScenarioDocument(
            instance=Instance([Project(i, 1) for i in (1, 2, 3)], 1),
            agents=(AgentSpec(1, (1, 2, 3)),),
            proposals=(frozenset({1, 2, 3}),),
            metric_spec={
                "kind": "table", "entries": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 2.0]],
            },
        ), path)
        data = json.loads(path.read_text())
        data["metric"]["entries"] = [[1, 2, 1.0]]
        path.write_text(json.dumps(data))
        assert main([
            "shortlist", "--rule", "k-median", "--k", "1", "--scenario", str(path), "--no-timing",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"validation error: {path}.metric: metric is missing the distance for pair (1, 3)\n"
        )

    @pytest.mark.parametrize("metric, coords, table, code, expected", [
        ("table", True, True, 0, [1]),
        ("table", True, False, 2, "--metric table needs a distance table in the scenario"),
        ("euclidean", False, True, 2, "project p1 has no coordinates"),
    ])
    def test_metric_flag(self, capsys, tmp_path, metric, coords, table, code, expected):
        # `--metric table` keeps the document's table; either override
        # refuses a document that lacks what it names.
        path = tmp_path / "scenario.json"
        write_scenario(ScenarioDocument(
            instance=Instance([
                Project(i, 1, (x, 0.0) if coords else None)
                for i, x in ((1, 0.0), (2, 1.0), (3, 10.0))
            ], 1),
            agents=(AgentSpec(1, (1, 2, 3)),),
            proposals=(frozenset({1, 2, 3}),),
            metric_spec={
                "kind": "table", "entries": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 2.0]],
            } if table else None,
        ), path)
        assert main([
            "shortlist", "--rule", "k-median", "--k", "1", "--scenario", str(path),
            "--metric", metric, "--no-timing",
        ]) == code
        out, err = capsys.readouterr()
        if code == 0:
            report = json.loads(out)
            assert report["results"]["shortlist"] == expected
            assert report["document"]["metric"]["kind"] == "table"
        else:
            assert f"validation error: {expected}" in err

    def test_allocate_with_document_tiebreak(self, capsys):
        code, report = run_cli(
            capsys,
            "allocate", "--fixture", "unit-priority-tiebreak",
            "--rule", "approval-maximising", "--tiebreak", "document",
            "--no-timing",
        )
        assert code == 0
        assert report["results"]["allocation"] == [4, 5, 6, 7]

    def test_check_fssp_reports_witness(self, capsys):
        code, report = run_cli(
            capsys,
            "check-fssp", "--fixture", "theorem-rfssp",
            "--rule", "nomination", "--allocation-rule", "greedy-approval",
            "--variant", "restricted", "--mode", "pessimistic", "--no-timing",
        )
        assert code == 0
        verdict = report["results"]["verdict"]
        assert verdict["status"] == "counterexample-found"
        assert verdict["witness"]["agent"] == 1
        assert verdict["witness"]["deviation"] == []

    def test_check_ssp_on_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        write_scenario(load_fixture("greedy-overlap-gap"), path)
        code, report = run_cli(
            capsys,
            "check-ssp", "--scenario", str(path),
            "--rule", "greedy-approval", "--model", "overlap",
            "--approximate", "--search", "fixed-others", "--no-timing",
        )
        assert code == 0
        assert report["results"]["verdict"]["status"] == "counterexample-found"

    @pytest.mark.parametrize("argv", [
        ["check-ssp", "--rule", "greedy-approval"],
        ["check-fssp", "--rule", "nomination", "--allocation-rule", "greedy-approval",
         "--variant", "restricted", "--mode", "pessimistic"],
    ])
    def test_scenario_without_agents_refused(self, capsys, tmp_path, argv):
        path = tmp_path / "scenario.json"
        write_scenario(ScenarioDocument(instance=Instance([Project(1, 1)], 1), agents=()), path)
        assert main([*argv, "--scenario", str(path), "--no-timing"]) == 2
        assert "at least one agent" in capsys.readouterr().err

    def test_check_axiom_refuses_kmedian_suite(self, capsys):
        code = main([
            "check-axiom", "--fixture", "kmedian-relocation",
            "--axiom", "non-wasteful", "--rule", "k-median", "--k", "2",
            "--suite", "10",
        ])
        assert code == 2

    def test_check_axiom_kmedian_on_document(self, capsys):
        code, report = run_cli(
            capsys,
            "check-axiom", "--fixture", "kmedian-relocation",
            "--axiom", "non-wasteful", "--rule", "k-median", "--k", "2",
            "--no-timing",
        )
        assert code == 0
        assert report["results"]["verdict"]["status"] == "holds-on-suite"

    def test_check_axiom_kmedian_domination_witness(self, capsys):
        code, report = run_cli(
            capsys,
            "check-axiom", "--fixture", "kmedian-domination",
            "--axiom", "representation-efficiency", "--rule", "k-median", "--k", "1",
            "--no-timing",
        )
        assert code == 0
        verdict = report["results"]["verdict"]
        assert verdict["status"] == "counterexample-found" and verdict["checked"] == 1
        witness = verdict["witness"]
        assert (witness["shortlist"], witness["dominating_set"]) == ([1, 3], [2, 3])
        coords = {"1": [0.0, 0.0], "2": [1.0, 0.0], "3": [10.0, 0.0]}
        assert witness["instance"]["coords"] == coords

    def test_check_axiom_shortlisting_suite(self, capsys):
        # The scenario's proposal profile plus 50 seeded random cases.
        code, report = run_cli(
            capsys,
            "check-axiom", "--fixture", "example1",
            "--axiom", "non-wasteful", "--rule", "nomination",
            "--suite", "50", "--no-timing",
        )
        assert code == 0
        verdict = report["results"]["verdict"]
        assert verdict["status"] == "holds-on-suite" and verdict["checked"] == 51
        assert verdict["params"]["suite"] == 50

    def test_check_axiom_allocation_suite(self, capsys):
        code, report = run_cli(
            capsys,
            "check-axiom", "--fixture", "example1",
            "--axiom", "unanimous", "--rule", "greedy-approval",
            "--suite", "50", "--no-timing",
        )
        assert code == 0
        assert report["results"]["verdict"]["status"] == "holds-on-suite"

    def test_paper_suite_flags_documented_discrepancies(self, capsys):
        code, report = run_cli(capsys, "paper-suite", "--no-timing")
        assert code == 0
        results = report["results"]
        assert results["ok"] is True
        assert results["failures"] == []
        assert sorted(results["informational"]) == [
            "equal-representation-tie/recorded-truthful-shortlist",
            "kmedian-relocation/recorded-truthful-clusters",
        ]


def city_scenario(tmp_path, rng, projects, agents):
    """A random scenario where each agent proposes the head of their ranking;
    returns the document and the file it was written to."""
    instance = random_instance(rng, min_projects=projects, max_projects=projects, max_cost=20)
    rankings = [random_ranking(rng, instance) for _ in range(agents)]
    doc = ScenarioDocument(
        instance=instance,
        agents=tuple(AgentSpec(i + 1, ranking) for i, ranking in enumerate(rankings)),
        proposals=tuple(frozenset(ranking[: rng.randint(1, 3)]) for ranking in rankings),
    )
    scenario = tmp_path / "city.json"
    write_scenario(doc, scenario)
    return doc, scenario


class TestReplayAndStability:
    def test_reports_byte_stable(self, capsys, tmp_path):
        argv = [
            "end-to-end", "--fixture", "example1",
            "--rule", "nomination", "--allocation-rule", "greedy-approval",
            "--no-timing",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_city_scale_reports_match_stdlib_encoder(self, tmp_path):
        # 300 agents on 40 projects: the writer's deep lists and the parser's
        # per-agent checks at the size the CLI serves.
        doc, scenario = city_scenario(tmp_path, Random(2203), 40, 300)
        parsed = parse_scenario(scenario)
        assert parsed == doc
        assert parse_scenario_dict(document_to_dict(parsed)) == doc
        for argv in (
            ["allocate", "--rule", "approval-maximising"],
            ["end-to-end", "--rule", "nomination", "--allocation-rule", "greedy-approval"],
        ):
            output = tmp_path / f"{argv[0]}.json"
            argv += ["--scenario", str(scenario), "--no-timing", "--output", str(output)]
            assert main(argv) == 0
            text = output.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert len(json.loads(text)["results"]["ballots"]) == 300

    def test_thousand_agent_reports_match_stdlib_encoder(self, tmp_path):
        # 1,000 agents on 60 projects: the writer's int table at report scale.
        _, scenario = city_scenario(tmp_path, Random(1000), 60, 1000)
        for argv in (
            ["allocate", "--rule", "approval-maximising"],
            ["end-to-end", "--rule", "nomination", "--allocation-rule", "greedy-approval"],
        ):
            output = tmp_path / f"{argv[0]}.json"
            argv += ["--scenario", str(scenario), "--no-timing", "--output", str(output)]
            assert main(argv) == 0
            data = output.read_bytes()
            assert data == (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode()
            assert len(json.loads(data)["document"]["agents"]) == 1000

    def test_paper_suite_report_bytes_pinned(self, tmp_path):
        path = tmp_path / "suite.json"
        assert main(["paper-suite", "--no-timing", "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PAPER_SUITE_SHA256

    def test_replay_reproduces_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "check-fssp", "--fixture", "theorem-rfssp",
            "--rule", "nomination", "--allocation-rule", "greedy-approval",
            "--variant", "restricted", "--mode", "anticipative",
            "--no-timing", "--output", str(report_path),
        ])
        assert code == 0
        code, replay = run_cli(capsys, "replay", str(report_path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is True
        # check-fssp never samples, so it has no --seed; a report written
        # while it had one still replays.
        data = json.loads(report_path.read_text())
        assert "seed" not in data["options"]
        data["options"]["seed"] = 5
        report_path.write_text(json.dumps(data))
        code, replay = run_cli(capsys, "replay", str(report_path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is True

    def test_replay_check_ssp_report_with_sampling_options(self, capsys, tmp_path):
        # check-ssp no longer takes --seed or --samples; a report written
        # while it did carries both and still replays.
        def retired(data):
            assert not {"seed", "samples"} & set(data["options"])
            data["options"].update(seed=3, samples=2000)

        path = stored_report(tmp_path, retired, CHECK_SSP_ARGV)
        code, replay = run_cli(capsys, "replay", str(path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is True

    def test_replay_of_sampled_search_is_2(self, capsys, tmp_path):
        # The sampled search is gone, so a report of one cannot be re-run.
        path = stored_report(
            tmp_path, lambda data: data["options"].update(search="sample"), CHECK_SSP_ARGV
        )
        assert main(["replay", str(path)]) == 2
        assert "'sample'" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", [False, True])
    def test_replay_paper_suite(self, capsys, tmp_path, tamper):
        def edit(data):
            if tamper:
                data["results"]["ok"] = not data["results"]["ok"]

        path = stored_report(tmp_path, edit, ["paper-suite"])
        code, replay = run_cli(capsys, "replay", str(path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is not tamper

    @pytest.mark.parametrize("document", [
        pytest.param({"anything": 1}, id="invalid"),
        pytest.param(document_to_dict(load_fixture("example1")), id="valid"),
    ])
    def test_replay_paper_suite_with_a_document_is_2(self, capsys, tmp_path, document):
        # paper-suite runs the bundled fixtures and takes no document, so a
        # report that carries one was not written by it.
        path = stored_report(tmp_path, lambda data: data.update(document=document), ["paper-suite"])
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_replay_without_a_document_is_2(self, capsys, tmp_path):
        path = stored_report(tmp_path, lambda data: data.update(document=None), CHECK_FSSP_ARGV)
        assert main(["replay", str(path)]) == 2
        assert "validation error: check-fssp needs a document" in capsys.readouterr().err

    def test_replay_detects_tampering(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        main([
            "shortlist", "--fixture", "example1", "--rule", "nomination",
            "--no-timing", "--output", str(report_path),
        ])
        data = json.loads(report_path.read_text())
        data["results"]["shortlist"] = [1, 2]
        report_path.write_text(json.dumps(data))
        code, replay = run_cli(capsys, "replay", str(report_path), "--no-timing")
        assert code == 0
        assert replay["results"]["reproduces"] is False


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "pb-scenario", "version": 1}')
        code = main(["shortlist", "--scenario", str(path), "--rule", "nomination"])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda data: data.update(agents=[5]),
        lambda data: data["instance"].update(projects=[7]),
        lambda data: data.update(tiebreak=3),
        lambda data: data.update(metric=5),
        lambda data: data.update(metric={"kind": "table", "entries": [[1, 2, "x"]]}),
        lambda data: data.update(metric={
            "kind": "table", "entries": [[1, 2, 1], [1, 3, 1], [2, 3, 1], [9, 9, 0]],
        }),
        # json reads NaN: a project at [NaN, 0] is refused, not shortlisted.
        lambda data: data["instance"]["projects"][0].update(coords=[float("nan"), 0.0]),
    ], ids=["agent", "project", "tiebreak", "metric", "table-entry", "table-unknown-id",
            "nan-coords"])
    def test_malformed_scenario_is_2(self, tmp_path, capsys, edit):
        data = {
            "instance": {
                "budget": 2,
                "projects": [{"id": j, "cost": 1, "coords": [float(j), 0.0]} for j in (1, 2, 3)],
            },
            "agents": [{"id": 1, "ranking": [1, 2, 3]}],
            "proposals": [[1, 2, 3]],
            "metric": {"kind": "euclidean"},
        }
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["shortlist", "--scenario", str(path), "--rule", "k-median", "--k", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_is_2(self, tmp_path, capsys, where):
        output = tmp_path / "no" / "r.json" if where == "missing-dir" else tmp_path
        argv = ["allocate", "--fixture", "example1", "--rule", "greedy-approval"]
        assert main([*argv, "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert f"validation error: cannot write report {output}:" in err
        assert list(tmp_path.iterdir()) == []

    def test_approval_maximising_with_huge_budget(self, tmp_path, capsys):
        # The knapsack rows must stop at the total cost: a list of 10^30
        # entries cannot be built.
        data = document_to_dict(load_fixture("example1"))
        data["instance"]["budget"] = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, report = run_cli(
            capsys, "allocate", "--scenario", str(path), "--rule", "approval-maximising",
            "--no-timing",
        )
        assert code == 0
        instance = parse_scenario(path).instance
        ballots = [frozenset(b) for b in report["results"]["ballots"]]
        expected = approval_maximising_oracle(instance, ballots)
        assert report["results"]["allocation"] == sorted(expected)

    def test_approval_maximising_with_huge_costs(self, tmp_path, capsys):
        # The rows count in units of the costs' gcd, 10^29 here, so they
        # are as short as for the unscaled example.
        data = document_to_dict(load_fixture("example1"))
        data["instance"]["budget"] *= 10**29
        for project in data["instance"]["projects"]:
            project["cost"] *= 10**29
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, report = run_cli(
            capsys, "allocate", "--scenario", str(path), "--rule", "approval-maximising",
            "--no-timing",
        )
        assert code == 0
        assert report["results"]["allocation"] == [1, 2, 3]
        instance = parse_scenario(path).instance
        ballots = [frozenset(b) for b in report["results"]["ballots"]]
        assert approval_maximising_oracle(instance, ballots) == {1, 2, 3}

    def test_resource_limit_is_3(self, capsys):
        code = main([
            "shortlist", "--fixture", "example1",
            "--rule", "equal-representation", "--k", "1",
            "--cap-subset-search", "2",
        ])
        assert code == 3
        assert "resource limit" in capsys.readouterr().err

    def test_first_stage_profile_cap_is_3(self, capsys):
        # 8 shortlisted projects and 3 agents: each side tries (2^8)^3
        # profiles, over the default cap of 2^20, so the check stops at once.
        code = main([
            "check-fssp", "--fixture", "maximiser-approx-gap",
            "--rule", "nomination", "--allocation-rule", "greedy-approval",
            "--variant", "restricted", "--mode", "pessimistic",
        ])
        assert code == 3
        assert "resource limit" in capsys.readouterr().err

    def test_second_stage_profile_cap_is_3(self, capsys):
        # 3 agents each try the 2^5 ballots of 5 projects; a cap of 0
        # stops the check rather than reporting "holds" from no ballots.
        code = main([
            "check-ssp", "--fixture", "greedy-overlap-gap", "--rule", "greedy-approval",
            "--search", "fixed-others", "--cap-profiles", "0", "--no-timing",
        ])
        assert code == 3
        assert "resource limit" in capsys.readouterr().err

    def test_negative_cap_is_2(self, tmp_path, capsys):
        # A negative cap is refused on the command line and in a stored
        # report, not recorded or read as a cap every search passes.
        code = main([
            "allocate", "--fixture", "example1", "--rule", "greedy-approval",
            "--cap-profiles", "-1", "--no-timing",
        ])
        assert code == 2
        assert "validation error: cap profiles must be" in capsys.readouterr().err
        path = stored_report(tmp_path, lambda data: data["caps"].update(profiles=-1))
        assert main(["replay", str(path)]) == 2
        assert "validation error: cap profiles must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3", 1.5, True])
    def test_replay_non_integer_cap_is_2(self, tmp_path, capsys, value):
        # The caps themselves word the refusal of a stored cap that is no int.
        path = stored_report(tmp_path, lambda data: data["caps"].update(profiles=value))
        assert main(["replay", str(path)]) == 2
        expected = f"validation error: cap profiles must be an integer >= 0, got {value!r}"
        assert expected in capsys.readouterr().err

    def test_counterexample_still_exits_0(self, capsys):
        code = main([
            "check-fssp", "--fixture", "theorem-rfssp",
            "--rule", "nomination", "--allocation-rule", "approval-maximising",
            "--variant", "restricted", "--mode", "pessimistic", "--no-timing",
        ])
        assert code == 0

    def test_replay_unknown_cap_is_2(self, tmp_path, capsys):
        path = stored_report(tmp_path, lambda data: data["caps"].update(bogus=1))
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_replay_missing_option_is_2(self, tmp_path, capsys):
        path = stored_report(tmp_path, lambda data: data["options"].pop("rule"))
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_replay_refuses_check_only_operation(self, tmp_path, capsys):
        # `score` is an operation of the fixture checks, not a command, so a
        # report naming it is refused even though the operation would run.
        def as_score(data):
            data["command"] = "score"
            data["options"] = {"subset": [1]}

        path = stored_report(tmp_path, as_score)
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_check_axiom_on_empty_space_is_2(self, capsys):
        # The fixture has no proposal profile and no suite was asked for, so
        # a "holds" would be a proof over nothing.
        code = main([
            "check-axiom", "--fixture", "unit-priority-tiebreak",
            "--axiom", "non-wasteful", "--rule", "nomination", "--no-timing",
        ])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["check-axiom", "--fixture", "example1", "--axiom", "unanimous",
         "--rule", "greedy-approval", "--suite", "-3"],
        ["check-axiom", "--fixture", "unit-priority-tiebreak", "--axiom", "non-wasteful",
         "--rule", "nomination", "--suite", "-3"],
    ])
    def test_search_over_no_cases_is_2(self, args, capsys):
        # A "holds" from zero checked cases would be a proof over nothing.
        assert main(args + ["--no-timing"]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_replay_option_of_wrong_type_is_2(self, tmp_path, capsys):
        def as_string_k(data):
            data["options"].update(rule="equal-representation", k="1")

        path = stored_report(tmp_path, as_string_k)
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, value", [
        (SHORTLIST_ARGV, "proposals", [5]),
        (("check-ssp", "--fixture", "theorem-rfssp", "--rule", "greedy-approval"),
         "deviations", [5]),
        (SHORTLIST_ARGV, "bogus", 1),
    ])
    def test_replay_option_without_a_flag_is_2(self, tmp_path, capsys, argv, key, value):
        # The command has no flag for the option, so its parser could not
        # have written it.
        path = stored_report(tmp_path, lambda data: data["options"].update({key: value}), argv)
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{",
        "[]",
        json.dumps({"command": "shortlist", "options": {}, "caps": {}, "results": {}}),
        json.dumps(
            {"command": "shortlist", "options": [], "caps": {}, "document": {}, "results": {}}
        ),
    ])
    def test_replay_malformed_report_is_2(self, tmp_path, capsys, text):
        # Unreadable JSON, not an object, no document field, options not an object.
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["replay", str(path)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("version", 2),
        ("version", True),
        ("format", "pb-scenario"),
    ])
    def test_replay_of_another_report_header_is_2(self, tmp_path, capsys, key, value):
        # A report of another format or version, or a version merely equal
        # to the integer 1, is not replayed as this one.
        path = stored_report(tmp_path, lambda data: data.update({key: value}))
        assert main(["replay", str(path)]) == 2
        assert "validation error: not a pb-report version 1 report" in capsys.readouterr().err
