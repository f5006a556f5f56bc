import pytest

from pbstages.core import ValidationError
from pbstages.fixtures import fixture_names, load_fixture
from pbstages.operations import run_bundled_suite, run_check, run_fixture


class TestRegistry:
    def test_all_names_load(self):
        for name in fixture_names():
            doc = load_fixture(name)
            assert doc.agents and doc.instance.ids

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            load_fixture("no-such-fixture")


@pytest.fixture(scope="module")
def suite():
    return run_bundled_suite()


class TestBundledSuite:
    def test_no_failures(self, suite):
        failures = [
            f"{name}/{r.check_id}"
            for name, results in suite.items()
            for r in results
            if r.status == "fail"
        ]
        assert failures == []

    def test_exactly_two_informational_records(self, suite):
        informational = [
            (name, r.check_id)
            for name, results in suite.items()
            for r in results
            if r.status == "informational"
        ]
        assert sorted(informational) == [
            ("equal-representation-tie", "recorded-truthful-shortlist"),
            ("kmedian-relocation", "recorded-truthful-clusters"),
        ]

    def test_informational_records_carry_computed_values(self, suite):
        tie = {r.check_id: r for r in suite["equal-representation-tie"]}
        info = tie["recorded-truthful-shortlist"]
        assert info.expected == {"shortlist": [2]}
        assert info.computed["shortlist"] == [1, 3]
        clusters = {r.check_id: r for r in suite["kmedian-relocation"]}
        info = clusters["recorded-truthful-clusters"]
        assert info.computed["partitions"] == [[[1, 2, 3, 4], [6], [7]]]
        assert info.note


class TestRunCheck:
    def test_unknown_kind_rejected(self):
        doc = load_fixture("example1")
        with pytest.raises(ValidationError):
            run_check(doc, {"kind": "no-such-kind"})

    def test_failing_expectation_reported(self):
        doc = load_fixture("example1")
        result = run_check(
            doc,
            {
                "id": "wrong",
                "kind": "shortlist",
                "rule": "nomination",
                "expect": {"shortlist": [1]},
            },
        )
        assert result.status == "fail"
        assert result.computed["shortlist"] == list(range(1, 10))

    def test_run_fixture_returns_per_check_results(self):
        results = run_fixture("example1")
        assert {r.check_id for r in results} == {
            "nomination-shortlist",
            "equal-representation-shortlist",
            "greedy-allocation",
            "maximising-allocation",
            "end-to-end",
        }
