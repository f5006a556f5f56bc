import pytest

from pbstages.core import ValidationError
from pbstages.fixtures import load_fixture
from pbstages.operations import run


@pytest.mark.parametrize("kind, fixture, options, message", [
    ("shortlist", "example1", {"rule": "k-median"}, "needs k"),
    ("shortlist", "example1", {"rule": "k-median", "k": 1}, "needs a metric"),
    ("shortlist", "example1", {"rule": "equal-representation"}, "needs k"),
    ("shortlist", "example1", {"rule": "bogus"}, "unknown shortlisting rule"),
    ("shortlist", "unit-priority-tiebreak", {"rule": "nomination"}, "no proposal profile"),
    ("score", "unit-priority-tiebreak", {"subset": [1]}, "needs a proposal profile"),
    ("bogus", "example1", {}, "unknown operation"),
    ("check-axiom", "example1", {"axiom": "bogus", "rule": "greedy-approval"}, "unknown"),
    ("allocate", "example1", {"rule": "greedy-approval", "ballots": [[11]]}, "ballots"),
])
def test_refusals_are_validation_errors(kind, fixture, options, message):
    with pytest.raises(ValidationError, match=message):
        run(kind, load_fixture(fixture), options)


def test_allocate_on_explicit_ballots():
    result = run(
        "allocate",
        load_fixture("example1"),
        {"rule": "greedy-approval", "shortlist": [1, 2, 3, 4], "ballots": [[1, 2], [2], [4]]},
    )
    assert result == {"ballots": [[1, 2], [2], [4]], "allocation": [1, 2, 4]}
