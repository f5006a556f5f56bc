"""Two-stage participatory budgeting toolkit.

Covers the full pipeline: agents propose projects, a shortlisting rule
selects which proposals go to a vote, and an allocation rule picks a
feasible set of projects to fund.  On top of the rules themselves, the
package ships axiom checkers, strategyproofness search for both stages,
brute-force oracles for differential testing, and a scenario file format
with a replayable command-line front end.
"""

from pbstages.core import (
    Caps,
    Instance,
    Project,
    ResourceLimitError,
    ValidationError,
    greedy_select,
    tiebreak_family,
    tiebreak_order,
    tiebreak_project,
)

__all__ = [
    "Caps",
    "Instance",
    "Project",
    "ResourceLimitError",
    "ValidationError",
    "greedy_select",
    "tiebreak_family",
    "tiebreak_order",
    "tiebreak_project",
]

__version__ = "0.1.0"
