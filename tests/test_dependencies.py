import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

import pbstages
from pbstages import grid
from pbstages.allocation import greedy_approval
from pbstages.core import Caps, Instance, Project, ResourceLimitError
from pbstages.shortlisting import nomination
from pbstages.strategy import StageGame, check_fssp, check_nomination_fssp_class
from pbstages.verification import check_second_stage_sp, check_sp_over_unit_class

PACKAGE = Path(pbstages.__file__).parent


def imported_modules(path):
    """Every module a file imports, ``from m import x`` as both m and m.x."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import stays inside the package.
            module = node.module or ""
            if node.level:
                module = f"pbstages.{module}".rstrip(".")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def imported_top_levels(path):
    return {name.partition(".")[0] for name in imported_modules(path)}


def test_package_imports_only_the_standard_library():
    # The package declares no runtime dependency, so every module it
    # imports is either its own or part of the standard library.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {
        (path.name, name)
        for path in modules
        for name in imported_top_levels(path)
        if name != "pbstages" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_only_the_oracles_module_imports_the_oracles():
    # An oracle is the independent reference for the code it checks, so no
    # production module may build on one.
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "pbstages.oracles" in set(imported_modules(path))
    }
    assert importers <= {"oracles.py"}


def test_fixtures_import_nothing_from_operations():
    # The check runner in operations reads the bundled scenarios; an import
    # back would be the cycle that once kept paper-suite out of operations.run.
    assert "pbstages.operations" not in set(imported_modules(PACKAGE / "fixtures.py"))


def test_only_the_case_generators_import_random():
    # Randomness draws cases; no search may claim a verdict from samples.
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "random" in imported_top_levels(path)
    }
    assert importers == {"suites.py"}


def caps_reads(path):
    """Every attribute read off an object named ``caps`` (``caps.x``, ``self.caps.x``)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "caps":
                yield node.attr


def test_every_cap_is_read():
    # A cap that nothing reads bounds nothing, yet it is still a flag and
    # a report field.  ``maximisers`` is the one exception: every report
    # records the caps, and pinned report bytes include it.
    read = {attr for path in PACKAGE.glob("*.py") for attr in caps_reads(path)}
    unread = {cap.name for cap in dataclasses.fields(Caps)} - read
    assert unread <= {"maximisers"}


def test_oracles_import_no_kernel():
    # An oracle must not share the code it checks.  The allocation oracles
    # are held to the score kernels and their arguments, the search
    # references to the searches, the score grid they read and their value
    # functions, and the equal-representation oracle to the Fraction scorer.
    # The k-median oracle checks its partitions with its own geometry.
    imported = set(imported_modules(PACKAGE / "oracles.py"))
    shared = {
        name
        for name in imported
        if name.startswith("pbstages.allocation.") and name.endswith(("_kernel", ".kernel_args"))
        or name.startswith(("pbstages.verification", "pbstages.strategy", "pbstages.grid"))
        or name == "pbstages.preferences.valuation"
        or name in {
            "pbstages.shortlisting.equal_representation",
            "pbstages.shortlisting._level_weights",
            "pbstages.shortlisting.VoronoiPartition",
        }
    }
    assert not shared
    assert "pbstages.shortlisting.representation_score" in imported


def test_one_report_writer():
    # ``scenario.dump_json`` writes every indented report; a ``json.dump``
    # or ``json.dumps`` call that asks for indentation would be a second
    # writer, on the standard library's slow pure-Python path.  A ``**``
    # argument could carry ``indent``, so it counts too.
    indented = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and any(keyword.arg in ("indent", None) for keyword in node.keywords)
    ]
    assert not indented


def test_one_resource_limit_raiser():
    # ``core.check_cap`` words every refusal of an exponential search as
    # "<search> needs <size> <unit>, exceeding the cap of <cap>"; a second
    # raiser would be a second shape.  Each raise is owned by the innermost
    # function around it (``ast.walk`` reaches inner functions later).
    raisers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(function), function.name))
        raisers += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and node.exc is not None
            and any(
                getattr(name, "id", getattr(name, "attr", None)) == "ResourceLimitError"
                for name in ast.walk(node.exc)
            )
        ]
    assert raisers == [("core.py", "check_cap")]


def test_no_module_calls_best_response():
    # The anticipated side reads its best response off its own ballot box,
    # and ``oracles.best_response_oracle`` is the one reference scan, so no
    # module defines or calls a second ``best_response``.
    found = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "best_response"
        or isinstance(node, ast.FunctionDef) and node.name == "best_response"
    ]
    assert not found


def test_no_private_cross_module_imports():
    # An underscore name belongs to its own module; what two modules of the
    # package share is public.
    private = [
        (path.name, node.module, alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "pbstages")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


def private_stores(tree):
    """Every ``_name`` a module stores on ``self`` (``self._name = ...``)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
    }


def test_no_private_cross_module_attribute_reads():
    # An underscore attribute belongs to the module whose objects store it:
    # another module reads that object's state through public names.  A
    # name the package never stores (argparse's ``_actions``) is not its own.
    trees = {
        path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))
    }
    owners = {}
    for name, tree in trees.items():
        for attr in private_stores(tree):
            owners.setdefault(attr, set()).add(name)
    foreign = [
        (name, node.lineno, node.attr)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        and name not in owners.get(node.attr, {name})
    ]
    assert not foreign


def test_one_grid_layout():
    # ``grid.py`` alone knows where a kernel puts each score vector's
    # outcome: no other module builds a kernel's arguments or the levels
    # ``[range(...)] * m`` of a whole grid.
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "pbstages.allocation.kernel_args" in set(imported_modules(path))
    }
    assert importers == {"grid.py"}
    builders = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.List)
        and any(
            isinstance(item, ast.Call) and getattr(item.func, "id", None) == "range"
            for item in node.left.elts
        )
    }
    assert builders == {"grid.py"}


def test_readme_names_resolve():
    # Every backticked ``module.name`` (or ``pbstages.module.name``, with
    # or without an argument list) in the README names something that
    # module defines, so a deleted or renamed function cannot stay
    # documented.
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    spans = re.findall(r"`(?:pbstages\.)?(\w+)\.(\w+(?:\.\w+)*)(?:\([^`]*\))?`", readme)
    references = [(module, name) for module, name in spans if module in modules]
    unresolved = []
    for module, name in references:
        target = importlib.import_module(f"pbstages.{module}")
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            unresolved.append(f"{module}.{name}")
    assert references and not unresolved


def test_grid_charge_is_the_one_profile_charge(monkeypatch):
    # ``grid.charge`` is what every search read off the score grid counts
    # against ``caps.profiles``: once it passes the cap, each of them
    # refuses, under its own name, a case that would otherwise fit.
    monkeypatch.setattr(grid, "charge", lambda m, n: Caps().profiles + 1)
    instance = Instance([Project(1, 1), Project(2, 1)], 1)
    rankings = ((1, 2), (2, 1))
    game = StageGame(instance, nomination, greedy_approval, rankings, ({1}, {2}), "overlap")
    searches = {
        "full profile enumeration": lambda: check_second_stage_sp(
            greedy_approval, instance, rankings, "overlap", search="full"
        ),
        "unit-class check": lambda: check_sp_over_unit_class(greedy_approval, "overlap", 1, 1),
        "first-stage search": lambda: check_fssp(game, "restricted", "pessimistic"),
        "nomination class side": lambda: check_nomination_fssp_class(
            greedy_approval, "overlap", max_projects=1, max_agents=1
        ),
    }
    for name, search in searches.items():
        with pytest.raises(ResourceLimitError, match=f"^{name} needs {Caps().profiles + 1} "):
            search()
    # And "auto" no longer finds that the full search fits.
    verdict = check_second_stage_sp(greedy_approval, instance, rankings, "overlap")
    assert verdict.params["search"] == "fixed-others"
