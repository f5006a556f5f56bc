import ast
import sys
from pathlib import Path

import pbstages

PACKAGE = Path(pbstages.__file__).parent


def imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # A relative import stays inside the package.
            yield "pbstages" if node.level else node.module.partition(".")[0]


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
