"""Locate the checkout and import ``pbstages`` from its ``src`` directory.

The benchmark always measures the source tree it sits in, never an
installed copy.  Importing this module makes the checkout root the working
directory and puts ``<root>/src`` first on ``sys.path``; ``load()`` fails
loudly when the checkout has no package source.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/pbstages`` package to measure."""


def load():
    if not (SRC / "pbstages" / "__init__.py").is_file():
        raise MissingSource(f"no package source at {SRC / 'pbstages'}")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import pbstages

    if Path(pbstages.__file__).resolve().parent != SRC / "pbstages":
        raise MissingSource(f"imported pbstages from {pbstages.__file__}, not from {SRC}")
    return pbstages
