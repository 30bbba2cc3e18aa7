"""The versioned ladder of arrangements of ``tools/ladder.py``, for the tests.

The tool is the one place the rungs are written down; the tests load it by
path and build each rung's arrangement through it, so a rung added to the
tool is tested everywhere the tests take their rungs from here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import arrgm
import arrgm.fixtures  # noqa: F401  (the fixture rungs)


def _load_ladder():
    path = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ladder = _load_ladder()
RUNGS = list(ladder.RUNGS)


def rung(name: str) -> arrgm.Arrangement:
    """The arrangement of the ladder rung ``name``."""
    return ladder.rung_arrangement(arrgm, name)
