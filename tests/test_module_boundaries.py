"""Module boundaries of the stripesim package, read from its source with ast.

A module reaches into another only through public names: no stripesim
module imports an underscore name from another one.
"""

import ast
from pathlib import Path

import stripesim

MODULES = sorted(Path(stripesim.__file__).parent.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """The underscore names source imports from a stripesim module, dunders aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").partition(".")[0] != "stripesim":
            continue
        found += [alias.name for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_the_scan_sees_relative_and_absolute_private_imports():
    assert private_imports("from .runner import _BLOCK_TAG, rng_stream\n") == ["_BLOCK_TAG"]
    assert private_imports("from stripesim.scenario import _clip_psd\n") == ["_clip_psd"]
    assert private_imports("from . import _private, metrics\n") == ["_private"]
    assert private_imports("from __future__ import annotations\n"
                           "from numpy.linalg import _umath_linalg\n"
                           "from . import __version__\n") == []


def test_no_module_imports_a_private_name_of_another():
    assert len(MODULES) > 5
    found = {path.name: names for path in MODULES
             if (names := private_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
