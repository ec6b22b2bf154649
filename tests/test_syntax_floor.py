"""Every module of the package parses at the Python floor that pyproject.toml states.

ast.parse's feature_version checks the grammar only: a standard-library name or
behaviour that the floor lacks is not seen here.
"""

import ast
import re
from pathlib import Path

import primewheel

PACKAGE = Path(primewheel.__file__).resolve().parent


def test_every_module_parses_at_the_stated_python_floor():
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()))
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        ast.parse(path.read_text(), str(path), feature_version=floor)
