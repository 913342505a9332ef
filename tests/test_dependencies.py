"""Every declared runtime dependency is imported by some package module.

The scan reads import statements with :mod:`ast` instead of importing
the package, so a dependency counts only if the source names it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Distributions whose import name differs from the project name.
IMPORT_NAMES = {"pyyaml": "yaml"}


def declared_dependencies() -> list[str]:
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    return [
        re.match(r"[A-Za-z0-9_.\-]+", spec).group(0)
        for spec in project["dependencies"]
    ]


def import_name(distribution: str) -> str:
    key = distribution.lower()
    return IMPORT_NAMES.get(key, key.replace("-", "_"))


def imported_top_level_modules() -> set[str]:
    names: set[str] = set()
    for path in PACKAGE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("distribution", declared_dependencies())
def test_declared_dependency_is_imported(distribution):
    assert import_name(distribution) in imported_top_level_modules(), (
        f"{distribution} is declared in pyproject.toml but no src/repro "
        "module imports it"
    )
