import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
IMPORT_NAMES = {"pyyaml": "yaml"}


def _declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"])
    return {IMPORT_NAMES.get(n, n) for n in names}


def _imported():
    found = set()
    for path in (ROOT / "src" / "wavelearn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"wavelearn"}


def test_declared_dependencies_match_imports():
    assert _declared() == _imported()
