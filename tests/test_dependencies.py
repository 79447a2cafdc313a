import ast
import os
import re
import subprocess
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


def _unused_imports(source):
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "src" / "wavelearn").glob("*.py")))
def test_every_import_is_used(name):
    assert _unused_imports((ROOT / "src" / "wavelearn" / name).read_text()) == []


def test_the_package_runs_without_mpmath():
    # mpmath may be installed; a None entry in sys.modules makes any import of it fail
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "import wavelearn.cli\n"
            "from wavelearn.model import ModelConfig, Network\n"
            "Network(ModelConfig())\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
