import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavelearn"
IMPORT_NAMES = {"pyyaml": "yaml"}
# the package's modules, and the test helper modules that pytest does not collect
MODULES = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "gradcheck.py",
                                          ROOT / "tests" / "reference.py"]
# definitions that no code in the package reads, each with the caller that needs it
READ_OUTSIDE_THE_PACKAGE = {
    "Network.parameter_count": "bench/run.py",
    "regularized_objective": "bench/tracing.py",
}


def _declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"])
    return {IMPORT_NAMES.get(n, n) for n in names}


def _imported():
    found = set()
    for path in PACKAGE.glob("*.py"):
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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of each
    method but the special ones, which the language calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _reads(tree, module=None):
    """How often each name is read under ``tree``, as a variable or an attribute.

    An attribute of a name imported from outside the package (``np.tanh``,
    ``np.random.default_rng``) reads that module, not a definition here.
    Given the ``module`` that ``tree`` lies in, a bare name that the module
    assigns or takes as an argument itself (``tanh = np.tanh``) reads that
    binding, not a definition elsewhere.
    """
    module = module or tree
    outside, bound = set(), set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.level == 0:
            outside.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    reads = Counter()
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name) and node.id not in bound:
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in outside):
                reads[node.attr] += 1
    return reads


def test_every_definition_in_the_package_is_read_in_the_package():
    # code that only tests read belongs in tests/, not in the shipped package
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    reads = sum(map(_reads, trees), Counter())
    unread = sorted(name for tree in trees for name, node in _definitions(tree)
                    if reads[node.name] == _reads(node, tree)[node.name])
    assert unread == sorted(READ_OUTSIDE_THE_PACKAGE)


@pytest.mark.parametrize("source, read", [
    ("import numpy as np\nnp.tanh(1)\n", False),
    ("import numpy as np\nnp.random.default_rng(0).tanh\n", True),
    ("from . import autodiff as ad\nad.tanh(1)\n", True),
    ("import numpy as np\ndef f():\n    tanh = np.tanh\n    tanh(1)\n", False),
    ("def f(tanh):\n    return tanh(1)\n", False),
    ("from .autodiff import tanh\ntanh(1)\n", True),
], ids=["numpy-attribute", "attribute-of-a-call", "package-attribute", "local-alias",
        "argument", "imported-name"])
def test_a_read_of_a_name_counts_only_where_it_can_reach_a_package_definition(source, read):
    assert _reads(ast.parse(source))["tanh"] == int(read)


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


def test_a_failing_hypothesis_test_is_one_failure_under_the_repository_warning_filters(tmp_path):
    # reporting a failure imports optional modules that may warn on import;
    # under pyproject's filters that must not end the run as an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None)\n@given(st.integers())\n"
        "def test_fails(n):\n    assert n < 0\n\n"
        "def test_passes():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
