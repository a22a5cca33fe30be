import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    str(p.relative_to(ROOT))
    for d in ("src", "tests")
    for p in (ROOT / d).rglob("*.py")
)


def _exported(tree: ast.Module) -> set[str]:
    """The literal names in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in source and never referenced.

    A reference is a bare name, the root of an attribute chain, or a name in a
    string annotation.  __future__ imports and names listed in __all__ (the
    package's re-exports) do not count as unused.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    keep = used | _exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in keep]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    unused = unused_imports((ROOT / path).read_text())
    assert not unused, unused


def test_unused_import_detection():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from a import b, c, d\n"
        "__all__ = ['d']\n"
        "def f(x: 'c') -> None:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(src) == ["b (line 4)", "j (line 3)"]


def _read_names(node: ast.AST) -> set[str]:
    """Names a statement reads: bare names, attribute names and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _defined_names(stmt: ast.stmt) -> set[str]:
    """Names a module-level statement defines."""
    if isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign | ast.AugAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with _ (dunders aside) that no statement
    of the given modules reads, other than their own definition."""
    statements = [(path, stmt) for path, text in sources.items()
                  for stmt in ast.parse(text).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    return [f"{path}: {name}"
            for i, (path, stmt) in enumerate(statements)
            for name in sorted(_defined_names(stmt))
            if name.startswith("_") and not name.endswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_no_test_only_private_names_in_src():
    """A private helper of src/ that only tests call belongs in the tests."""
    sources = {f: (ROOT / f).read_text() for f in FILES if f.startswith("src")}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_detection():
    sources = {
        "a.py": ("_used = 1\n_lonely, _x = 2, 3\n__all__ = []\n"
                 "def _rec(n):\n    return _rec(n - 1) + _x\n"),
        "b.py": "from a import _used\nprint(_used)\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _lonely", "a.py: _rec"]


# Imports numpy, then the CLI, decides a pair with no spec, and prints the
# numpy modules that appeared after `import numpy`.
_NUMPY_PROBE = """
import sys
import numpy
before = set(sys.modules)
from spectral_switch import cli, spectra
from spectral_switch.graphcore import Graph
c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
v = spectra.cospectral(Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(4, [(0, 2), (1, 3)]))
assert v.method == "minimal-polynomial" and v.equal, v
v = spectra.cospectral(c5, c5.relabel([2, 0, 4, 1, 3]))
assert v.method == "charpoly" and v.equal, v
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
"""


def test_cli_and_cospectral_load_no_further_numpy_module():
    """numpy.random alone adds about 6 MiB to a process, so the eigenvalue
    hint draws its start vector from the standard library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
