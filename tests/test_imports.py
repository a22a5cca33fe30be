import ast
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
