"""The demos call compaudit by name; every name they use must resolve.

A static check: each demo is parsed, not run. Every ``from compaudit...
import`` name and every attribute chain read off a compaudit module
(``nn.forward``, ``attacks.SrConstruction.SORTED_CONCAT``) must exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def compaudit_names(tree: ast.Module):
    """(line, dotted name) of every compaudit object the module names."""
    modules = {}  # local name -> compaudit module path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "compaudit":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                yield node.lineno, name
                modules[alias.asname or alias.name] = name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "compaudit":
                    yield node.lineno, alias.name
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["compaudit"] = "compaudit"
    for node in ast.walk(tree):
        parts, root = [], node
        while isinstance(root, ast.Attribute):
            parts.append(root.attr)
            root = root.value
        if parts and isinstance(root, ast.Name) and root.id in modules:
            yield node.lineno, ".".join([modules[root.id]] + parts[::-1])


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True
    return False


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_every_compaudit_name_resolves(demo):
    names = list(compaudit_names(ast.parse(demo.read_text(encoding="utf-8"))))
    assert names
    assert [f"line {line}: {name}" for line, name in names if not resolves(name)] == []
