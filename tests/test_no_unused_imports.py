"""Every import in the package and the tests, at module or function
scope, is used in the scope that binds it (no dead imports)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "monsterlie").glob("*.py"), *(ROOT / "tests").glob("*.py")])
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(scope):
    """Import statements of scope itself, not of a function nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        imported = {}
        for node in _scope_imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    # "import a.b" binds a
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [(line, name) for name, line in imported.items() if name not in used]
    return sorted(unused)


def test_no_unused_imports():
    probe = "from __future__ import annotations\nimport os\nfrom math import gcd, inf\nprint(gcd)\n"
    assert _unused_imports(probe) == [(2, "os"), (3, "inf")]
    # a function-scope import counts only names read inside that function
    probe = ("import json\ndef f():\n    from os import path, sep\n    return sep\n"
             "def g():\n    import json\n    return path\n")
    assert _unused_imports(probe) == [(1, "json"), (3, "path"), (6, "json")]
    assert len(MODULES) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES
             for line, name in _unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
