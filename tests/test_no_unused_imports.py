"""Every top-level import in the package and the tests is used in its own
module (no dead imports)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "monsterlie").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    probe = "from __future__ import annotations\nimport os\nfrom math import gcd, inf\nprint(gcd)\n"
    assert _unused_imports(probe) == [(2, "os"), (3, "inf")]
    assert len(MODULES) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES
             for line, name in _unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
