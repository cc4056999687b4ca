"""Importing the CLI loads the package and the stdlib modules it names,
nothing else: no dataclasses/inspect import chain at start-up."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys
for name in sys.argv[2:]:
    __import__(name)
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import monsterlie.cli
print(" ".join(sorted(set(sys.modules) - before)))
print(" ".join(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules))))
"""


def _named_stdlib() -> list:
    """Every absolute module the package's sources import."""
    names = set()
    for path in (SRC / "monsterlie").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return sorted(names)


def test_cli_import_loads_only_the_package_and_what_it_names():
    named = _named_stdlib()
    assert {"argparse", "fractions", "functools", "types", "collections.abc"} <= set(named)
    assert not any(n.startswith("monsterlie") for n in named)
    # -S: no site hooks, which may preload modules the package relies on
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, str(SRC), *named],
                          capture_output=True, text=True, check=True)
    new, banned = proc.stdout.split("\n")[:2]
    assert new.split() and all(m == "monsterlie" or m.startswith("monsterlie.")
                               for m in new.split()), new
    assert banned == ""
