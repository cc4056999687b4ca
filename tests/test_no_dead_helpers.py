"""Every function, method and class defined in the package is referenced
somewhere in the package, the tests or the benchmark (no dead helpers).

A reference is a name read (`f`), an attribute (`x.f`), an imported name,
or one part of a dotted string constant, such as the "module.function"
targets the benchmark's tracer wraps by name.  Dunder methods are called
by the language itself and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "monsterlie").glob("*.py"))
REFERRERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                    *(ROOT / "perfbench").glob("*.py")])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions(tree, prefix=""):
    """(line, qualified name, name) of every definition, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield node.lineno, prefix + node.name, node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _references(tree) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs.update(alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            refs.update(node.value.split("."))
    return refs


def _dead_helpers(defining: dict, referring: list) -> list:
    """defining maps a label to source; referring is a list of sources."""
    refs = set().union(*(_references(ast.parse(src)) for src in referring))
    return sorted((label, line, qual)
                  for label, src in defining.items()
                  for line, qual, name in _definitions(ast.parse(src))
                  if name not in refs
                  and not (name.startswith("__") and name.endswith("__")))


def test_no_dead_helpers():
    lib = ("class A:\n    def __init__(self): pass\n    def used(self): pass\n"
           "    def unused(self): pass\n"
           "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n")
    user = "from lib import f\nA().used()\nT = ('lib.g',)\nprint(h)\n"
    assert _dead_helpers({"lib": lib}, [lib, user]) == [("lib", 4, "A.unused"),
                                                        ("lib", 8, "k")]
    assert len(PACKAGE) > 5 and len(REFERRERS) > len(PACKAGE)
    found = [f"src/monsterlie/{label}:{line}: {qual}"
             for label, line, qual in _dead_helpers(
                 {path.name: path.read_text() for path in PACKAGE},
                 [path.read_text() for path in REFERRERS])]
    assert not found, "never referenced:\n" + "\n".join(found)
