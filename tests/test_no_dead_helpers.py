"""Every function, method and class defined in the package is referenced
from the package or the benchmark (no dead helpers); a test call alone
does not count, since a helper only tests reach belongs with the tests.
The exceptions are LIBRARY_API, the definitions the README names as
library API, which only callers outside the package use.

A reference is a name read (`f`), an attribute (`x.f`), an imported name,
or one part of a dotted string constant, such as the "module.function"
targets the benchmark's tracer wraps by name.  Dunder methods are called
by the language itself and are exempt.  The check matches names only, so
a definition whose name some other definition shares (a method `window`
beside an attribute `Config.window`, say) counts as used whichever one
is referenced; such a helper has to be found by hand.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "monsterlie").glob("*.py"))
REFERRERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")])
LIBRARY_API = {"TruncAut.identity", "exp_ad", "Ad", "free_separation_test", "clear_caches"}
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


def _dead_helpers(defining: dict, referring: list, allowed: set) -> list:
    """defining maps a label to source; referring is a list of sources;
    allowed holds qualified names that need no reference."""
    refs = set().union(*(_references(ast.parse(src)) for src in referring))
    return sorted((label, line, qual)
                  for label, src in defining.items()
                  for line, qual, name in _definitions(ast.parse(src))
                  if name not in refs and qual not in allowed
                  and not (name.startswith("__") and name.endswith("__")))


def test_no_dead_helpers():
    lib = ("class A:\n    def __init__(self): pass\n    def used(self): pass\n"
           "    def unused(self): pass\n"
           "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n"
           "def tested(): pass\ndef api(): pass\n")
    user = "from lib import f\nA().used()\nT = ('lib.g',)\nprint(h)\n"
    # nothing in lib or user calls tested() or api(); a test source might,
    # but tests are no referrer: tested is reported, the allowlist spares api
    assert _dead_helpers({"lib": lib}, [lib, user], {"api"}) == [("lib", 4, "A.unused"),
                                                                 ("lib", 8, "k"),
                                                                 ("lib", 9, "tested")]
    assert len(PACKAGE) > 5 and len(REFERRERS) > len(PACKAGE)
    assert not any(ROOT / "tests" in path.parents for path in REFERRERS)
    found = [f"src/monsterlie/{label}:{line}: {qual}"
             for label, line, qual in _dead_helpers(
                 {path.name: path.read_text() for path in PACKAGE},
                 [path.read_text() for path in REFERRERS], LIBRARY_API)]
    assert not found, "never referenced:\n" + "\n".join(found)
