"""One cache policy: every memo in the package is a functools.cache
function listed in monster.CACHES, so monster.clear_caches() reaches it,
and no module keeps a hand-written memo dict.  completion._IDS, the one
key numbering, is the one interning table: it is not a memo, so it is
not listed, and a clear keeps it, so an id means one key for the life of
the process.  An atom's images belong to the atom its word keys; words
on a window share them through the symbol memo."""

import ast
import importlib
from pathlib import Path

from monsterlie import completion, monster
from monsterlie.indices import SupportConfig

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "monsterlie").glob("*.py"))


def test_every_cache_is_listed():
    listed = {id(memo) for memo in monster.CACHES}
    found = {}
    for path in PACKAGE:
        module = importlib.import_module("monsterlie." + path.stem)
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                found[id(value)] = f"{path.stem}.{name}"
    assert found
    assert sorted(name for key, name in found.items() if key not in listed) == []
    assert len(found) == len(listed) == len(monster.CACHES)


def _empty_dict(node) -> bool:
    return ((isinstance(node, ast.Dict) and not node.keys)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "dict" and not node.args and not node.keywords))


def test_no_module_level_memo_dict():
    bound = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_dict(node.value):
                bound.append(f"{path.name}:{node.lineno}")
    assert bound == []


def test_key_numbering_is_not_a_memo_and_survives_a_clear():
    ids = completion._IDS
    assert all(memo is not ids for memo in monster.CACHES)
    completion.TruncAut.identity(SupportConfig(9, {1: 2, 2: 1}))._generator_forms()
    n = len(ids.key)
    assert n
    monster.clear_caches()
    assert completion._IDS is ids and len(ids.key) == n
