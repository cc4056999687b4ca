"""One cache policy: every memo in the package is a functools.cache
function listed in monster.CACHES, so monster.clear_caches() reaches it,
and no module keeps a hand-written memo dict."""

import ast
import importlib
from pathlib import Path

from monsterlie import monster

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
