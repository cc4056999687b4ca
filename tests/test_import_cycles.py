"""Each package module imports cleanly when it is the first one loaded.

A module-level import cycle shows only for some import orders, so each
module is imported first, in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monsterlie"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert len(MODULES) >= 8 and "completion" in MODULES and "presentation" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    proc = subprocess.run([sys.executable, "-c", f"import monsterlie.{name}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
