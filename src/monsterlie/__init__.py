"""Exact-arithmetic kernel for the monster Lie algebra at finite truncation."""

from importlib import import_module

__version__ = "0.1.0"

# completion and presentation add their memos to monster.CACHES as they
# load; loading them with the package keeps that list whole, whichever
# module is imported first.
for _module in ("completion", "presentation"):
    import_module("." + _module, __package__)
