"""Index sets, roots, degrees, and finite support windows.

Letters of the positive free part are triples (l, j, k): the k-th
generator at level j, raised l times by the degree-1 real generator,
with 0 <= l < j and 1 <= k <= c(j).  Internally a letter is stored as
the tuple (j, k, l) so that plain tuple comparison realizes the
canonical alphabet order "ascending (j, k, l)".

Roots live in a rank-2 lattice; the root of e_{-1} is (1, -1), the root
of the letter (l, j, k) is (l+1, j-l), and f-side objects carry the
negated root.  The degree map is deg(a, b) = 2a + b, so deg e_{-1} = 1
and the minimum letter degree is 3.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .qseries import j_coefficients

Letter = tuple[int, int, int]   # (j, k, l)
Root = tuple[int, int]


def make_letter(l: int, j: int, k: int) -> Letter:
    """Validate and build a letter from display order (l, j, k)."""
    if j < 1:
        raise ValueError(f"level j must be >= 1, got {j}")
    if not 0 <= l < j:
        raise ValueError(f"string position l must satisfy 0 <= l < j, got l={l}, j={j}")
    if k < 1:
        raise ValueError(f"multiplicity index k must be >= 1, got {k}")
    return (j, k, l)


def letter_root(letter: Letter) -> Root:
    j, _k, l = letter
    return (l + 1, j - l)


def letter_degree(letter: Letter) -> int:
    j, _k, l = letter
    return j + l + 2


class SupportConfig:
    """Finite window: degree bound and per-level multiplicity caps.

    caps maps level j to the number of k-indices kept there, K_j <= c(j)
    (qseries.j_coefficients; a larger cap raises ValueError); levels
    absent from caps contribute no letters.  Only a level with a letter
    in the window (j + 2 <= degree_bound) is checked against c(j): a cap
    above the window names no letter, so it is kept but never checked.
    The window keeps a read-only copy of caps, so the caller's dict can
    change afterwards without moving it past that check.  A window is
    immutable: assigning or deleting an attribute raises AttributeError.
    Windows with equal bounds and caps are equal and hash equal, whatever
    order the caps were given in, so a window can key a cache; the hash
    is computed once, when the window is built.
    """

    __slots__ = ("degree_bound", "caps", "_hash")

    def __init__(self, degree_bound: int, caps: Mapping[int, int] = MappingProxyType({})):
        caps = MappingProxyType(dict(caps))
        if degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        for j, c in caps.items():
            if j < 1:
                raise ValueError(f"level {j} must be positive")
            if c < 0:
                raise ValueError(f"cap at level {j} must be nonnegative")
        kept = {j: c for j, c in caps.items() if c and j + 2 <= degree_bound}
        if kept:
            coef = j_coefficients(max(kept))
            for j, c in kept.items():
                if c > coef[j]:
                    raise ValueError(f"cap {c} at level {j} exceeds c({j}) = {coef[j]}")
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_hash", hash((degree_bound, tuple(sorted(caps.items())))))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree_bound, self.caps) == (other.degree_bound, other.caps)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SupportConfig(degree_bound={self.degree_bound!r}, caps={self.caps!r})"

    def cap(self, j: int) -> int:
        return self.caps.get(j, 0)

    def supports_letter(self, letter: Letter) -> bool:
        j, k, l = letter
        return 1 <= k <= self.cap(j) and 0 <= l < j and letter_degree(letter) <= self.degree_bound

    def letters(self) -> list[Letter]:
        """All supported letters in canonical (j, k, l) order."""
        out = []
        for j in sorted(self.caps):
            top = min(j, self.degree_bound - j - 1)  # l < j and j + l + 2 <= degree_bound
            if top > 0:
                out += [(j, k, l) for k in range(1, self.caps[j] + 1) for l in range(top)]
        return out

    def base_levels(self) -> list[int]:
        """Levels j with at least one supported base letter (l = 0)."""
        return [j for j in sorted(self.caps)
                if self.caps[j] >= 1 and j + 2 <= self.degree_bound]


def display(letter: Letter) -> str:
    j, k, l = letter
    return f"({l},{j},{k})"
