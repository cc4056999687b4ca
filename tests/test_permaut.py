import pytest

from monsterlie import monster, permaut
from monsterlie.completion import TruncAut
from monsterlie.indices import SupportConfig
from monsterlie.monster import MonsterElt
from monsterlie.permaut import (ASSUMPTION_FLAGS, C15_VALUE, D_VALUE, SparsePerm,
                                commutation_report, homomorphism_report,
                                numerology_check, perm_aut, perm_report,
                                verify_preservation)

CFG = SupportConfig(8, {1: 3, 2: 2})

def test_cycle_parse_and_print():
    s = SparsePerm.from_cycles(1, "(1 2 3)")
    assert s.apply(1) == 2 and s.apply(2) == 3 and s.apply(3) == 1
    assert s.apply(4) == 4
    assert s.cycles() == "(1 2 3)"
    assert SparsePerm.from_cycles(2, "(2 5)(1 3)").cycles() == "(1 3)(2 5)"
    assert SparsePerm.from_cycles(1, "()") == SparsePerm(1)
    assert SparsePerm.from_cycles(1, "(1, 2)").cycles() == "(1 2)"


def test_cycle_parse_errors():
    with pytest.raises(ValueError):
        SparsePerm.from_cycles(1, "(1 2")
    with pytest.raises(ValueError):
        SparsePerm.from_cycles(1, "(1 1)")
    with pytest.raises(ValueError):
        SparsePerm.from_cycles(1, "(1 2)(2 3)")
    with pytest.raises(ValueError):
        SparsePerm.from_cycles(1, "(0 1)")
    with pytest.raises(ValueError):
        SparsePerm(0, {})
    with pytest.raises(ValueError):
        SparsePerm(1, {1: 2, 3: 2})


def test_inverse_and_compose():
    s = SparsePerm.from_cycles(1, "(1 2 3)")
    assert s * s.inverse() == SparsePerm(1)
    assert s * s == s.inverse()
    t = SparsePerm.from_cycles(1, "(1 2)")
    # t acts first in s * t
    assert (s * t).apply(1) == 3
    assert (t * s).apply(1) == 1
    with pytest.raises(ValueError):
        s * SparsePerm.from_cycles(2, "(1 2)")


def test_apply_to_element_swap():
    g = perm_aut(SparsePerm.from_cycles(1, "(1 2)"), CFG)
    x = MonsterElt.e_letter(0, 1, 1) + 3 * MonsterElt.f_letter(0, 1, 2) + MonsterElt.h1()
    y = g.apply(x)
    assert monster.format_elt(y) == "1*h1 + 1*e(0,1,2) + 3*f(0,1,1)"
    # involution
    assert g.apply(y) == x


def test_apply_fixes_other_levels():
    g = perm_aut(SparsePerm.from_cycles(2, "(1 2)"), CFG)
    x = MonsterElt.e_letter(0, 1, 1)
    assert g.apply(x) == x


def test_perm_aut_identity():
    g = perm_aut(SparsePerm(1, {}), CFG)
    assert g.equal(TruncAut.identity(CFG))


def test_perm_aut_support_check():
    with pytest.raises(ValueError):
        perm_aut(SparsePerm.from_cycles(1, "(1 4)"), CFG)
    with pytest.raises(ValueError):
        perm_aut(SparsePerm.from_cycles(3, "(1 2)"), CFG)


def test_perm_aut_matches_element_action():
    g = perm_aut(SparsePerm.from_cycles(1, "(1 2 3)"), CFG)
    assert g.apply(MonsterElt.e_letter(0, 1, 2)) == MonsterElt.e_letter(0, 1, 3)
    for x in (MonsterElt.f_letter(1, 2, 1), MonsterElt.e_minus(), MonsterElt.h2()):
        assert g.apply(x) == x


def test_verify_preservation_passes():
    rep = verify_preservation(SparsePerm.from_cycles(1, "(1 2 3)"), CFG)
    assert rep["pass"]
    assert rep["relations_pass"]
    assert rep["bracket_failures"] == []


class _Corrupted:
    """perm_aut's automorphism with h1 added to the image of e(-1): the
    attributes verify_preservation reads, over an honest relabeling."""

    def __init__(self, g):
        self.cfg, self.word, self.N = g.cfg, g.word, g.N
        self._g = g

    def apply(self, y, need=None):
        out = self._g.apply(y, need)
        c = y.terms.get(monster.EMINUS)
        return out + MonsterElt.h1().scaled(c) if c else out


def test_verify_preservation_catches_a_non_automorphism(monkeypatch):
    monkeypatch.setattr(permaut, "perm_aut", lambda sigma, cfg: _Corrupted(perm_aut(sigma, cfg)))
    # CFG holds every base string whole; N=4 cuts level 2's
    for cfg in (CFG, SupportConfig(4, CFG.caps)):
        rep = verify_preservation(SparsePerm.from_cycles(1, "(1 2 3)"), cfg)
        assert rep["bracket_failures"]
        assert rep["pass"] is False and rep["relations_pass"] is False


def test_commutation_report_passes():
    rep = commutation_report(SparsePerm.from_cycles(2, "(1 2)"), CFG)
    assert rep["pass"]
    assert rep["torus_commutes"]
    assert rep["omega_failures"] == []


def test_homomorphism_report():
    rep = homomorphism_report(CFG)
    assert rep["pass"] and rep["failures"] == []
    empty = homomorphism_report(SupportConfig(5, {1: 1}))
    assert empty["pass"] and empty["trials"] == 0


def test_perm_report_flags_assumptions():
    rep = perm_report(SparsePerm.from_cycles(1, "(2 3)"), CFG)
    assert rep["cycles"] == "(2 3)"
    assert rep["cap"] == 3
    assert rep["assumptions"] == list(ASSUMPTION_FLAGS)
    assert len(rep["assumptions"]) == 2
    assert "pass" in rep and "preservation" not in rep


def test_perm_report_verified():
    rep = perm_report(SparsePerm.from_cycles(1, "(1 2)"), CFG, verify=True)
    assert rep["pass"]
    assert rep["preservation"]["pass"]
    assert rep["commutation"]["pass"]
    assert rep["homomorphism"]["pass"]


def test_numerology_frozen_values():
    assert D_VALUE == 97239461142009186000
    assert C15_VALUE == 126142916465781843075
    rep = numerology_check()
    assert rep["pass"]
    names = [c["name"] for c in rep["checks"]]
    assert names == ["d factorization", "c(15) factorization",
                     "c(15) from q-series", "d <= c(15)"]
    assert all(c["pass"] for c in rep["checks"])
    assert rep["d"] == "97239461142009186000"
