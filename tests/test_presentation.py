import hashlib
from fractions import Fraction
from itertools import islice

import oracles
import pytest
from oracles import invert, mirror_relation, mirror_word

from monsterlie import cli, completion, monster
from monsterlie import presentation as P
from monsterlie.completion import TruncAut, compose, exp_ad, torus
from monsterlie.indices import SupportConfig
from monsterlie.monster import MonsterElt
from monsterlie.presentation import (GroupWord, build_instance, c_const, commutator,
                                     expand_weyl, format_word, free_separation_test,
                                     realize_word, sym, validate_adjoint, validate_catalog,
                                     validate_sl2)

CFG = SupportConfig(8, {1: 2, 2: 1})


def test_c_const_values():
    assert c_const(0, 1) == -1
    assert c_const(0, 2) == -2
    assert c_const(1, 2) == 2
    assert c_const(0, 3) == -3
    assert c_const(1, 3) == 8
    assert c_const(2, 3) == -3
    with pytest.raises(ValueError):
        c_const(2, 2)


def test_group_word_free_reduction():
    a = sym("X", -1, 1)
    b = sym("X", (0, 1, 1), 2)
    w = GroupWord([(a, 1), (b, 1), (b, -1), (a, -1)])
    assert len(w) == 0
    w2 = GroupWord([(a, 1), (b, 1), (a, -1)])
    assert len(w2) == 3
    assert (w2 * w2.inverse()).factors == ()


def test_group_word_format():
    w = GroupWord.of(sym("X", -1, Fraction(3, 2)), sym("H1", None, 2))
    assert format_word(w) == "X(-1;3/2)H1(2)"
    assert format_word(GroupWord()) == "1"
    assert format_word(GroupWord([(sym("Y", (1, 2, 1), 1), -1)])) == "Y(1,2,1;1)^-1"


def test_commutator_shape():
    a = GroupWord.of(sym("X", (0, 1, 1), 1))
    b = GroupWord.of(sym("X", (0, 2, 1), 1))
    c = commutator(a, b)
    assert len(c) == 4


def test_expand_weyl():
    w = GroupWord.of(sym("W", -1, 1))
    e = expand_weyl(w)
    assert format_word(e) == "X(-1;1)Y(-1;-1)X(-1;1)"
    # imaginary string: Y parameter is -1/(s*c)
    w2 = GroupWord.of(sym("W", (0, 2, 1), 1))
    e2 = expand_weyl(w2)
    assert format_word(e2) == "X(0,2,1;1)Y(0,2,1;1/2)X(0,2,1;1)"
    # inverse distributes in reverse order
    e3 = expand_weyl(GroupWord([(sym("W", -1, 1), -1)]))
    assert format_word(e3) == "X(-1;1)^-1Y(-1;-1)^-1X(-1;1)^-1"


def test_catalog_structure():
    cat = P._CATALOG
    assert len(cat) == 35
    ids = [t.rid for t in cat]
    assert ids == [f"R{i}" for i in range(1, 36)]
    assert all(t.description for t in cat)
    by_class = {}
    for t in cat:
        by_class.setdefault(t.klass, []).append(t.rid)
    assert len(by_class["ADJOINT"]) == 21
    assert len(by_class["MIRROR"]) == 6
    assert len(by_class["SL2"]) == 7
    assert by_class["UNVALIDATED"] == ["R16"]
    assert set(by_class["MIRROR"]) == {"R18", "R21", "R22", "R24", "R26", "R28"}
    assert set(by_class["SL2"]) == {f"R{i}" for i in range(29, 36)}


def test_unvalidated_family_has_no_instance():
    # R16 is swept only at the Lie level (_shadow_check_r16)
    with pytest.raises(ValueError, match="R16"):
        build_instance("R16", {"u": 1, "v": 1}, ((0, 1, 1), (0, 1, 2)))


def test_wrong_index_kind_raises():
    # a real-root family takes no index, a letter family needs a letter of
    # its kind: R19 holds only at the top of a string, R20 only at its
    # bottom, and no letter has l >= j
    for rid, params, index, need in (
            ("R1", {"u": 1, "v": 1}, (0, 1, 1), "no index"),
            ("R17", {"u": 1, "v": 1}, None, "a letter index"),
            ("R17", {"u": 1, "v": 1}, (2, 2, 1), "a letter index"),
            ("R19", {"s": 1, "t": 1}, (0, 2, 1), "a letter-top index"),
            ("R20", {"s": 1, "t": 1}, (1, 2, 1), "a letter-l0 index")):
        with pytest.raises(ValueError, match=f"{rid} takes {need}"):
            build_instance(rid, params, index)
    assert validate_adjoint(build_instance("R19", {"s": 1, "t": 1}, (1, 2, 1)), CFG)
    assert validate_adjoint(build_instance("R20", {"s": 1, "t": 1}, (0, 2, 1)), CFG)


def test_real_additivity_adjoint():
    inst = build_instance("R1", {"u": 2, "v": Fraction(1, 2)})
    assert validate_adjoint(inst, CFG) is True


def test_real_weyl_matrix_example():
    # the lower-triangular conjugation identity in the 2x2 model at t=s=1
    inst = build_instance("R8", {"s": 1, "t": 1})
    # integer forms (den, a, b, c, d) of the matrix ((a, b), (c, d)) / den
    assert P._word_matrix(inst.lhs, -1) == P._word_matrix(inst.rhs, -1) == (1, 2, 1, -1, 0)


def test_weyl_square_is_torus():
    # w(-1;s) w(-1;1) realizes H1(-s)H2(-1/s)
    inst = build_instance("R9", {"s": 3})
    assert validate_adjoint(inst, CFG)
    assert P._word_matrix(inst.lhs, -1) == (3, -9, 0, 0, -1)


def test_imaginary_weyl_conjugation_corrected_sign():
    # string reversal with scalar (-1)^l
    for (l, j, k) in ((0, 2, 1), (1, 2, 1), (0, 1, 1), (0, 1, 2)):
        inst = build_instance("R23", {"u": 1}, (l, j, k))
        assert validate_adjoint(inst, CFG), (l, j, k)


def test_imaginary_weyl_printed_sign_fails_even_levels():
    # negative control: the (-1)^(j-l-1) scalar on the X-line is wrong at even j
    w_1 = sym("W", -1, 1)
    u = Fraction(1)
    l, j, k = 0, 2, 1
    lhs = GroupWord.of(w_1) * GroupWord.of(sym("X", (l, j, k), u)) * GroupWord.of(w_1).inverse()
    rhs = GroupWord.of(sym("X", (j - 1 - l, j, k), Fraction((-1) ** (j - l - 1)) * u))
    bad = P.RelationInstance("R23x", "ADJOINT", lhs, rhs, (l, j, k), {"u": u})
    assert not validate_adjoint(bad, CFG)


def test_mirror_word_involution():
    w = GroupWord.of(sym("X", -1, 2), sym("H1", None, 3), sym("Y", (0, 1, 1), 1))
    assert mirror_word(mirror_word(w)) == w


def test_mirror_relation_validates():
    inst = build_instance("R18", {"u": 1, "v": 2}, (0, 2, 1))
    m = mirror_relation(inst)
    assert m.klass == "ADJOINT"
    assert validate_adjoint(m, CFG)
    with pytest.raises(ValueError):
        mirror_relation(m)


def test_mirror_of_imaginary_weyl_keeps_printed_sign():
    # the Y-line scalar (-1)^(j-1-l) is right as printed; its mirror passes
    for idx in ((0, 2, 1), (1, 2, 1), (0, 1, 1)):
        inst = build_instance("R24", {"u": 1}, idx)
        assert validate_adjoint(mirror_relation(inst), CFG), idx


def test_torus_conjugation_families():
    for rid, idx in (("R25", (0, 2, 1)), ("R27", (1, 2, 1))):
        inst = build_instance(rid, {"s": 2, "u": Fraction(1, 2)}, idx)
        assert validate_adjoint(inst, CFG), rid


def test_single_string_matrix_families():
    for rid in ("R30", "R33", "R34"):
        t = P._TEMPLATES[rid]
        for idx in ((0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1)):
            for params in P._param_choices(t, (1, -1, 2)):
                inst = build_instance(rid, params, idx)
                assert validate_sl2(inst), (rid, idx, params)


def test_fractional_power_families_integral_substitution():
    for rid in ("R29", "R31", "R32", "R35"):
        t = P._TEMPLATES[rid]
        for idx in ((0, 2, 1), (1, 3, 1), (2, 3, 1)):
            for params in P._param_choices(t, (1, -1, 2, Fraction(1, 2))):
                inst = build_instance(rid, params, idx)
                assert validate_sl2(inst), (rid, idx, params)


def test_sl2_matrix_model_rejects_cross_index():
    inst = build_instance("R30", {"s": 1, "t": 1}, (0, 1, 1))
    with pytest.raises(ValueError):
        P._word_matrix(inst.lhs, (0, 2, 1))


def test_validators_reject_other_classes():
    sl2 = build_instance("R30", {"s": 1, "t": 1}, (0, 1, 1))
    adjoint = build_instance("R17", {"u": 1, "v": 2}, (0, 1, 1))
    mirror = build_instance("R18", {"u": 1, "v": 2}, (0, 1, 1))
    with pytest.raises(ValueError, match="needs an ADJOINT instance, got SL2"):
        validate_adjoint(sl2, CFG)
    with pytest.raises(ValueError, match="needs an SL2 instance, got ADJOINT"):
        validate_sl2(adjoint)
    with pytest.raises(ValueError, match="needs an SL2 instance, got MIRROR"):
        validate_sl2(mirror)


def test_unrealizable_symbol_raises():
    w = GroupWord.of(sym("Y", (0, 1, 1), 1))
    with pytest.raises(P.UnrealizableError):
        realize_word(w, CFG)


def test_cross_string_shadow_report():
    rep = P._shadow_check_r16(CFG)
    assert rep["pass"]
    assert rep["status"] == "supported, not validated"
    assert rep["instances"] > 0
    assert len(rep["reading_flags"]) > 0           # (1,1) vs (1,2) share j only
    assert len(rep["adjacent_unconstrained"]) > 0  # (0,2,1) vs (1,2,1)


# SHA-256 of every instance relcheck builds at the default window and
# samples, MIRROR ones after mirror transport: the relcheck report holds
# pass flags and counts, not the words, so a builder that trivializes a
# relation would leave the report unchanged
RELCHECK_WORDS_DIGEST = "c0de10832ba44bb4ecae99e5c769b8cc905c9ac4506c61f77009bed17ae8f74f"


def _sweep_instances(cfg, samples):
    """Every instance validate_catalog builds, in sweep order, MIRROR ones
    built as their mirror transport."""
    for template in P._CATALOG:
        if template.klass == "UNVALIDATED":
            continue
        for index in P._indices_for(template, cfg):
            for params in P._param_choices(template, samples):
                yield build_instance(template.rid, params, index, template.klass == "MIRROR")


def test_relcheck_words_are_unchanged():
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    h = hashlib.sha256()
    n = 0
    for inst in _sweep_instances(cfg, P.DEFAULT_SAMPLES):
        row = (inst.rid, inst.klass, inst.index,
               sorted((k, str(v)) for k, v in inst.params.items()),
               format_word(inst.lhs), format_word(inst.rhs))
        h.update((repr(row) + "\n").encode())
        n += 1
    assert (n, h.hexdigest()) == (2710, RELCHECK_WORDS_DIGEST)


def test_mirror_instances_match_the_transport_oracle():
    # every MIRROR instance of the default sweep and of the seven-sample
    # sweep: the mirrored words built directly are the symbol-by-symbol
    # mirror transport of the instance as written, with Fraction parameters
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    seven = (1, -1, 2, -2, Fraction(1, 2), Fraction(1, 3), -3)
    n = 0
    for samples in (P.DEFAULT_SAMPLES, seven):
        for template in P._CATALOG:
            if template.klass != "MIRROR":
                continue
            for index in P._indices_for(template, cfg):
                for params in P._param_choices(template, samples):
                    got = build_instance(template.rid, params, index, mirrored=True)
                    assert got == mirror_relation(build_instance(template.rid, params, index))
                    assert all(type(s.param) is Fraction
                               for w in (got.lhs, got.rhs) for s, _ in w.factors)
                    n += 1
    assert n == 970 + 1876
    with pytest.raises(ValueError, match="R17 is ADJOINT, not MIRROR"):
        build_instance("R17", {"u": 1, "v": 1}, (0, 1, 1), mirrored=True)


def test_integer_sl2_matrices_match_fraction_reference():
    # every SL2 instance of the default sweep and of the seven-sample
    # sweep, both sides, against the Fraction product of symbol matrices
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    seven = (1, -1, 2, -2, Fraction(1, 2), Fraction(1, 3), -3)
    n = 0
    for samples in (P.DEFAULT_SAMPLES, seven):
        for inst in _sweep_instances(cfg, samples):
            if inst.klass != "SL2":
                continue
            want = [oracles.eval_word_matrix(w, inst.index) for w in (inst.lhs, inst.rhs)]
            for w, M in zip((inst.lhs, inst.rhs), want):
                den, *entries = P._word_matrix(w, inst.index)
                assert [Fraction(x, den) for x in entries] == [*M[0], *M[1]], \
                    (inst.rid, inst.index, inst.params)
            assert validate_sl2(inst) is (want[0] == want[1])
            n += 1
    assert n == 495 + 819


SWEEP_CFG = SupportConfig(6, {1: 2, 2: 1})
SWEEP_SAMPLES = (1, -1)


def _expanded_pair(inst):
    return expand_weyl(inst.lhs), expand_weyl(inst.rhs)


def test_validate_catalog_validates_each_pair_once(monkeypatch):
    pairs = [_expanded_pair(inst) for inst in _sweep_instances(SWEEP_CFG, SWEEP_SAMPLES)
             if inst.klass == "ADJOINT"]
    seen = []

    def counting(inst, cfg):
        seen.append(_expanded_pair(inst))
        return validate_adjoint(inst, cfg)

    monkeypatch.setattr(P, "validate_adjoint", counting)
    rep = validate_catalog(SWEEP_CFG, samples=SWEEP_SAMPLES, suite="adjoint")
    assert rep["all_pass"]
    counted = [r["instances"] for r in rep["results"] if r["class"] != "UNVALIDATED"]
    assert sum(counted) == len(pairs)
    assert len(seen) == len(set(seen)) == len(set(pairs)) < len(pairs)


def test_validate_catalog_failure_fans_out_to_every_instance(monkeypatch):
    # R17 at u = v = 1 and R18 at u = v = 1, mirrored, are the same pair
    letter = (0, 1, 1)
    X = sym("X", letter, 1)
    bad = (GroupWord.of(sym("X", letter, 2)), GroupWord.of(X, X))
    r17 = build_instance("R17", {"u": 1, "v": 1}, letter)
    r18 = mirror_relation(build_instance("R18", {"u": 1, "v": 1}, letter))
    assert _expanded_pair(r17) == _expanded_pair(r18) == bad

    before = validate_catalog(SWEEP_CFG, samples=SWEEP_SAMPLES, suite="adjoint")
    monkeypatch.setattr(P, "validate_adjoint", lambda inst, cfg: (
        _expanded_pair(inst) != bad and validate_adjoint(inst, cfg)))
    after = validate_catalog(SWEEP_CFG, samples=SWEEP_SAMPLES, suite="adjoint")
    assert before["all_pass"] and not after["all_pass"]
    failed = {"index": letter, "params": {"u": "1", "v": "1"}}
    for row_before, row_after in zip(before["results"], after["results"]):
        if row_before["id"] in ("R17", "R18"):
            row_before = {**row_before, "failures": [failed], "pass": False}
        assert row_after == row_before


def test_one_symbol_sides_reuse_their_own_forms():
    # every side of at most one symbol in the default sweep, the empty
    # word and the lowering Y(-1;u) included: once all are cached, each
    # reads back the forms of its own fresh realization
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    sides = list(dict.fromkeys(
        w for inst in _sweep_instances(cfg, P.DEFAULT_SAMPLES) if inst.klass == "ADJOINT"
        for w in _expanded_pair(inst) if len(w) <= 1))
    assert GroupWord() in sides
    assert GroupWord.of(sym("Y", -1, Fraction(1, 2))) in sides
    cached = [P._side_forms(w, cfg) for w in sides]
    for w, forms in zip(sides, cached):
        assert P._side_forms(w, cfg) is forms
        assert type(forms) is list
        assert forms == realize_word(w, cfg)._generator_forms(), format_word(w)


def test_one_symbol_side_forms_are_per_window():
    # one word, two windows of the same degree bound: each gets its own
    # window's forms, whichever window is asked first
    default = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    wide = SupportConfig(cli.DEFAULT_N, {1: 3, 2: 3, 3: 2})
    w = GroupWord.of(sym("X", (0, 1, 1), 2))
    for order in ((default, wide), (wide, default)):
        monster.clear_caches()
        got = {cfg: P._side_forms(w, cfg) for cfg in order}
        for cfg in order:
            assert got[cfg] == realize_word(w, cfg)._generator_forms()
    assert len(got[default]) == 14 and len(got[wide]) == 20


def test_validate_adjoint_verdicts_survive_clear_caches(monkeypatch):
    # a long side whose lowering atoms clamp its first steps above N,
    # against a cached one-symbol side: the same verdicts before and
    # after a clear
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    letter = (0, 1, 2)
    comm = commutator(GroupWord.of(sym("Y", -1, 1)), GroupWord.of(sym("X", letter, 1)))
    pairs = [(comm, GroupWord()), (comm, GroupWord.of(sym("X", letter, 1)))]
    insts = [P.RelationInstance("R20", "ADJOINT", lhs, rhs, letter, {}) for lhs, rhs in pairs]
    passes = []
    real_pass = completion.TruncAut._pass

    def recording(g, block, bounds):
        bounds = list(islice(bounds, len(g._steps)))
        if g.word:
            passes.append((len(g.word), bounds[0], bounds[-1]))
        return real_pass(g, block, bounds)

    monkeypatch.setattr(completion.TruncAut, "_pass", recording)
    before = [validate_adjoint(inst, cfg) for inst in insts]
    # comm is realized once per verdict, and each time its generator
    # block takes one pass: Y(-1;1), applied last, is clamped at 12 so as
    # to stay exact through N = 9, and the steps up to Y(-1;-1) at 15
    assert [p for p in passes if p[0] == len(comm)] == [(len(comm), 15, 12)] * 2
    monster.clear_caches()
    after = [validate_adjoint(inst, cfg) for inst in insts]
    assert before == after == [True, False]


def test_r16_brackets_only_the_pairs_it_reads(monkeypatch):
    # every ordered letter pair but a letter against itself is either
    # checked or reported, so only those are bracketed
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    pairs = []
    real = monster.bracket
    monkeypatch.setattr(monster, "bracket", lambda a, b: pairs.append((a, b)) or real(a, b))
    row = P._shadow_check_r16(cfg)
    n = len(list(cfg.letters()))
    assert len(pairs) == n * n - n == 72
    assert row["instances"] + len(row["adjacent_unconstrained"]) == len(pairs)


def test_validate_catalog_small_sweep():
    cfg = SupportConfig(7, {1: 1, 2: 1})
    rep = validate_catalog(cfg, samples=(1, -1), suite="all")
    assert rep["all_pass"]
    ids = [r["id"] for r in rep["results"]]
    assert ids == [f"R{i}" for i in range(1, 36)]
    r16 = [r for r in rep["results"] if r["id"] == "R16"][0]
    assert r16["status"] == "supported, not validated"


def test_validate_catalog_passes_at_generic_parameters():
    # three samples of height about 10^9, one negative: the keyed symbols'
    # (numerator, denominator) keys and their inverse spellings (X(u)^-1
    # at -u, H1(s)^-1 at 1/s with the sign on the numerator) meet large
    # and negative values, and every relation still holds
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    samples = (Fraction(1234567891, 987654323), Fraction(-2718281829, 3141592653),
               Fraction(1618033989, 1414213563))
    monster.clear_caches()
    rep = validate_catalog(cfg, samples)
    assert rep["all_pass"]
    assert sum(r["instances"] for r in rep["results"]) == 1132


def test_validate_catalog_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'foo'"):
        validate_catalog(SupportConfig(4, {1: 1}), suite="foo")


def test_free_separation_distinguishes():
    a = GroupWord.of(sym("X", (0, 1, 1), 1))
    b = GroupWord.of(sym("X", (0, 2, 1), 1))
    words = [a, b, a * b, b * a, commutator(a, b)]
    rep = free_separation_test(words, SupportConfig(10, {1: 1, 2: 1}))
    assert rep["pass"] and rep["distinct"] == 5


def test_free_separation_detects_collision():
    a = GroupWord.of(sym("X", (0, 1, 1), 1))
    same = GroupWord.of(sym("X", (0, 1, 1), Fraction(2, 2)))
    rep = free_separation_test([a, same], CFG)
    assert not rep["pass"]
    assert rep["distinct"] == 1


def _composed_realization(w, cfg):
    """realize_word as a product of one TruncAut per symbol, inverted
    where the exponent is -1: the construction realize_word replaces."""
    auts = []
    for s, e in expand_weyl(w).factors:
        if s.kind == "X":
            x = (MonsterElt.e_minus(s.param) if s.index == -1
                 else MonsterElt.e_letter(*s.index, c=s.param))
            a = exp_ad(x, cfg)
        elif s.kind == "Y":
            a = exp_ad(MonsterElt.f_minus(s.param), cfg)
        elif s.kind == "H1":
            a = torus(s.param, 1, cfg)
        else:
            a = torus(1, s.param, cfg)
        auts.append(invert(a) if e == -1 else a)
    return compose(*auts) if auts else TruncAut.identity(cfg)


def test_realize_word_builds_parent_word():
    W = GroupWord.of
    X = sym("X", (1, 2, 1), Fraction(-2, 3))
    words = [
        GroupWord(),
        W(sym("X", -1, 2), X, sym("Y", -1, Fraction(1, 2))),
        W(sym("H1", None, Fraction(3, 2)), sym("H2", None, -2)),
        W(sym("W", -1, Fraction(-1, 2)), sym("W", -1, 1)).inverse(),
        W(sym("H1", None, 2), X, sym("W", -1, 1)).inverse() * W(sym("Y", -1, 3)),
        W(sym("X", (0, 1, 1), 0)),
    ]
    for w in words:
        got = realize_word(w, CFG)
        want = _composed_realization(w, CFG)
        assert (got.N, got.cfg) == (want.N, want.cfg)
        assert len(got.word) == len(want.word) == len(expand_weyl(w))
        for a, b in zip(got.word, want.word):
            assert a[0] == b[0]
            if a[0] == "exp":
                assert (a[1].terms, a[1].exact_to) == (b[1].terms, b[1].exact_to)
                assert a[2:] == b[2:]
            else:
                assert a == b and all(type(p) is Fraction for p in a[1:])


@pytest.mark.parametrize("kind, index, e", [("H1", None, -1), ("W", -1, 1), ("W", -1, -1)],
                         ids=["H1-inverse", "W", "W-inverse"])
def test_realize_word_refuses_hand_built_zero_parameter(kind, index, e):
    # a GenSymbol built directly, not through sym, meets the word's check
    s = P.GenSymbol(kind, index, Fraction(0))
    with pytest.raises(ValueError, match=f"{kind} parameter must be nonzero"):
        realize_word(GroupWord([(s, e)]), CFG)


def test_validate_sl2_refuses_hand_built_zero_w():
    s = P.GenSymbol("W", -1, Fraction(0))
    with pytest.raises(ValueError, match="W parameter must be nonzero"):
        validate_sl2(P.RelationInstance("R9", "SL2", GroupWord([(s, 1)]), GroupWord(), -1, {}))


def test_mirror_inverts_a_torus_parameter_exactly():
    # a GenSymbol built directly with an int parameter mirrors to the
    # exact reciprocal, and the realized torus atom carries it
    s = P.GenSymbol("H1", None, 3)
    m = oracles.mirror_symbol(s)
    assert m == P.GenSymbol("H1", None, Fraction(1, 3)) and type(m.param) is Fraction
    w = mirror_word(GroupWord.of(s))
    assert realize_word(w, CFG).word == (("torus", Fraction(1, 3), Fraction(1)),)


@pytest.mark.parametrize("kind, index", [("H1", None), ("X", -1), ("W", (0, 1, 1))])
def test_group_word_refuses_a_float_parameter(kind, index):
    with pytest.raises(ValueError, match=f"{kind} parameter must be exact"):
        GroupWord.of(P.GenSymbol(kind, index, 1 / 3))


@pytest.mark.parametrize("make", [
    lambda: MonsterElt({"h1": 0.1}),
    lambda: 0.5 * MonsterElt.h1(),
    lambda: torus(0.1, 2, CFG),
    lambda: sym("X", -1, 0.1),
    lambda: build_instance("R1", {"u": 0.1, "v": 1}),
    lambda: validate_catalog(CFG, samples=(0.1,)),
], ids=["MonsterElt", "scaled", "torus", "sym", "build_instance", "validate_catalog"])
def test_library_entry_points_refuse_a_float(make):
    # a float is not exact: no entry point turns 0.1 into a binary fraction
    with pytest.raises(ValueError, match="must be exact, got the float"):
        make()


def test_keyed_symbol_is_per_window():
    # a symbol keyed on a wide window still meets the narrow window's
    # support check, with the error a fresh realization raises
    wide = SupportConfig(cli.DEFAULT_N, {1: 3, 2: 3, 3: 2})
    w = GroupWord.of(sym("X", (0, 2, 3), 1))
    assert len(realize_word(w, wide).word) == 1
    with pytest.raises(monster.SupportError) as cached:
        realize_word(w, CFG)
    monster.clear_caches()
    with pytest.raises(monster.SupportError) as fresh:
        realize_word(w, CFG)
    assert str(cached.value) == str(fresh.value)


def test_keyed_symbols_survive_clear_caches():
    # the same word realized on either side of a clear: identical
    # generator forms, and equal both ways
    letter = (0, 1, 2)
    w = (GroupWord.of(sym("X", letter, 2), sym("H1", None, 3), sym("Y", -1, Fraction(1, 2)))
         * GroupWord.of(sym("X", -1, 1), sym("H2", None, -2)).inverse())
    before = realize_word(w, CFG)
    monster.clear_caches()
    after = realize_word(w, CFG)
    assert before._generator_forms() == after._generator_forms()
    assert before.equal(after) and after.equal(before)


def test_repeated_symbol_shares_one_atom():
    # a symbol and its inverse spelling (X(u)^-1 as X(-u), H1(s)^-1 as
    # H1(1/s)) are one atom object, in one word and across words
    x, h = sym("X", (0, 1, 1), Fraction(2, 3)), sym("H1", None, 2)
    g = realize_word(GroupWord.of(x, h, x), CFG)
    assert g.word[0] is g.word[2]
    inv = realize_word(GroupWord([(x, -1), (h, -1)]), CFG)
    same = realize_word(GroupWord.of(sym("X", (0, 1, 1), Fraction(-2, 3)),
                                     sym("H1", None, Fraction(1, 2))), CFG)
    assert all(a is b for a, b in zip(inv.word, same.word))
    assert realize_word(GroupWord.of(x), CFG).word[0] is g.word[0]


def test_inverse_words_match_atom_inversion():
    # w^-1 realized symbol by symbol, each keyed as its inverse symbol,
    # has the atoms oracles.invert builds from w's realization atom by
    # atom, and the symbol memo's slots; w(l,j,k;s) alone leaves an
    # imaginary Y, so it is taken with the neighbours that cancel that Y
    q = Fraction(-2, 3)
    v = Fraction(-1) / (q * c_const(0, 2))
    W = GroupWord.of
    words = [W(sym("X", -1, q)), W(sym("X", (1, 2, 1), q)), W(sym("Y", -1, Fraction(3, 2))),
             W(sym("H1", None, -2)), W(sym("H1", None, q)), W(sym("H2", None, -3)),
             W(sym("H2", None, Fraction(1, 5))), W(sym("W", -1, q)),
             GroupWord([(sym("W", (0, 2, 1), q), 1), (sym("X", (0, 2, 1), q), -1),
                        (sym("Y", (0, 2, 1), v), -1)]),
             cli.parse_word("w(-1;1)X(0,2,1;1/2)w(-1;1)^-1Y(-1;1)X(1,2,1;1)Y(-1;-1)")]
    for w in words:
        got, want = realize_word(w.inverse(), CFG), invert(realize_word(w, CFG))
        assert got.word == want.word, format_word(w)
        again = realize_word(w.inverse(), CFG)
        assert all(a is b for (_, a), (_, b) in zip(got._steps, again._steps, strict=True))


def test_relcheck_work_is_pinned(monkeypatch):
    # the default relcheck realizes 1,661 words, decides 1,380 distinct
    # adjoint pairs, expands only the 1,661 realized words (MIRROR ones
    # are built mirrored) and keys 228 words, each of 228 one-symbol words
    # once per window, as every other realized word is their product (the
    # empty word their empty product); a change in this work shows here
    calls = {"realize_word": 0, "validate_adjoint": 0, "expand_weyl": 0, "_keyed_word": 0}
    for module, name in ((P, "realize_word"), (P, "validate_adjoint"), (P, "expand_weyl"),
                         (completion, "_keyed_word")):
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    monster.clear_caches()
    cfg = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    assert validate_catalog(cfg)["all_pass"]
    assert calls == {"realize_word": 1661, "validate_adjoint": 1380, "expand_weyl": 1661,
                     "_keyed_word": 228}
