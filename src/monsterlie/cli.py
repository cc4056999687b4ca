"""Command-line front end.

Subcommands: jcoef, dims, bracket, aut (apply|compose|log|level|approx),
relcheck, permaut, numerology.  All reports are JSON with sorted keys
and rationals rendered as strings, so output is byte-deterministic for
a fixed configuration.

Configuration is resolved in three layers: built-in defaults, then a
flat key=value file (--config, or the MONSTERLIE_CONFIG environment
variable), then command-line flags.  File keys: n, cap.<j>, samples,
suite, output.  Example:

    n = 9
    cap.1 = 2
    cap.2 = 2
    cap.3 = 1
    samples = 1,-1,2,-2,1/2

Exit codes: 0 all checks passed, 1 a validation suite reported
failures (witnesses are in the JSON), 2 usage or configuration error.
A ValueError from the library is reported as "error: <message>" with exit 2;
faults (RuntimeError, ArithmeticError, AssertionError, RecursionError) are not.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from math import inf

from . import completion, freelie, monster, permaut, presentation
from .indices import SupportConfig
from .monster import MonsterElt
from .presentation import DEFAULT_SAMPLES, GroupWord, sym
from .qseries import j_coefficients


class CliError(ValueError):
    """Usage or configuration problem; maps to exit code 2."""


class ParseError(CliError):
    def __init__(self, text: str, pos: int, msg: str):
        super().__init__(f"{msg} at position {pos}: {text[:pos]!r} >><< {text[pos:]!r}")
        self.pos = pos


# ---------------------------------------------------------------------------
# configuration

DEFAULT_N = 9
DEFAULT_CAPS = {1: 2, 2: 2, 3: 1}
ENV_CONFIG = "MONSTERLIE_CONFIG"


class Config:
    """A resolved configuration: window is the one SupportConfig (truncation
    degree n and per-level caps) every command computes in."""

    __slots__ = ("window", "samples", "suite", "output")

    def __init__(self, N=DEFAULT_N, caps=None, samples=DEFAULT_SAMPLES,
                 suite="all", output=None):
        if N < 1:
            raise CliError("truncation n must be >= 1")
        self.window = SupportConfig(int(N), dict(caps if caps is not None else DEFAULT_CAPS))
        self.samples = tuple(Fraction(s) for s in samples)
        self.suite = suite
        self.output = output


def _parse_rational_str(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"bad rational {text!r}: {e}")


def _parse_samples(text: str) -> tuple:
    vals = [_parse_rational_str(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise CliError("empty sample list")
    if not any(vals):
        # multiplicative parameters drop 0, so those families would run nothing
        raise CliError("sample list needs a nonzero value")
    return tuple(vals)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{what} must be an integer, got {text!r}")


def load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    out: dict = {"caps": {}}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read config file {path}: not valid UTF-8 "
                       f"(byte {e.start})")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                _read_config_line(line, out)
            except CliError as e:
                raise CliError(f"{path}:{ln}: {e}")
    return out


def _read_config_line(line: str, out: dict) -> None:
    if "=" not in line:
        raise CliError("expected key = value")
    key, val = (x.strip() for x in line.split("=", 1))
    if key == "n":
        out["N"] = _parse_int(val, "n")
    elif key.startswith("cap."):
        level = _parse_int(key[4:], "cap level")
        out["caps"][level] = _parse_int(val, key)
    elif key == "samples":
        out["samples"] = _parse_samples(val)
    elif key == "suite":
        if val not in presentation.SUITES:
            raise CliError(f"unknown suite {val!r}")
        out["suite"] = val
    elif key == "output":
        out["output"] = val
    else:
        raise CliError(f"unknown key {key!r}")


def resolve_config(args) -> Config:
    layers: dict = {}
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        file_vals = load_config_file(path)
        caps = file_vals.pop("caps", {})
        layers.update(file_vals)
        if caps:
            layers["caps"] = {**DEFAULT_CAPS, **caps}
    if getattr(args, "n", None) is not None:
        layers["N"] = args.n
    if getattr(args, "cap", None):
        caps = dict(layers.get("caps", DEFAULT_CAPS))
        for cap_item in args.cap:
            m = re.fullmatch(r"\s*(\d+)\s*=\s*(\d+)\s*", cap_item)
            if not m:
                raise CliError(f"bad --cap {cap_item!r}; expected j=count")
            caps[int(m.group(1))] = int(m.group(2))
        layers["caps"] = caps
    if getattr(args, "samples", None) is not None:
        layers["samples"] = _parse_samples(args.samples)
    if getattr(args, "suite", None):
        layers["suite"] = args.suite
    if getattr(args, "output", None):
        layers["output"] = args.output
    return Config(**layers)


# ---------------------------------------------------------------------------
# element parser

_INT_RE = re.compile(r"-?\d+")
_RAT_RE = re.compile(r"-?\d+(?:/\d+)?")


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, lit: str) -> bool:
        self.skip_ws()
        return self.text.startswith(lit, self.pos)

    def eat(self, lit: str) -> bool:
        if self.peek(lit):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.eat(lit):
            raise ParseError(self.text, self.pos, f"expected {lit!r}")

    def regex(self, rx, what: str) -> str:
        self.skip_ws()
        m = rx.match(self.text, self.pos)
        if not m:
            raise ParseError(self.text, self.pos, f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, msg: str):
        raise ParseError(self.text, self.pos, msg)


def _rational(cur: _Cursor) -> Fraction:
    tok = cur.regex(_RAT_RE, "rational number")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        cur.fail("zero denominator")


def _int(cur: _Cursor) -> int:
    return int(cur.regex(_INT_RE, "integer"))


def _letter_index(cur: _Cursor, cfg: SupportConfig | None, caller: str):
    """Parse "-1" or "l,j,k" after an e/f/X/Y/w head, inside parens."""
    save = cur.pos
    first = _int(cur)
    if not cur.peek(","):
        if first == -1:
            return -1
        cur.pos = save
        cur.fail(f"{caller}: index must be -1 or l,j,k")
    cur.expect(",")
    j = _int(cur)
    cur.expect(",")
    k = _int(cur)
    l = first
    if l < 0 or j < 1 or k < 1 or l >= j:
        cur.pos = save
        cur.fail(f"{caller}: need 0 <= l < j and k >= 1, got ({l},{j},{k})")
    if cfg is not None and not cfg.supports_letter((j, k, l)):
        cur.pos = save
        cur.fail(f"{caller}: index ({l},{j},{k}) outside configured support")
    return (l, j, k)


def _elem_atom(cur: _Cursor, cfg) -> MonsterElt:
    if cur.eat("h1"):
        return MonsterElt.h1()
    if cur.eat("h2"):
        return MonsterElt.h2()
    for head, real, letter in (("e", MonsterElt.e_minus, MonsterElt.e_letter),
                               ("f", MonsterElt.f_minus, MonsterElt.f_letter)):
        if cur.peek(head + "("):
            cur.eat(head)
            cur.expect("(")
            idx = _letter_index(cur, cfg, head)
            cur.expect(")")
            if idx == -1:
                return real()
            l, j, k = idx
            return letter(l, j, k)
    if cur.eat("["):
        a = _elem_body(cur, cfg)
        cur.expect(",")
        b = _elem_body(cur, cfg)
        cur.expect("]")
        return monster.bracket(a, b, cfg)
    cur.fail("expected h1, h2, e(...), f(...), or [elem,elem]")


def _elem_term(cur: _Cursor, cfg) -> MonsterElt:
    cur.skip_ws()
    save = cur.pos
    if _RAT_RE.match(cur.text, cur.pos):
        c = _rational(cur)
        if cur.eat("*"):
            return _elem_atom(cur, cfg).scaled(c)
        cur.pos = save
    return _elem_atom(cur, cfg)


def _elem_body(cur: _Cursor, cfg) -> MonsterElt:
    neg = cur.eat("-")
    acc = _elem_term(cur, cfg)
    if neg:
        acc = -acc
    while True:
        if cur.eat("+"):
            acc = acc + _elem_term(cur, cfg)
        elif cur.eat("-"):
            acc = acc - _elem_term(cur, cfg)
        else:
            return acc


def parse_elem(text: str, cfg: SupportConfig | None = None) -> MonsterElt:
    cur = _Cursor(text)
    try:
        out = _elem_body(cur, cfg)
    except RecursionError:
        raise CliError("expression nested too deeply") from None
    if not cur.at_end():
        cur.fail("trailing input")
    return out


# ---------------------------------------------------------------------------
# group word parser

_SYMBOL_HEADS = ("H1", "H2", "X", "Y", "w")


def _word_symbol(cur: _Cursor) -> GroupWord | None:
    """The generator symbol at the cursor, or None if no symbol head is there."""
    for head in _SYMBOL_HEADS:
        if not cur.peek(head + "("):
            continue
        cur.eat(head)
        cur.expect("(")
        if head in ("H1", "H2"):
            s = _rational(cur)
            cur.expect(")")
            if s == 0:
                cur.fail(f"{head} parameter must be nonzero")
            return GroupWord.of(sym(head, None, s))
        idx = _letter_index(cur, None, head)
        cur.expect(";")
        u = _rational(cur)
        cur.expect(")")
        if head == "w" and u == 0:
            cur.fail("w parameter must be nonzero")
        kind = {"X": "X", "Y": "Y", "w": "W"}[head]
        return GroupWord.of(sym(kind, idx, u))
    return None


def _word_primary(cur: _Cursor) -> GroupWord:
    w = _word_symbol(cur)
    if w is not None:
        return w
    if cur.eat("("):
        a = _word_body(cur)
        if cur.eat(","):
            b = _word_body(cur)
            cur.expect(")")
            return presentation.commutator(a, b)
        cur.expect(")")
        return a
    cur.fail("expected generator symbol or '('")


def _word_factor(cur: _Cursor) -> GroupWord:
    w = _word_primary(cur)
    while cur.peek("^"):
        cur.eat("^")
        cur.expect("-1")
        w = w.inverse()
    return w


def _word_body(cur: _Cursor) -> GroupWord:
    acc = _word_factor(cur)
    while True:
        cur.skip_ws()
        if cur.at_end() or cur.peek(")") or cur.peek(","):
            return acc
        acc = acc * _word_factor(cur)


def parse_word(text: str) -> GroupWord:
    cur = _Cursor(text)
    if cur.at_end() or text.strip() == "1":
        return GroupWord()
    try:
        out = _word_body(cur)
    except RecursionError:
        raise CliError("group word nested too deeply") from None
    if not cur.at_end():
        cur.fail("trailing input")
    return out


def realize(text: str, cfg: SupportConfig):
    return presentation.realize_word(parse_word(text), cfg)


# ---------------------------------------------------------------------------
# report helpers

def elem_json(x: MonsterElt) -> dict:
    return {"normal_form": monster.format_elt(x),
            "terms": [[monster.format_term(k), str(x.terms[k])]
                      for k in sorted(x.terms, key=monster.key_sort)],
            "exact_to": x.exact_to if x.exact_to < inf else None}


def emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"cannot write {output}: {e.strerror}")
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_jcoef(args, cfg: Config):
    if args.nmax < -1:
        raise CliError("--nmax must be >= -1")
    coef = j_coefficients(args.nmax)
    rows = [[str(n), str(coef[n])] for n in sorted(coef)]
    return 0, {"nmax": args.nmax, "coefficients": rows}


def cmd_dims(args, cfg: Config):
    D = args.degree
    if D < 1:
        raise CliError("--degree must be >= 1")
    if args.symbolic:
        coef = j_coefficients(max(D - 2, -1))
        mult = {}
        for a in range(1, D // 2 + 1):
            for b in range(1, D - 2 * a + 1):
                c = coef.get(a + b - 1, 0)
                if c:
                    mult[(a, b)] = c
        mode = "symbolic"
    else:
        letters = SupportConfig(D, cfg.window.caps).letters()  # caps checked up to --degree
        mult = Counter((l + 1, j - l) for j, _k, l in letters)
        mode = "capped"
    dims = freelie.witt_root_dimensions(mult, D)
    rows = [[r[0], r[1], str(dims[r])]
            for r in sorted(dims, key=lambda r: (2 * r[0] + r[1], r[0]))]
    totals: dict = {}
    for r, v in dims.items():
        d = 2 * r[0] + r[1]
        totals[d] = totals.get(d, 0) + v
    return 0, {"degree": D, "mode": mode,
               "roots": rows,
               "by_degree": [[str(d), str(totals[d])] for d in sorted(totals)]}


def cmd_bracket(args, cfg: Config):
    x = parse_elem(args.expr, cfg.window)
    return 0, {"expr": args.expr, "result": elem_json(x)}


def cmd_aut(args, cfg: Config):
    sup = cfg.window
    op = args.aut_op
    if op == "apply":
        g = realize(args.word, sup)
        x = parse_elem(args.elem, sup)
        img = g.apply(x)
        img = img.truncated_above(img.exact_to)  # terms above exact_to are not certified
        return 0, {"word": args.word, "element": args.elem,
                   "image": elem_json(img)}
    if op == "compose":
        auts = [realize(w, sup) for w in args.word]
        g = completion.compose(*auts)
        return 0, {"words": list(args.word), "composite": g.report_dict()}
    if op == "log":
        g = realize(args.word, sup)
        x = completion.log_unipotent(g)
        return 0, {"word": args.word, "log": elem_json(x)}
    if op == "level":
        g = realize(args.word, sup)
        lv = completion.filtration_level(g)
        return 0, {"word": args.word, "level": lv.level,
                   "window_limited": lv.window_limited}
    # op == "approx": argparse admits no other operation
    depth = args.depth if args.depth is not None else sup.degree_bound
    if depth < 0:
        raise CliError("--depth must be >= 0")
    g = realize(args.word, sup)
    word = completion.approximate_by_generators(g, depth)
    h = presentation.realize_word(word, sup)
    ok = completion.equal_mod_level(g, h, depth)
    rep = {"word": args.word, "depth": depth,
           "approximation": presentation.format_word(word),
           "verified": ok}
    return (0 if ok else 1), rep


def cmd_relcheck(args, cfg: Config):
    rep = presentation.validate_catalog(cfg.window, cfg.samples, cfg.suite)
    return (0 if rep["all_pass"] else 1), rep


def cmd_permaut(args, cfg: Config):
    sigma = permaut.SparsePerm.from_cycles(args.level, args.cycles)
    rep = permaut.perm_report(sigma, cfg.window, verify=args.verify)
    return (0 if rep["pass"] else 1), rep


def cmd_numerology(args, cfg: Config):
    rep = permaut.numerology_check()
    return (0 if rep["pass"] else 1), rep


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--n", type=int, help="truncation degree")
    common.add_argument("--cap", action="append", metavar="J=COUNT",
                        help="index cap at one level (repeatable)")
    common.add_argument("--samples", help="comma-separated rational samples")
    common.add_argument("--output", help="write the JSON report to this path")

    ap = argparse.ArgumentParser(
        prog="monsterlie",
        description="Exact computational kernel for the monster Lie algebra, "
                    "its completed automorphisms, and the presented group.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("jcoef", parents=[common],
                       help="modular coefficients c(n)")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(fn=cmd_jcoef)

    p = sub.add_parser("dims", parents=[common],
                       help="graded dimensions of the positive free part")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--symbolic", action="store_true",
                   help="use full modular multiplicities instead of the capped alphabet")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("bracket", parents=[common],
                       help="evaluate an algebra expression to normal form")
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("aut", help="automorphism operations")
    asub = p.add_subparsers(dest="aut_op", required=True)
    q = asub.add_parser("apply", parents=[common])
    q.add_argument("--word", required=True)
    q.add_argument("--elem", required=True)
    q = asub.add_parser("compose", parents=[common])
    q.add_argument("--word", action="append", required=True)
    q = asub.add_parser("log", parents=[common])
    q.add_argument("--word", required=True)
    q = asub.add_parser("level", parents=[common])
    q.add_argument("--word", required=True)
    q = asub.add_parser("approx", parents=[common])
    q.add_argument("--word", required=True)
    q.add_argument("--depth", type=int)
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("relcheck", parents=[common],
                       help="validate the relation catalog")
    p.add_argument("--suite", choices=presentation.SUITES)
    p.set_defaults(fn=cmd_relcheck)

    p = sub.add_parser("permaut", parents=[common],
                       help="index-permutation automorphism report")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--cycles", default="()")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_permaut)

    p = sub.add_parser("numerology", parents=[common],
                       help="ambient permutation-degree checks")
    p.set_defaults(fn=cmd_numerology)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = resolve_config(args)
        code, report = args.fn(args, cfg)
        emit(report, cfg.output)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
