import json
import subprocess
import sys

import pytest

from monsterlie import cli, completion, monster, presentation
from monsterlie.cli import main, parse_elem, parse_word
from monsterlie.indices import SupportConfig
from monsterlie.presentation import GroupWord, format_word, sym


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_jcoef_table(capsys):
    rep = run_json(capsys, "jcoef", "--nmax", "3")
    assert rep["coefficients"] == [["-1", "1"], ["0", "0"], ["1", "196884"],
                                   ["2", "21493760"], ["3", "864299970"]]


def test_bracket_gl2_pair(capsys):
    rep = run_json(capsys, "bracket", "--expr", "[e(-1),f(-1)]")
    assert rep["result"]["normal_form"] == "1*h1 - 1*h2"


def test_bracket_imaginary_pair(capsys):
    rep = run_json(capsys, "bracket", "--expr", "[e(0,1,1),f(0,1,1)]")
    assert rep["result"]["normal_form"] == "-1*h1 - 1*h2"


def test_bracket_string_action(capsys):
    # two raising steps up a length-3 string
    rep = run_json(capsys, "bracket", "--expr", "1/2*[e(-1),[e(-1),e(0,3,1)]]")
    assert rep["result"]["normal_form"] == "1*e(2,3,1)"
    # same shape on a length-2 string falls off the end
    rep = run_json(capsys, "bracket", "--expr", "1/2*[e(-1),[e(-1),e(0,2,1)]]")
    assert rep["result"]["normal_form"] == "0"


def test_elem_parser_roundtrip():
    cfg = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    for text in ("1*h1 - 1*h2", "1*f(-1) - 3/2*e(0,1,1)",
                 "2*h2 + 1*e(2,3,1) - 1/7*f(1,2,2)"):
        x = parse_elem(text, cfg)
        assert monster.format_elt(x) == text
        assert parse_elem(monster.format_elt(x), cfg) == x


def test_elem_parser_whitespace_and_nesting():
    cfg = SupportConfig(9, {1: 2, 2: 2, 3: 1})
    a = parse_elem(" [ h1 , e(-1) ] + 2*e(-1) ", cfg)
    b = parse_elem("3*e(-1)", cfg)
    assert a == b


def test_word_parser_roundtrip():
    for text in ("X(-1;3/2)H1(2)Y(0,1,1;1)^-1", "w(0,2,1;1)",
                 "H2(-1/3)X(1,2,1;-2)", "1"):
        w = parse_word(text)
        assert format_word(w) == text
        assert parse_word(format_word(w)) == w


def test_word_parser_commutator_and_parens():
    a = GroupWord.of(sym("X", (0, 1, 1), 1))
    b = GroupWord.of(sym("X", (0, 2, 1), 1))
    assert parse_word("(X(0,1,1;1), X(0,2,1;1))") == presentation.commutator(a, b)
    assert parse_word("(X(0,1,1;1)X(0,2,1;1))^-1") == (a * b).inverse()
    assert parse_word("X(0,1,1;1)X(0,1,1;1)^-1") == GroupWord()


def test_syntax_error_exit_2(capsys):
    code, out, err = run(capsys, "bracket", "--expr", "h1 +")
    assert code == 2 and "error:" in err and ">><<" in err


def test_deeply_nested_input_exit_2(capsys):
    expr = "h1"
    for _ in range(400):
        expr = f"[{expr},h1]"
    word = "(" * 600 + "X(-1;1)" + ")" * 600
    for argv in (("bracket", "--expr", expr), ("aut", "level", "--word", word)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err and out == ""


def test_unsupported_index_exit_2(capsys):
    code, out, err = run(capsys, "bracket", "--expr", "e(0,9,1)")
    assert code == 2 and "error:" in err


def test_unsupported_word_index_exit_2(capsys):
    # level 9 has no index at the default caps; the word must be refused
    # like the element parser refuses e(0,9,1)
    code, out, err = run(capsys, "aut", "apply", "--word", "X(0,9,1;1)",
                         "--elem", "h1")
    assert code == 2 and "error:" in err and out == ""


def test_unrealizable_word_exit_2(capsys):
    code, out, err = run(capsys, "aut", "apply", "--word", "Y(0,1,1;1)",
                         "--elem", "h1")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv, named", [
    (("aut", "log", "--word", "w(0,1,1;1)"), "w(0,1,1;1)"),
    (("aut", "apply", "--word", "X(0,1,1;1)w(0,1,1;2)^-1", "--elem", "h1"), "w(0,1,1;2)"),
    (("aut", "apply", "--word", "Y(0,1,1;1)", "--elem", "h1"), "Y(0,1,1;1)"),
    # before the window error of a letter outside it, its own or another symbol's
    (("aut", "apply", "--word", "w(0,9,1;1)", "--elem", "h1"), "w(0,9,1;1)"),
    (("aut", "apply", "--word", "X(0,9,1;1)Y(0,1,1;1)", "--elem", "h1"), "Y(0,1,1;1)"),
])
def test_unrealizable_symbol_named_as_written(capsys, argv, named):
    # a Weyl symbol is named as the user wrote it, not by the Y of its
    # expansion, and an unrealizable symbol is named before any window error
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} has no action on the positive completion\n"


def test_weyl_words_realize_to_the_same_atoms(capsys):
    # the expansion's Y(0,1,1;1) cancels against the written one, so the
    # first word is realizable; both words keep their atoms
    rep = run_json(capsys, "aut", "compose", "--word", "Y(0,1,1;1)^-1X(0,1,1;1)^-1w(0,1,1;1)",
                   "--word", "w(-1;2)^-1H1(2)")
    assert rep["composite"]["word"] == ["exp(1*e(0,1,1))", "exp(-2*e(-1))", "exp(1/2*f(-1))",
                                        "exp(-2*e(-1))", "torus(2,1)"]


def test_relcheck_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.presentation, "validate_catalog",
                        lambda *a, **k: {"all_pass": False, "results": []})
    code, out, err = run(capsys, "relcheck", "--suite", "sl2")
    assert code == 1


def test_byte_determinism(capsys):
    _, out1, _ = run(capsys, "relcheck", "--suite", "sl2", "--n", "7",
                     "--cap", "1=1", "--cap", "2=1", "--cap", "3=0")
    _, out2, _ = run(capsys, "relcheck", "--suite", "sl2", "--n", "7",
                     "--cap", "1=1", "--cap", "2=1", "--cap", "3=0")
    assert out1 == out2 and out1.strip()


def test_config_file_env_and_flag_precedence(capsys, tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nn = 7\ncap.1 = 1\ncap.2 = 1\ncap.3 = 0\n"
                       "samples = 1,-1\nsuite = sl2\n")
    rep = run_json(capsys, "relcheck", "--config", str(cfgfile))
    assert rep["truncation"] == 7
    assert rep["caps"] == {"1": 1, "2": 1, "3": 0}
    assert rep["samples"] == ["1", "-1"]
    # environment variable picks up the same file
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfgfile))
    rep = run_json(capsys, "relcheck")
    assert rep["truncation"] == 7
    # flags outrank the file
    rep = run_json(capsys, "relcheck", "--n", "6", "--cap", "1=1",
                   "--samples", "2")
    assert rep["truncation"] == 6
    assert rep["caps"]["1"] == 1
    assert rep["samples"] == ["2"]


def test_config_file_suite_and_output_precedence(capsys, tmp_path):
    file_out, flag_out = tmp_path / "file.json", tmp_path / "flag.json"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"n = 4\nsamples = 1,-1\nsuite = sl2\noutput = {file_out}\n")
    code, out, err = run(capsys, "relcheck", "--config", str(cfgfile))
    assert (code, out, err) == (0, f"wrote {file_out}\n", "")
    assert json.loads(file_out.read_text())["results"][0]["id"] == "R29"
    # flags outrank both keys
    file_out.unlink()
    code, out, err = run(capsys, "relcheck", "--config", str(cfgfile),
                         "--suite", "adjoint", "--output", str(flag_out))
    assert (code, out, err) == (0, f"wrote {flag_out}\n", "")
    assert not file_out.exists()
    assert json.loads(flag_out.read_text())["results"][0]["id"] == "R1"


def test_relcheck_small_windows_pass(capsys):
    # R23/R24 are indexed only where the reversed letter (j-1-l, j, k) is
    # in the window too; at n = 4..6 some letters' reversals are not
    for n in ("4", "5", "6"):
        rep = run_json(capsys, "relcheck", "--n", n, "--samples", "1,-1")
        assert rep["all_pass"], n


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 3\n")
    code, out, err = run(capsys, "relcheck", "--config", str(bad))
    assert code == 2 and "unknown key" in err
    code, out, err = run(capsys, "relcheck", "--config", str(tmp_path / "nope"))
    assert code == 2


def test_all_zero_samples_exit_2(capsys, tmp_path):
    # families with multiplicative parameters drop 0, so an all-zero list
    # would run none of their instances and pass vacuously
    code, out, err = run(capsys, "relcheck", "--samples", "0")
    assert (code, out) == (2, "") and "nonzero" in err
    zero = tmp_path / "zero.cfg"
    zero.write_text("samples = 0, 0\n")
    code, out, err = run(capsys, "relcheck", "--config", str(zero))
    assert (code, out) == (2, "") and "nonzero" in err
    rep = run_json(capsys, "relcheck", "--suite", "sl2", "--n", "4", "--samples", "0,1")
    assert rep["samples"] == ["0", "1"] and rep["all_pass"]


def test_empty_samples_flag_exit_2(capsys):
    # an empty --samples is refused like an empty config line, not
    # replaced by the default samples
    code, out, err = run(capsys, "relcheck", "--samples", "")
    assert (code, out) == (2, "") and err.startswith("error: empty sample list")


def test_unreadable_config_exit_2(capsys, tmp_path, monkeypatch):
    # a directory and a file that is not UTF-8, named by the flag and by
    # the environment variable: exit 2 with a message, no traceback
    binary = tmp_path / "latin1.cfg"
    binary.write_bytes(b"n = 9  # caf\xe9\n")
    for path, why in ((tmp_path, "Is a directory"), (binary, "not valid UTF-8")):
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        code, out, err = run(capsys, "jcoef", "--nmax", "1", "--config", str(path))
        assert (code, out) == (2, "") and err.startswith("error: cannot read config file")
        assert why in err
        monkeypatch.setenv(cli.ENV_CONFIG, str(path))
        code, out, err = run(capsys, "jcoef", "--nmax", "1")
        assert (code, out) == (2, "") and why in err


def test_dims_symbolic(capsys):
    rep = run_json(capsys, "dims", "--degree", "4", "--symbolic")
    assert rep["mode"] == "symbolic"
    assert rep["roots"] == [[1, 1, "196884"], [1, 2, "21493760"]]
    assert rep["by_degree"] == [["3", "196884"], ["4", "21493760"]]


def test_dims_capped(capsys):
    rep = run_json(capsys, "dims", "--degree", "5")
    assert rep["mode"] == "capped"
    assert rep["roots"] == [[1, 1, "2"], [1, 2, "2"], [1, 3, "1"], [2, 1, "2"]]
    assert rep["by_degree"] == [["3", "2"], ["4", "2"], ["5", "3"]]


def test_dims_capped_counts_letters_above_truncation(capsys):
    # the level-5 letters sit at degrees 7 to 11, above the default n = 9:
    # --degree, not n, decides which letters count
    reps = [run_json(capsys, "dims", "--degree", "12", "--cap", "5=1", *n)
            for n in ((), ("--n", "12"))]
    assert reps[0] == reps[1]
    by_degree = dict(reps[0]["by_degree"])
    assert (by_degree["10"], by_degree["11"]) == ("18", "30")


def test_aut_apply(capsys):
    rep = run_json(capsys, "aut", "apply", "--word", "X(-1;1)",
                   "--elem", "f(-1)")
    assert rep["image"]["normal_form"] == "1*h1 - 1*h2 - 1*e(-1) + 1*f(-1)"


def test_aut_compose_inverse_pair(capsys):
    rep = run_json(capsys, "aut", "compose", "--word", "X(0,1,1;2)",
                   "--word", "X(0,1,1;-2)")
    sup = SupportConfig(cli.DEFAULT_N, cli.DEFAULT_CAPS)
    ident = completion.TruncAut.identity(sup).report_dict()
    assert rep["composite"]["images"] == json.loads(json.dumps(ident["images"]))


def test_aut_log(capsys):
    rep = run_json(capsys, "aut", "log", "--word", "X(0,1,1;2)")
    assert rep["log"]["normal_form"] == "2*e(0,1,1)"
    code, out, err = run(capsys, "aut", "log", "--word", "H1(2)")
    assert code == 2


def test_aut_level(capsys):
    rep = run_json(capsys, "aut", "level", "--word", "X(0,2,1;1)")
    assert rep["level"] == 4 and rep["window_limited"] is False
    rep = run_json(capsys, "aut", "level", "--word", "1")
    assert rep["level"] == cli.DEFAULT_N and rep["window_limited"] is True


def test_aut_approx(capsys):
    rep = run_json(capsys, "aut", "approx", "--word",
                   "X(0,1,1;1)X(0,2,1;-1/2)", "--depth", "8")
    assert rep["verified"] is True
    assert rep["approximation"].startswith("X(")


def test_permaut_command(capsys):
    rep = run_json(capsys, "permaut", "--level", "1", "--cycles", "(1 2)")
    assert rep["cycles"] == "(1 2)" and len(rep["assumptions"]) == 2
    rep = run_json(capsys, "permaut", "--level", "1", "--cycles", "(1 2)",
                   "--verify", "--n", "7", "--cap", "3=0")
    assert rep["pass"] and rep["preservation"]["pass"]
    code, out, err = run(capsys, "permaut", "--level", "1", "--cycles", "(1 9)")
    assert code == 2


def test_numerology_command(capsys):
    rep = run_json(capsys, "numerology")
    assert rep["pass"] and len(rep["checks"]) == 4


def test_output_file(capsys, tmp_path):
    dest = tmp_path / "out.json"
    code, out, err = run(capsys, "jcoef", "--nmax", "1", "--output", str(dest))
    assert code == 0 and "wrote" in out
    assert json.loads(dest.read_text())["nmax"] == 1


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_module_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "monsterlie.cli",
                           "jcoef", "--nmax", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficients"] == [["-1", "1"], ["0", "0"]]


def test_aut_apply_prints_only_certified_terms(capsys):
    # lowering and raising factors leave the image exact only through 9,
    # while the series reached higher degrees
    rep = run_json(capsys, "aut", "apply",
                   "--word", "X(1,3,1;2)Y(-1;1)Y(-1;1)X(0,1,2;-1)",
                   "--elem", "[e(0,1,1),e(0,2,1)]")
    img = rep["image"]
    assert img["exact_to"] == 9
    for name, _coef in img["terms"]:
        (key,) = parse_elem(name).terms
        assert monster.key_degree(key) <= 9, name


def test_bad_config_value_exit_2(capsys, tmp_path):
    # every file error names the file and the line
    for text, what in (("n = abc\n", "n must be an integer, got 'abc'"),
                       ("cap.x = 1\n", "cap level must be an integer"),
                       ("cap.1 = two\n", "cap.1 must be an integer"),
                       ("jobs = 1\n", "unknown key 'jobs'"),
                       ("samples = ,\n", "empty sample list"),
                       ("samples = 1/0\n", "bad rational '1/0'"),
                       ("samples = 0\n", "sample list needs a nonzero value")):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code, out, err = run(capsys, "bracket", "--config", str(bad), "--expr", "e(-1)")
        assert code == 2 and err.startswith(f"error: {bad}:1: {what}")
        assert "Traceback" not in err
    # an unknown flag is a usage error
    code, out, err = run(capsys, "relcheck", "--jobs", "2")
    assert code == 2 and err.startswith("usage:") and "unrecognized arguments: --jobs 2" in err
    assert out == ""


def test_bad_cap_level_exit_2(capsys):
    code, out, err = run(capsys, "bracket", "--cap", "0=1", "--expr", "e(-1)")
    assert code == 2 and err.startswith("error:") and "level 0" in err
    assert out == ""


def test_unwritable_output_exit_2(capsys, tmp_path):
    dest = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "jcoef", "--nmax", "1", "--output", str(dest))
    assert code == 2 and err.startswith("error:") and str(dest) in err
    assert not dest.exists()


def test_zero_denominator_in_element_exit_2(capsys):
    for argv in (("bracket", "--expr", "1/0*h1"),
                 ("aut", "apply", "--word", "X(-1;1)", "--elem", "1/0*h1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: zero denominator") and out == ""


def test_aut_approx_rejects_negative_depth(capsys):
    code, out, err = run(capsys, "aut", "approx", "--word", "X(0,1,1;1)", "--depth", "-1")
    assert code == 2 and err.startswith("error: --depth must be >= 0") and out == ""
    rep = run_json(capsys, "aut", "approx", "--word", "X(0,1,1;1)", "--depth", "0")
    assert rep["depth"] == 0 and rep["verified"] is True


def test_aut_approx_error_paths_exit_2(capsys):
    code, out, err = run(capsys, "aut", "approx", "--word", "H1(2)")
    assert code == 2 and out == ""
    assert err == "error: approximation requires a unipotent automorphism\n"
    code, out, err = run(capsys, "aut", "approx", "--word", "X(0,1,1;1)", "--depth", "10")
    assert code == 2 and out == ""
    assert err == "error: cannot certify beyond the truncation window\n"


def test_cap_above_the_window_is_not_checked(capsys, monkeypatch):
    # a level with no letter in the window names no letter, however large
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    code, out, err = run(capsys, "bracket", "--expr", "h1", "--cap", "99999999999999999999=1")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["normal_form"] == "1*h1"
    # dims checks the caps that --degree reaches
    code, out, err = run(capsys, "dims", "--degree", "12", "--cap", "8=401490886656001")
    assert (code, out) == (2, "") and "cap 401490886656001 at level 8 exceeds c(8)" in err
    assert "Traceback" not in err


def _raise(exc):
    def planted(*args, **kwargs):
        raise exc
    return planted


# each subcommand with the library call behind it: main alone turns a
# ValueError from any of them into exit 2
BOUNDARY_CASES = {
    "jcoef": (("jcoef", "--nmax", "3"), cli, "j_coefficients"),
    "dims": (("dims", "--degree", "5"), cli.freelie, "witt_root_dimensions"),
    "bracket": (("bracket", "--expr", "[h1,e(-1)]"), cli.monster, "bracket"),
    "aut-apply": (("aut", "apply", "--word", "X(-1;1)", "--elem", "h1"),
                  cli.completion.TruncAut, "apply"),
    "aut-compose": (("aut", "compose", "--word", "X(-1;1)"), cli.completion, "compose"),
    "aut-log": (("aut", "log", "--word", "X(-1;1)"), cli.completion, "log_unipotent"),
    "aut-level": (("aut", "level", "--word", "X(-1;1)"), cli.completion, "filtration_level"),
    "aut-approx": (("aut", "approx", "--word", "X(-1;1)"),
                   cli.completion, "approximate_by_generators"),
    "relcheck": (("relcheck", "--suite", "sl2"), cli.presentation, "validate_catalog"),
    "permaut": (("permaut", "--level", "1"), cli.permaut, "perm_report"),
    "numerology": (("numerology",), cli.permaut, "numerology_check"),
}


@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_library_value_error_exits_2(capsys, monkeypatch, case):
    argv, owner, name = BOUNDARY_CASES[case]
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.setattr(owner, name, _raise(ValueError("planted")))
    assert run(capsys, *argv) == (2, "", "error: planted\n")


@pytest.mark.parametrize("fault", [RuntimeError, ArithmeticError, AssertionError,
                                   RecursionError])
def test_library_fault_is_not_a_usage_error(capsys, monkeypatch, fault):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.setattr(cli.presentation, "validate_catalog", _raise(fault("planted")))
    with pytest.raises(fault, match="planted"):
        main(["relcheck", "--suite", "sl2"])
