"""The CLI contract, the one place the commands' outputs are pinned: each
row's command must exit with its code and print the stdout SHA-256 (exit
0 or 1, nothing on stderr) or the stderr prefix (exit 2, nothing on
stdout), and no traceback.  Rows run in-process through cli.main with
MONSTERLIE_CONFIG unset; a row that sets PYTHONHASHSEED or a recursion
limit runs in a fresh interpreter.  The README's examples and the
benchmark's reports are run by the tests of their own modules; the
benchmark's rows read their argv and seed-0 digests from
perfbench/workloads.py.  A changed report needs its row re-recorded on
purpose."""

import hashlib
import importlib.util
import io
import os
import shlex
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

from monsterlie import cli

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class Row(NamedTuple):
    name: str
    argv: str  # as a shell splits it
    code: int
    want: str  # stdout SHA-256 on exit 0 or 1, else a prefix of stderr
    hashseed: int | None = None
    recursionlimit: int | None = None


def _bench(workload: str, seed: int = workloads.DEFAULT_SEED, i: int = 0) -> str:
    """The benchmark's i-th command line for a workload at a seed."""
    return shlex.join(workloads.commands(workload, seed)[i])


# reports that more than one command prints
RELCHECK = workloads.DIGESTS["relcheck"][0]
APPROX = workloads.DIGESTS["approx"][0]
PERMAUT_SWAP = "b51ae9abb007ee7f6b82bbc698adc915f2732c5294578eb0fb1a2aeba040efff"
NUMEROLOGY = "748b0e3c1203e59a578efc716086c628fcc5af2f45a45beb1e937889e37381b4"
LEVEL4 = "--n 12 --cap 1=3 --cap 2=3 --cap 3=2 --cap 4=1"
APPROX_WINDOW = ("--cap 1=2 --cap 2=2 --cap 3=1 --cap 4=1 "
                 "--word 'X(0,1,1;1)X(0,2,1;-1/2)X(-1;2)X(0,3,1;1)'")

# the README's examples, run by tests/test_readme_examples.py
README_ROWS = [
    Row("readme-jcoef", "jcoef --nmax 3", 0,
        "57c5340d45d56b8eee30a00dfe1daada57944d0907a125e8d4b840287225d623"),
    Row("readme-bracket-gl2", "bracket --expr '[e(-1),f(-1)]'", 0,
        "924571ea454edaff33df5518a850cb26fbf9337fc937712f025200cdb11d2339"),
    Row("readme-bracket-string", "bracket --expr '1/2*[e(-1),[e(-1),e(0,3,1)]]'", 0,
        "954ab55a56fdcb966685f83c92a61d2e6fe01ce27fef6fc8b7ada4013ed2f1bc"),
    Row("readme-aut-apply", "aut apply --word 'X(-1;1)' --elem 'f(-1)'", 0,
        "58b49a3c4fe56207aa923b4790498d6853002c675385cd5a42ceefe9d6bd7b90"),
    Row("readme-aut-log", "aut log --word 'X(0,1,1;2)'", 0,
        "bd6ad963e6490101874f9dae9811bc53a85463601032bc7e04662bab29f35a2e"),
    Row("readme-aut-level", "aut level --word 'X(0,2,1;1)'", 0,
        "0b462ff7f4fcfc2dec05dc5a7598a2592d0e29489aeff6cf82067fdadc380c61"),
    Row("readme-aut-compose", "aut compose --word 'X(0,1,1;1)' --word 'Y(-1;2)'", 0,
        "bfe28f700398e821650180be8db881d90f0c6b683d7bec2fd1ee020618265a7d"),
    Row("readme-aut-approx", "aut approx --word 'X(0,1,1;1)X(0,2,1;-1/2)' --depth 8", 0,
        "131004a9a426551ea0c5e138cedc23ea783063e3f95b2434156484acf9947e53"),
    Row("readme-relcheck", "relcheck --suite all", 0, RELCHECK),
    Row("readme-permaut", "permaut --level 1 --cycles '(1 2)' --verify", 0, PERMAUT_SWAP),
    Row("readme-numerology", "numerology", 0, NUMEROLOGY),
]

# the benchmark's reports, run by tests/test_benchmark_reports.py:
# `series`, the `approx` word at seed 0 and, relabeled and conjugated by a
# torus element, at seeds 3, 5 and 7, and `relcheck` with its samples
# reordered (one swapped) at seeds 3 and 5
BENCHMARK_ROWS = [
    Row("series-0", _bench("series"), 0, workloads.DIGESTS["series"][0]),
    Row("series-1", _bench("series", i=1), 0, workloads.DIGESTS["series"][1]),
    Row("approx-seed0", _bench("approx"), 0, APPROX),
    Row("approx-seed3", _bench("approx", 3), 0,
        "c627c33268d3945724c2b918385e3bd45916f70342f882189c3b0d49cbf89e5a"),
    Row("approx-seed5", _bench("approx", 5), 0,
        "f192f63619a1ac82ae7776cbb88a787b17daa033286c311930bf9a54061a079c"),
    Row("approx-seed7", _bench("approx", 7), 0,
        "5bcd4033dc390f413cf6a0fc67ef1ae62621f7a9534d5fbb714e7068fd13f3d9"),
    Row("relcheck-seed3", _bench("relcheck", 3), 0,
        "5b69560c43c8e82517cadb189c1d3a923d2840a6c9d6ce94b89bd588428c9aa5"),
    Row("relcheck-seed5", _bench("relcheck", 5), 0,
        "092a47b1cedf41d438462e8fa53e3df58a00bf41f4a47c85e7e7363276f255b7"),
]

# the rest, run by test_cli_contract below
OTHER_ROWS = [
    # no report depends on the key numbering's first-seen order
    Row("relcheck-hashseed1", "relcheck --suite all", 0, RELCHECK, hashseed=1),
    Row("relcheck-hashseed2", "relcheck --suite all", 0, RELCHECK, hashseed=2),
    Row("approx-hashseed1", _bench("approx"), 0, APPROX, hashseed=1),
    Row("approx-hashseed2", _bench("approx"), 0, APPROX, hashseed=2),

    # relcheck beyond the default window and samples
    Row("relcheck-wide-caps", "relcheck --suite all --cap 1=3 --cap 2=3 --cap 3=2", 0,
        "b6fcc4bd7742fac67532bf08d48d429729b2e8fda04f56acb44c8cb9dc5f3081"),
    Row("relcheck-adjoint", "relcheck --suite adjoint", 0,
        "e3529eb35b065d254878858680a5ac01d5ca116944483513fd579f26ce895844"),
    Row("relcheck-sl2", "relcheck --suite sl2", 0,
        "8456a2e503f39f2978c042665c874f0f8f479d0280a9aae1bdd0dc5850f6c135"),
    Row("relcheck-sl2-level4-samples7",
        f"relcheck --suite sl2 {LEVEL4} --samples=1,-1,2,-2,1/2,1/3,-3", 0,
        "d9e8506f1f0e7ce3129453896bee5554c8d8551ebe6e8d35157330325ba5712b"),
    Row("relcheck-samples7", "relcheck --suite all --samples=1,-1,2,-2,1/2,1/3,-3", 0,
        "e85b3932e7136374ffadb318cbc1685cba2abab255ad64e3441a3a10e4441ed5"),
    # three generic samples of height about 10^9
    Row("relcheck-generic", "relcheck --suite all --samples=1234567891/987654323,"
        "-2718281829/3141592653,1618033989/1414213563", 0,
        "439351ee65a51487f3534accbb932638b200a6bb398b98744475ca6bb81c8d4e"),
    Row("relcheck-level4-recursion200", f"relcheck --suite all {LEVEL4}", 0,
        "e379ed8e0d35e93a18614048cd275fcd7b7428533d36747409ecac0a229f862e",
        recursionlimit=200),

    # aut and permaut with level-4 letters, finite exact_to markers,
    # torus, Weyl and inverted atoms
    Row("permaut-verify-level4", f"permaut --level 2 --cycles '(1 2 3)' --verify {LEVEL4}", 0,
        "c350f1492f6e779f381adadca9b417bb1a57f4d8319469c075ad7f1d1dd3dca8"),
    Row("aut-apply-level4", "aut apply --word 'Y(-1;1)X(0,3,1;1)Y(-1;-1/2)' "
        f"--elem '[e(0,1,1),e(0,2,2)]' {LEVEL4}", 0,
        "12d2362044be1ff4f99bd9b3ca7a5fe424334d648bd4d4955c13d25376ed06d4"),
    Row("aut-log-level4", f"aut log --word 'X(0,1,1;1)X(0,4,1;2)X(1,2,3;-1/3)' {LEVEL4}", 0,
        "4adab1ef86c3b6db21de24e90f907b5d91980419b69267cfbeb74469ca7d2edf"),
    Row("aut-compose-level4", "aut compose --word 'H1(2)X(0,1,1;1/2)w(-1;1)' "
        f"--word 'H2(-3)Y(-1;2)X(1,3,2;-1/3)^-1' --word 'w(-1;-1/2)^-1H1(1/5)' {LEVEL4}", 0,
        "1754ad8ab03e980ba9212ba19599a0283a010172d372bfc33fc87c73fdd53127"),
    # the word dump's torus(2,1), exp(1*e(0,1,1)), exp(-2*f(-1)), torus(1,-3)
    Row("aut-compose-torus-inverse",
        "aut compose --word 'H1(2)X(0,1,1;1)' --word '(H2(-1/3)Y(-1;2))^-1'", 0,
        "3719594636abf5bd99f4fd1a86648cf4c4b429014ce973e375be723e94285e5d"),
    Row("aut-approx-n21", f"aut approx --n 21 {APPROX_WINDOW} --depth 21", 0,
        "3b08a02e99618e9e74882843226cbb99086bbd4a1d608e77214fe0f0878336a1"),
    Row("aut-approx-n24", f"aut approx --n 24 {APPROX_WINDOW} --depth 24", 0,
        "d7799ffd0a5182b6c40537f20ea8ccceb44f3cdd8712d03e25be9e9091ec6636"),
    # a unipotent word with several lowering atoms
    Row("aut-approx-lowering",
        "aut approx --word 'w(-1;1)X(0,2,1;1/2)w(-1;1)^-1Y(-1;1)X(1,3,1;1)Y(-1;-1)'", 0,
        "0a79da467f683ca794b1f748ce28fe669a752ab90e96c380f76146c31ebd0740"),

    # exact_to prints as an integer, or as null where the library has
    # math.inf; the comment gives the printed marker
    Row("exact-to-bracket-cut", "bracket --expr '[e(1,3,1),e(0,3,1)]'", 0,  # 9
        "48b2f82a00ee849bff48e8c525b4c43e992ed7457b358f6276e30c6cf57c1b28"),
    Row("exact-to-bracket-exact", "bracket --expr '[e(0,1,1),e(0,2,1)]'", 0,  # null
        "723a67c42bad2d4fbbe9f3d211186b095b6a74ea39f89eef06bf2f93c8448f9b"),
    Row("exact-to-apply-lowering", "aut apply --word 'Y(-1;1)X(0,2,1;1)' --elem 'e(0,1,1)'",
        0, "c3d455465ac6e3d0667757debe05ca11281194cbce2a5001babcd1a50b90d3eb"),  # 11
    Row("exact-to-apply-bracket-word",
        "aut apply --word 'X(0,2,1;1)Y(-1;2)' --elem '[e(0,1,1),e(0,1,2)]'", 0,  # 14
        "fafc144eeae5b00ee0e6c5ec745c29f6cb7cf737f59986b569c87cc2657f0e4a"),
    Row("exact-to-log", "aut log --word 'X(0,1,1;1)X(0,2,1;-1)'", 0,  # 14
        "dd678614e676ce3cfd91ee9f20ebcccf0437827dde8dd2a9866d474cab57f4ff"),
    Row("exact-to-apply-exact", "aut apply --word 'H1(2)X(-1;1)' --elem 'f(0,1,1)'", 0,  # null
        "607a1fa100b14f5b87c9dde32c1e67384d6b2540cfe00f85d4d6a2f9e9a81f2e"),
    # 9: passes at 14, exact to 8, then retries at 17, exact to 9
    Row("exact-to-apply-retry", "aut apply --word 'Y(-1;1)X(0,2,1;1)Y(-1;2)X(0,1,2;1)Y(-1;-1)' "
        "--elem '[e(0,1,1),e(0,2,1)]'", 0,
        "838b2206c8ae12e4dc075430dc3068746b692680899e0c624e36d884be08dbaf"),

    # permaut --verify beyond the README's example: a 3-cycle under a
    # wider cap, a swap at level 2, and windows that cut a base string
    # short of its top letter (level 5's at N=9, level 3's at N=6, and at
    # N=4 level 2's, under a sigma at level 3, above the window)
    Row("permaut-3cycle-cap3", "permaut --level 1 --cycles '(1 2 3)' --verify --cap 1=3", 0,
        "f8d4f854b3470714a84df0a4eaa3ad8563e10bbca087f84eab3f243512fee47e"),
    Row("permaut-level2-swap", "permaut --level 2 --cycles '(1 2)' --verify", 0,
        "c214452364257b09462f345a0d95be73b9ef8db181b1bd8bf6337965517979c5"),
    Row("permaut-cut-level5", "permaut --level 1 --cycles '(1 2)' --verify --cap 5=1", 0,
        PERMAUT_SWAP),
    Row("permaut-cut-n6", "permaut --level 1 --cycles '(1 2)' --verify --n 6", 0, PERMAUT_SWAP),
    Row("permaut-cut-level3-n4", "permaut --level 3 --cycles '(1 2)' --verify --n 4 --cap 3=2",
        0, "8b48fe528dd7857c6aaa2589217e87a793d5b22a04e6b195b78bdb5152bb1925"),

    # valid edge windows
    Row("edge-permaut-n4", "permaut --level 1 --cycles '(1 2)' --verify --n 4", 0, PERMAUT_SWAP),
    Row("edge-relcheck-n1", "relcheck --n 1", 0,
        "9d89d461c5a54ba761d7633d4b21d696f428db6c76f05e4216e6bd0054ce9a89"),
    Row("edge-relcheck-adjoint-n2", "relcheck --n 2 --suite adjoint", 0,
        "a9694f146bfb16324ef737e439af8b6e3555d4575d7ffeb93b155e86dd92cb17"),
    Row("edge-approx-n1", "aut approx --word 'X(-1;1)' --n 1", 0,
        "caa3ed51461350c3ee99e348d3cfbba73f4a875af6cc31c77eedb6c292d5873f"),
    Row("edge-log-n1", "aut log --word 'X(-1;1)' --n 1", 0,
        "3c7f23394a937d4fac221463f1ea5d08bb02ebb8b6c3331805e7f41a8398b7d4"),
    Row("edge-level-identity", "aut level --word 1", 0,
        "c4af8af45487025918f3aacedd23332107cd12afe693a7bba310e67efe4604c2"),
    Row("edge-dims-symbolic-1", "dims --degree 1 --symbolic", 0,
        "b5677cafd5bb9c8feb934f096c61e27e478b1490efc7b2e444959fe880adb5bd"),
    Row("edge-jcoef-nmax-1", "jcoef --nmax -1", 0,
        "1738b082143942560eba0e30ce3a2e88132a059a28ca24a21de2d734eb86a1c8"),
    Row("edge-numerology-n1", "numerology --n 1", 0, NUMEROLOGY),

    # bad input: exit 2 with a message
    Row("bad-relcheck-n0", "relcheck --n 0", 2, "error: truncation n must be >= 1"),
    Row("bad-relcheck-empty-samples", "relcheck --samples ''", 2, "error: empty sample list"),
    Row("bad-numerology-zero-sample", "numerology --samples 0", 2,
        "error: sample list needs a nonzero value"),
    Row("bad-jcoef-nmax", "jcoef --nmax -2", 2, "error: --nmax must be >= -1"),
    Row("bad-jcoef-nmax-unindexable", "jcoef --nmax 100000000000000000000", 2,
        "error: a q-series of 100000000000000000002 coefficients is too long for a list"),
    Row("bad-dims-degree", "dims --degree 0", 2, "error: --degree must be >= 1"),
    Row("bad-dims-degree-unindexable", "dims --symbolic --degree 100000000000000000000", 2,
        "error: a q-series of 100000000000000000000 coefficients is too long for a list"),
    Row("bad-dims-cap-above-c1", "dims --degree 5 --cap 1=999999", 2,
        "error: cap 999999 at level 1 exceeds c(1) = 196884"),
    Row("bad-bracket-cap-above-c1", "bracket --n 3 --cap 1=196885 --expr 'e(0,1,196885)'", 2,
        "error: cap 196885 at level 1 exceeds c(1) = 196884"),
    Row("bad-bracket-cap-syntax", "bracket --cap 1:2 --expr 'e(-1)'", 2, "error: bad --cap '1:2'"),
    Row("bad-bracket-trailing", "bracket --expr h1h2", 2, "error: trailing input"),
    Row("bad-bracket-index", "bracket --expr 'e(3)'", 2, "error: e: index must be -1 or l,j,k"),
    Row("bad-bracket-string-index", "bracket --expr 'e(2,2,1)'", 2, "error: e: need 0 <= l < j"),
    Row("bad-bracket-outside-support", "bracket --expr 'e(0,1,3)'", 2,
        "error: e: index (0,1,3) outside configured support"),
    Row("bad-apply-w-zero", "aut apply --word 'w(-1;0)' --elem 'e(-1)'", 2,
        "error: w parameter must be nonzero"),
    Row("bad-apply-h1-zero", "aut apply --word 'H1(0)' --elem 'e(-1)'", 2,
        "error: H1 parameter must be nonzero"),
    Row("bad-apply-trailing", "aut apply --word 'X(0,1,1;1))' --elem 'e(-1)'", 2,
        "error: trailing input"),
    Row("bad-apply-imaginary-y", "aut apply --word 'Y(0,1,1;1)' --elem h1", 2,
        "error: Y(0,1,1;1) has no action on the positive completion"),
    Row("bad-apply-imaginary-y-after-x", "aut apply --word 'X(0,9,1;1)Y(0,1,1;1)' --elem h1", 2,
        "error: Y(0,1,1;1) has no action on the positive completion"),
    Row("bad-apply-imaginary-w", "aut apply --word 'w(0,9,1;1)' --elem h1", 2,
        "error: w(0,9,1;1) has no action on the positive completion"),
    Row("bad-compose-outside-cap", "aut compose --word 'X(0,1,2;1)' --cap 1=1", 2,
        "error: letter (0,1,2) outside support (bound 9, caps {1: 1, 2: 2, 3: 1})"),
    Row("bad-level-outside-window", "aut level --word 'X(0,9,1;1)'", 2,
        "error: letter (0,9,1) outside support (bound 9, caps {1: 2, 2: 2, 3: 1})"),
    Row("bad-level-not-unipotent", "aut level --word 'Y(-1;1)'", 2, "error: not unipotent-type"),
    Row("bad-log-not-unipotent", "aut log --word 'Y(-1;1)'", 2, "error: not unipotent-type"),
    Row("bad-log-torus", "aut log --word 'H1(2)'", 2,
        "error: log requires a unipotent automorphism (filtration level >= 1)"),
    Row("bad-approx-torus", "aut approx --word 'H1(2)'", 2,
        "error: approximation requires a unipotent automorphism"),
    Row("bad-permaut-above-cap", "permaut --level 2 --cycles '(1 5)'", 2,
        "error: permutation support [5] exceeds cap 2 at level 2"),
]
CONTRACT = README_ROWS + BENCHMARK_ROWS + OTHER_ROWS

def breaches(row: Row) -> list:
    """Run the row's command; list each way its result breaks the row."""
    argv = shlex.split(row.argv)
    if row.hashseed is None and row.recursionlimit is None:
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as env, redirect_stdout(out), redirect_stderr(err):
            env.delenv(cli.ENV_CONFIG, raising=False)
            try:
                code = cli.main(argv)
            except Exception:
                # what a fresh interpreter would print, and its exit code
                traceback.print_exc()
                code = 1
        out, err = out.getvalue(), err.getvalue()
    else:
        env = {k: v for k, v in os.environ.items() if k != cli.ENV_CONFIG}
        env["PYTHONPATH"] = str(ROOT / "src")
        if row.hashseed is not None:
            env["PYTHONHASHSEED"] = str(row.hashseed)
        limit = f"sys.setrecursionlimit({row.recursionlimit}); " if row.recursionlimit else ""
        main = f"import sys; {limit}from monsterlie.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", main, *argv], capture_output=True, env=env)
        code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    found = []
    if code != row.code:
        found.append(f"exit {code}, not {row.code}")
    if "Traceback" in err:
        found.append("traceback on stderr")
    if row.code == 2:
        if out:
            found.append("output on stdout")
        if not err.startswith(row.want):
            found.append(f"stderr does not start with {row.want!r}")
    else:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != row.want:
            found.append(f"stdout SHA-256 {digest}")
        if err:
            found.append("output on stderr")
    return found


@pytest.mark.parametrize("row", OTHER_ROWS, ids=[row.name for row in OTHER_ROWS])
def test_cli_contract(row):
    assert breaches(row) == []


def test_row_names_are_unique():
    assert len({row.name for row in CONTRACT}) == len(CONTRACT)


def test_breaches_are_reported(monkeypatch):
    # a synthetic table: every row is broken in a known way
    jcoef, wrong = CONTRACT[0], "0" * 64
    assert breaches(jcoef._replace(want=wrong)) == [f"stdout SHA-256 {jcoef.want}"]
    assert breaches(jcoef._replace(want=wrong, hashseed=1)) == [f"stdout SHA-256 {jcoef.want}"]
    assert breaches(jcoef._replace(code=1)) == ["exit 0, not 1"]
    assert breaches(Row("", "jcoef --nmax -2", 0, wrong)) == [
        "exit 2, not 0", "stdout SHA-256 " + hashlib.sha256(b"").hexdigest(), "output on stderr"]

    def report_and_fail(argv):
        print("{}")
        print("error: planted", file=sys.stderr)
        return 2
    with monkeypatch.context() as planted:
        planted.setattr(cli, "main", report_and_fail)
        assert breaches(Row("", "jcoef --nmax 3", 2, "error: planted")) == ["output on stdout"]

    def fault(*args):
        raise RuntimeError("planted")
    monkeypatch.setattr(cli, "j_coefficients", fault)
    assert breaches(Row("", "jcoef --nmax 3", 2, "error: ")) == [
        "exit 1, not 2", "traceback on stderr", "stderr does not start with 'error: '"]
