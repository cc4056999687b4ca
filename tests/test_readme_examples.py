"""Every `$ monsterlie ...` example in README.md, run in-process through
cli.main, must print a report whose SHA-256 matches the digest recorded
here.  The digests were recorded from fresh-process runs, so the
README's output stays byte-identical across refactors.  A new README
example needs a new row in EXPECTED; a changed report needs a
deliberate new digest.
"""

import hashlib
import shlex
from pathlib import Path

import pytest

from monsterlie import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# command (as shlex.join prints it) -> (exit code, SHA-256 of stdout)
EXPECTED = {
    "jcoef --nmax 3":
        (0, "57c5340d45d56b8eee30a00dfe1daada57944d0907a125e8d4b840287225d623"),
    "bracket --expr '[e(-1),f(-1)]'":
        (0, "924571ea454edaff33df5518a850cb26fbf9337fc937712f025200cdb11d2339"),
    "bracket --expr '1/2*[e(-1),[e(-1),e(0,3,1)]]'":
        (0, "954ab55a56fdcb966685f83c92a61d2e6fe01ce27fef6fc8b7ada4013ed2f1bc"),
    "aut apply --word 'X(-1;1)' --elem 'f(-1)'":
        (0, "58b49a3c4fe56207aa923b4790498d6853002c675385cd5a42ceefe9d6bd7b90"),
    "aut log --word 'X(0,1,1;2)'":
        (0, "bd6ad963e6490101874f9dae9811bc53a85463601032bc7e04662bab29f35a2e"),
    "aut level --word 'X(0,2,1;1)'":
        (0, "0b462ff7f4fcfc2dec05dc5a7598a2592d0e29489aeff6cf82067fdadc380c61"),
    "aut compose --word 'X(0,1,1;1)' --word 'Y(-1;2)'":
        (0, "bfe28f700398e821650180be8db881d90f0c6b683d7bec2fd1ee020618265a7d"),
    "aut approx --word 'X(0,1,1;1)X(0,2,1;-1/2)' --depth 8":
        (0, "131004a9a426551ea0c5e138cedc23ea783063e3f95b2434156484acf9947e53"),
    "relcheck --suite all":
        (0, "20043c068e0afa2cce39ca1a8b11e78bdc1abca4ccb95084f9340f2e82fa525f"),
    "permaut --level 1 --cycles '(1 2)' --verify":
        (0, "b51ae9abb007ee7f6b82bbc698adc915f2732c5294578eb0fb1a2aeba040efff"),
    "numerology":
        (0, "748b0e3c1203e59a578efc716086c628fcc5af2f45a45beb1e937889e37381b4"),
}


def readme_commands() -> list:
    """argv of each `$ monsterlie` line in README.md, comments dropped."""
    out = []
    for line in README.read_text().splitlines():
        if line.startswith("$ monsterlie "):
            out.append(shlex.split(line[2:], comments=True)[1:])
    return out


def test_every_readme_example_has_a_digest():
    assert sorted(shlex.join(a) for a in readme_commands()) == sorted(EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_readme_example_output_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    code = cli.main(shlex.split(command))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EXPECTED[command], out
