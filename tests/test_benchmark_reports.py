"""The benchmark's `series`, `aut approx` and `relcheck` reports stay
byte-identical.

The `series` digests and the seed-0 `approx` digest are the ones
perfbench/workloads.py records.  The `approx` reports at seeds 3, 5 and
7 (the default word with its indices relabeled and conjugated by a
torus element) are pinned here, so a change to the peel shows at more
than one word.  The `relcheck` reports at seeds 3 and 5 (the samples in
another order, one of them swapped) are pinned too, so a reuse of
verdicts within a sweep that depends on the sample order shows.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from monsterlie import cli

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

APPROX_DIGESTS = {
    0: workloads.DIGESTS["approx"][0],
    3: "c627c33268d3945724c2b918385e3bd45916f70342f882189c3b0d49cbf89e5a",
    5: "f192f63619a1ac82ae7776cbb88a787b17daa033286c311930bf9a54061a079c",
    7: "5bcd4033dc390f413cf6a0fc67ef1ae62621f7a9534d5fbb714e7068fd13f3d9",
}
RELCHECK_DIGESTS = {
    3: "5b69560c43c8e82517cadb189c1d3a923d2840a6c9d6ce94b89bd588428c9aa5",
    5: "092a47b1cedf41d438462e8fa53e3df58a00bf41f4a47c85e7e7363276f255b7",
}
CASES = {f"series-{i}": (argv, want) for i, (argv, want)
         in enumerate(zip(workloads.commands("series", 0), workloads.DIGESTS["series"]))}
CASES.update({f"approx-seed{s}": (workloads.commands("approx", s)[0], want)
              for s, want in APPROX_DIGESTS.items()})
CASES.update({f"relcheck-seed{s}": (workloads.commands("relcheck", s)[0], want)
              for s, want in RELCHECK_DIGESTS.items()})


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_is_unchanged(case, capsys, monkeypatch):
    argv, want = CASES[case]
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want, out
