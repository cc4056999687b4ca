"""The benchmark's workloads: the CLI commands each one runs, the inputs a
seed draws, and the checks every report must pass.

Each workload is a list of `monsterlie` command lines run in one fresh
interpreter.  The seed only changes inputs, never the shape of the work:
at DEFAULT_SEED the inputs are the ones recorded in baseline.json, and
there every report must also match its recorded SHA-256.
"""

import hashlib
import json
import random
from fractions import Fraction

DEFAULT_SEED = 0
NAMES = ("relcheck", "approx", "series")

# relcheck: the default window (N=9, caps 1:2,2:2,3:1) and sample set.
RELCHECK_SAMPLES = ("1", "-1", "2", "-2", "1/2")
RELCHECK_INSTANCES = 2774

# approx: four X symbols at levels 1, 2, real, 3, all with l = 0, in a
# window deep enough for depth 15.
APPROX_WINDOW = ("--n", "15", "--cap", "1=2", "--cap", "2=2",
                 "--cap", "3=1", "--cap", "4=1")
APPROX_DEPTH = "15"
APPROX_WORD = "X(0,1,1;1)X(0,2,1;-1/2)X(-1;2)X(0,3,1;1)"

SERIES = (("jcoef", "--nmax", "100"),
          ("dims", "--symbolic", "--degree", "60"))

# SHA-256 of each report at DEFAULT_SEED, in command order.
DIGESTS = {
    "relcheck": ("20043c068e0afa2cce39ca1a8b11e78bdc1abca4ccb95084f9340f2e82fa525f",),
    "approx": ("1741f2659ee620a9e59743db7c6f43e61b592e0418070d4b6036863115d755ef",),
    "series": ("10281383cdb3428d412204fc2ba0832d937c2bc68732e975f5417509084ef635",
               "ec5f03941899407d382e6eaf6382270244e0d38f3e82e436c241826762b0dc1b"),
}


def relcheck_samples(seed: int) -> tuple:
    """Five distinct nonzero rationals with the default heights: both
    values of height 1 and three of the four of height 2, in any order.
    Every instance count depends only on how many samples there are."""
    if seed == DEFAULT_SEED:
        return RELCHECK_SAMPLES
    rng = random.Random(seed)
    vals = ["1", "-1"] + rng.sample(["2", "-2", "1/2", "-1/2"], 3)
    rng.shuffle(vals)
    return tuple(vals)


def approx_word(seed: int) -> str:
    """The default word moved by a symmetry of the algebra, so that every
    seed's word costs the same work.  The seed picks the index k of the
    level-1 and level-2 symbols within their cap of 2 (relabeling k is an
    automorphism), and conjugates by a torus element H1(s)H2(t) with s, t
    in {1, -1}, which multiplies the parameter of a symbol with root
    (a, b) by s^a t^b: the signs at levels 1, real and 3 flip together
    (st), and the sign at level 2 flips on its own (s)."""
    if seed == DEFAULT_SEED:
        return APPROX_WORD
    rng = random.Random(seed)
    k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
    s, t = rng.choice((1, -1)), rng.choice((1, -1))
    u1, u2, u3, u4 = (s * t * 1, s * Fraction(-1, 2), s * t * 2, s * t * 1)
    return f"X(0,1,{k1};{u1})X(0,2,{k2};{u2})X(-1;{u3})X(0,3,1;{u4})"


def commands(workload: str, seed: int) -> list:
    """The argv lists passed to monsterlie.cli.main, in order."""
    if workload == "relcheck":
        return [["relcheck", "--suite", "all",
                 "--samples=" + ",".join(relcheck_samples(seed))]]
    if workload == "approx":
        return [["aut", "approx", *APPROX_WINDOW,
                 "--word", approx_word(seed), "--depth", APPROX_DEPTH]]
    if workload == "series":
        return [list(argv) for argv in SERIES]
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, seed: int, outputs: list):
    """Return None when every (exit code, report text) pair is right,
    else a one-line reason."""
    expected = commands(workload, seed)
    if len(outputs) != len(expected):
        return f"expected {len(expected)} reports, got {len(outputs)}"
    for i, (code, text) in enumerate(outputs):
        if code != 0:
            return f"command {i} exited with code {code}"
        if seed == DEFAULT_SEED or workload == "series":
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != DIGESTS[workload][i]:
                return f"command {i} report digest {digest[:12]} differs from the recorded one"
        try:
            rep = json.loads(text)
        except ValueError:
            return f"command {i} report is not JSON"
        if workload == "relcheck":
            count = sum(row["instances"] for row in rep["results"])
            if rep["all_pass"] is not True or count != RELCHECK_INSTANCES:
                return f"all_pass={rep['all_pass']}, instances={count}"
        elif workload == "approx":
            if rep["verified"] is not True:
                return "approximation not verified"
    return None

