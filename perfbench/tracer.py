"""Spans around monsterlie's layer functions, recorded from outside the
package.

`Tracer.install` replaces each target function at every name it is looked
up by (module globals that hold it, or the class attribute for methods)
with a wrapper that records one span per call.  Spans stay in memory as
(run id, span id, name, start, end, parent span id), with times in
nanoseconds since the tracer was made, and are written out once, by
`dump`, when the run ends.  Argument-derived counts (atoms, term pairs,
distinct argument keys) are gathered at the same boundary.

`layer_metrics` turns a dumped trace into `<module>.<function>.<stat>`
metrics: calls, time_s (inclusive) and self_s (duration minus the time
covered by child spans), plus the argument-derived counts.
"""

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# Every function that gets a span, as "<module>.<attribute path>" under
# monsterlie, with the stats reported for it.  The argument-derived stats
# (atoms, term_pairs, distinct_ratio) are gathered by Tracer._extras.
TARGETS = {
    "cli.main": ("time_s", "self_s"),
    "presentation.validate_catalog": ("time_s",),
    "presentation.validate_adjoint": ("calls", "time_s", "self_s"),
    "presentation.validate_sl2": ("calls", "time_s"),
    "presentation.realize_word": ("calls", "time_s"),
    "completion.TruncAut.apply": ("calls", "time_s", "self_s", "atoms", "distinct_ratio"),
    "completion.TruncAut.equal": ("calls", "time_s", "self_s"),
    "completion.approximate_by_generators": ("time_s",),
    "completion.equal_mod_level": ("time_s",),
    "completion.log_unipotent": ("calls", "time_s"),
    "completion.filtration_level": ("calls", "time_s"),
    "monster.bracket": ("calls", "time_s", "self_s", "term_pairs"),
    "monster.term_bracket": ("calls", "time_s", "distinct_ratio"),
    "monster.cross_bracket_words": ("calls", "time_s"),
    "freelie.bracket_words": ("calls", "time_s", "distinct_ratio"),
    "freelie.witt_root_dimensions": ("calls", "time_s"),
    "qseries.j_coefficients": ("calls", "time_s"),
}


# Stats that count work; they must repeat exactly from run to run.
COUNT_STATS = ("calls", "atoms", "term_pairs", "distinct_ratio")


def metric_names() -> list:
    return [f"{name}.{stat}" for name, stats in TARGETS.items() for stat in stats]


def count_names() -> list:
    return [m for m in metric_names() if m.rsplit(".", 1)[1] in COUNT_STATS]


def unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat == "distinct_ratio" else "count"


def _frozen_elt(x):
    return (frozenset(x.terms.items()), x.exact_to)


def _frozen_atom(atom):
    if atom[0] == "exp":
        return ("exp", _frozen_elt(atom[1]))
    return atom


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._keys = {}
        self._stack = [None]
        self._next_id = 0
        self._t0 = perf_counter_ns()
        # id(word or images) -> (word or images, frozen word); holding the
        # object keeps its id unique for the whole run
        self._words = {}
        self._extras = {
            "completion.TruncAut.apply": self._apply_extra,
            "monster.bracket": self._bracket_extra,
            "monster.term_bracket": self._pair_key,
            "freelie.bracket_words": self._pair_key,
        }

    # argument-derived counts ------------------------------------------------
    def _add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _distinct(self, name: str, key) -> None:
        self._keys.setdefault(name, set()).add(key)

    def _apply_extra(self, name, args, kwargs):
        aut, y = args[0], args[1]
        need = args[2] if len(args) > 2 else kwargs.get("need")
        need = aut.N if need is None else need
        if aut.word is None:
            word = ("images", id(aut._images))
            self._words.setdefault(id(aut._images), (aut._images, None))
        else:
            held = self._words.get(id(aut.word))
            if held is None:
                held = self._words[id(aut.word)] = (
                    aut.word, tuple(_frozen_atom(a) for a in aut.word))
            word = held[1]
            self._add(name + ".atoms", len(aut.word))
        self._distinct(name, (word, _frozen_elt(y), need))

    def _bracket_extra(self, name, args, kwargs):
        self._add(name + ".term_pairs", len(args[0].terms) * len(args[1].terms))

    def _pair_key(self, name, args, kwargs):
        self._distinct(name, (args[0], args[1]))

    # spans ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        extra = self._extras.get(name)
        run_id = self.run_id
        t0 = self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra is not None:
                extra(name, args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns() - t0
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns() - t0
                stack.pop()
                spans.append((run_id, sid, name, start, end, parent))

        return traced

    def install(self) -> None:
        for name in TARGETS:
            mod, *path = name.split(".")
            owner = importlib.import_module("monsterlie." + mod)
            if len(path) == 2:
                cls = getattr(owner, path[0])
                setattr(cls, path[1], self.wrap(name, getattr(cls, path[1])))
                continue
            fn = getattr(owner, path[0])
            wrapper = self.wrap(name, fn)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("monsterlie"):
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        for name, keys in self._keys.items():
            counts[name + ".distinct"] = len(keys)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "counts": counts,
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(trace: dict) -> dict:
    """The metrics of metric_names() from one dumped trace."""
    calls, total, covered = {}, {}, {}
    for _run, sid, name, start, end, parent in trace["spans"]:
        dur = (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        covered.setdefault(sid, 0.0)
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + dur
    self_time = {}
    for _run, sid, name, start, end, parent in trace["spans"]:
        self_time[name] = self_time.get(name, 0.0) + (end - start) / 1e9 - covered[sid]
    counts = trace["counts"]
    stats = {
        "calls": lambda name: calls.get(name, 0),
        "time_s": lambda name: total.get(name, 0.0),
        "self_s": lambda name: self_time.get(name, 0.0),
        "atoms": lambda name: counts.get(name + ".atoms", 0),
        "term_pairs": lambda name: counts.get(name + ".term_pairs", 0),
        "distinct_ratio": lambda name: (counts.get(name + ".distinct", 0) / calls[name]
                                        if calls.get(name) else 0.0),
    }
    return {f"{name}.{stat}": stats[stat](name)
            for name, wanted in TARGETS.items() for stat in wanted}
