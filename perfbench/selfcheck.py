"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [workload ...]

Checks that a tampered report, a nonzero exit code and a crashed child
each count as a failed run in error_rate, that two traced runs of each
named workload (default: all) give identical count metrics, and that
BENCHMARK.json lists exactly the metrics the harness reports.  Exits 0
when every check holds.
"""

import json
import os
import sys
from time import perf_counter

import run
import tracer
import workloads

TRACE_PATH = os.path.join(run.OUT, "selfcheck.trace.json")


def traced_counts(workload: str) -> dict:
    rec = run.run_child(workload, workloads.DEFAULT_SEED,
                        perf_counter() + run.HARD_LIMIT_S, TRACE_PATH)
    if "error" in rec:
        raise SystemExit(f"traced {workload} run failed: {rec['error']}")
    with open(TRACE_PATH) as fh:
        metrics = tracer.layer_metrics(json.load(fh))
    return {k: metrics[k] for k in tracer.count_names()}


def main() -> int:
    names = sys.argv[1:] or list(workloads.NAMES)
    results = []

    def check(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    seed = workloads.DEFAULT_SEED
    good = run.run_child("series", seed, perf_counter() + run.HARD_LIMIT_S)
    check("an untouched series run passes its check", "error" not in good)
    if "error" in good:
        return 1

    code, text = good["outputs"][0]
    flipped = text.replace("196884", "196885", 1)
    tampered = run.judge("series", seed, {**good, "outputs": [(code, flipped), good["outputs"][1]]})
    check("a report with one changed digit fails its check", "error" in tampered)
    bad_exit = run.judge("series", seed, {**good, "outputs": [(1, text), good["outputs"][1]]})
    check("a command exiting with code 1 fails its check", "error" in bad_exit)
    crashed = run.run_child("no-such-workload", seed, perf_counter() + run.HARD_LIMIT_S)
    check("a child that exits nonzero is a failed run", "error" in crashed)
    attempted, failed = run.error_count([good, tampered, bad_exit, crashed])
    check(f"error_rate counts them: {failed}/{attempted}", (attempted, failed) == (4, 3))

    os.makedirs(run.OUT, exist_ok=True)
    for name in names:
        first, second = traced_counts(name), traced_counts(name)
        diff = sorted(k for k in first if first[k] != second[k])
        check(f"two traced {name} runs give identical counts {diff or ''}", not diff)
    os.remove(TRACE_PATH)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check("BENCHMARK.json end_to_end matches run.END_TO_END",
          [(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == [(name, unit) for name, unit, _ in run.END_TO_END])
    check("BENCHMARK.json per_layer matches the traced metrics",
          [(m["name"], m["unit"]) for m in bench["per_layer"]]
          == [(name, tracer.unit(name)) for name in tracer.metric_names() + ["trace.overhead_s"]])
    check("BENCHMARK.json workloads match workloads.NAMES",
          tuple(w["name"] for w in bench["workloads"]) == workloads.NAMES)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
