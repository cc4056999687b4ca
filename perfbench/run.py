"""Benchmark for monsterlie's CLI paths.

    python3 perfbench/run.py --workload relcheck|approx|series|all
                             [--seed N] [--seconds S] [--trace 0|1]

Closed loop with one client: every run is a fresh interpreter
(child.py) that imports monsterlie, builds the seed's inputs, calls
monsterlie.cli.main once per command and exits; the next run starts when
the previous one has exited.  Runs start until --seconds have passed
(at least MIN_RUNS of them).  Each run's reports are checked
(workloads.check); a run that raises, exits badly or fails its check
counts in error_rate.

--trace 0 reports the end-to-end metrics, as medians over the runs:
  wall_s       seconds inside cli.main, summed over the workload's commands
  setup_s      seconds from starting the child until monsterlie is imported
               and the inputs are built
  peak_rss_mb  the child's peak resident memory (ru_maxrss)
Both times are scaled to a reference machine speed measured during the
run (see child.py); the unscaled medians are printed beside them.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of tracer.layer_metrics from the traced runs, plus
trace.overhead_s, the traced minus the untraced unscaled wall time.
Per-layer times are unscaled and include the tracer's own cost; the
counts do not depend on the machine and must repeat exactly.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_RUNS = 3
# Each workload's measurement, children included, ends within this many seconds.
HARD_LIMIT_S = 170

# (metric, unit, the child record's unscaled counterpart)
END_TO_END = (("wall_s", "s", "wall_raw_s"), ("setup_s", "s", "setup_raw_s"),
              ("peak_rss_mb", "MiB", None))


def run_child(workload: str, seed: int, deadline: float, trace_path=None) -> dict:
    """Start one child and wait for it; returns its record, or one with
    an "error" key when it crashed, timed out or failed its check."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed)]
    start = perf_counter()
    argv.append(repr(start))
    if trace_path:
        argv.append(trace_path)
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - start, 1))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "fatal": True}
    if proc.returncode == 3:
        sys.stderr.write(proc.stderr)
        raise SystemExit(2)
    if proc.returncode != 0:
        return {"error": f"child exited with code {proc.returncode}: "
                         f"{proc.stderr.strip().splitlines()[-1:]}"}
    try:
        rec = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no record"}
    return judge(workload, seed, rec)


def judge(workload: str, seed: int, rec: dict) -> dict:
    """Attach an "error" to a child record whose reports fail the check."""
    reason = workloads.check(workload, seed, rec["outputs"])
    if reason:
        rec["error"] = reason
    return rec


def error_count(records: list) -> tuple:
    """(attempted, failed) over child records."""
    return len(records), sum(1 for r in records if "error" in r)


def tail_percentile(values: list):
    """(p, value) for the highest of p99 and p90 with at least ten samples
    beyond it, or None when there are too few samples."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    begin = perf_counter()
    deadline = begin + HARD_LIMIT_S
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    trace_path = os.path.join(OUT, f"{workload}.trace.json")
    if trace:
        os.makedirs(OUT, exist_ok=True)
    plain, traced, layers = [], [], []
    while True:
        rec = run_child(workload, seed, deadline)
        plain.append(rec)
        if trace and not rec.get("fatal"):
            rec = run_child(workload, seed, deadline, trace_path)
            traced.append(rec)
            if "wall_raw_s" in rec:
                with open(trace_path) as fh:
                    layers.append(tracer.layer_metrics(json.load(fh)))
        elapsed = perf_counter() - begin
        if rec.get("fatal") or (elapsed >= seconds and len(plain) >= (1 if trace else MIN_RUNS)):
            break
    return {"plain": plain, "traced": traced, "layers": layers}


def report(workload: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the run's figures and return its result object.  Timings come
    from every run that printed a record, failed checks included."""
    attempted, failed = error_count(res["plain"] + res["traced"])
    for r in res["plain"] + res["traced"]:
        if "error" in r:
            print(f"{workload}: failed run: {r['error']}")
    print(f"{workload} (seed {seed}): {attempted} runs, {failed} failed, "
          f"error_rate {failed / attempted:.4g} (1)")
    metrics = {}
    if not trace:
        timed = [r for r in res["plain"] if "wall_s" in r]
        if not timed:
            raise SystemExit(f"{workload}: no run finished")
        for name, unit, raw in END_TO_END:
            values = [r[name] for r in timed]
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {tail[1]:.4f}" if tail else
                         "no tail percentile: needs ten runs beyond it")
            raw_text = (f", unscaled median {statistics.median(r[raw] for r in timed):.4f}"
                        if raw else "")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name:<12} median {metrics[name]['value']:.4f} {unit}  (n={len(values)}, "
                  f"min {min(values):.4f}, max {max(values):.4f}{raw_text}; {tail_text})")
    else:
        if not res["layers"]:
            raise SystemExit(f"{workload}: no traced run finished")
        first = res["layers"][0]
        if any(m[k] != first[k] for m in res["layers"] for k in tracer.count_names()):
            print(f"{workload}: count metrics differ between traced runs")
            failed += 1
        for name in first:
            metrics[name] = {"value": statistics.median(m[name] for m in res["layers"]),
                             "unit": tracer.unit(name)}
        walls = [statistics.median(r["wall_raw_s"] for r in res[side] if "wall_raw_s" in r)
                 for side in ("traced", "plain")]
        metrics["trace.overhead_s"] = {"value": walls[0] - walls[1], "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "monsterlie", "cli.py")):
        print(f"no monsterlie sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, res, bool(args.trace))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
