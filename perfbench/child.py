"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <start> [<trace file>]

<start> is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so the set-up
time covers interpreter start-up, importing monsterlie and building the
inputs.  With a trace file, spans are recorded and written there at the
end.  The last stdout line is a JSON record of the measurements and of
every command's exit code and report.  Exit code 3 means monsterlie
could not be imported.

Speed normalisation: on a shared machine the same code runs up to 1.8x
slower while other tenants load the core, and that load changes within
seconds.  An untraced run therefore samples the machine's speed all
along: every PROBE_INTERVAL_S a signal handler times a fixed piece of
Python arithmetic.  wall_s and setup_s are the measured times, minus the
time spent in probes, scaled by REF_PROBE_S / (mean probe time): seconds
at the speed where one probe takes REF_PROBE_S.  The unscaled times are
kept as wall_raw_s and setup_raw_s.  A traced run is not probed.
"""

import io
import json
import os
import resource
import signal
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_INTERVAL_S = 0.02
PROBE_STEPS = 100
# Sets only the scale of wall_s and setup_s: about one probe's time when
# run alone in a loop on an idle core of the 2-vCPU VM the baseline was
# recorded on (Python 3.11.7).  Probes inside a workload run slower, so
# scaled times read below unscaled ones even on a quiet machine.
REF_PROBE_S = 250e-6


class SpeedProbe:
    """Times PROBE_STEPS Fraction multiply-adds every PROBE_INTERVAL_S."""

    def __init__(self):
        self.total = 0.0
        self.count = 0
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t = perf_counter()
        acc, x = 0, Fraction(1, 3)
        for i in range(PROBE_STEPS):
            acc += x * i
        self.total += perf_counter() - t
        self.count += 1
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    workload, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    trace_path = sys.argv[4] if len(sys.argv) > 4 else None
    probe = SpeedProbe()
    if not trace_path:
        probe.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from monsterlie import cli
    except ImportError as e:
        print(f"cannot import monsterlie from {ROOT}/src: {e}", file=sys.stderr)
        return 3
    import workloads
    argvs = workloads.commands(workload, seed)
    setup_raw_s = perf_counter() - start - probe.total

    tracer = None
    if trace_path:
        import tracer as tracing
        tracer = tracing.Tracer(os.getpid())
        tracer.install()

    outputs = []
    wall_raw_s = 0.0
    for argv in argvs:
        buf = io.StringIO()
        probed = probe.total
        t = perf_counter()
        with redirect_stdout(buf):
            code = cli.main(argv)
        wall_raw_s += perf_counter() - t - (probe.total - probed)
        outputs.append((code, buf.getvalue()))
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(trace_path)
    rec = {"wall_raw_s": wall_raw_s, "setup_raw_s": setup_raw_s,
           "peak_rss_mb": peak_rss_mb, "probes": probe.count, "outputs": outputs}
    if probe.count:
        scale = REF_PROBE_S / (probe.total / probe.count)
        rec.update(wall_s=wall_raw_s * scale, setup_s=setup_raw_s * scale)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
