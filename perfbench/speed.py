"""CPU-speed reference sampled inside a benchmark process.

The CPU speed of a shared machine drifts: on the 2-core machine this
benchmark was built on, the same computation took anywhere from 4.5 to
8.1 s within a few minutes. The noise slows whatever runs on the CPU at
that moment, so a fixed reference loop run at the same moments measures
it. A timer signal runs the loop every INTERVAL_S inside the measured
process itself, and a time is reported as what it would have been at the
reference speed:

    normalized = (raw - time spent in samples) * REF_S / median(sample)

Run a module under the probe with

    python3 perfbench/speed.py MODULE ARGS...

which behaves like ``python3 -m MODULE ARGS...`` and appends one JSON line
with the probe's summary to stderr.
"""

import json
import runpy
import signal
import sys
import time

INTERVAL_S = 0.04
# duration of one reference sample on the build machine at its fastest
REF_S = 3.0e-4
_A = 7 ** 400
_B = 11 ** 380 + 12345


def _reference():
    """Fixed pure-Python work: small dicts with tuple keys, then big integers.

    The two halves stand for the kernel's two kinds of work: normal-form
    bookkeeping in dicts, and sympy's heuristic gcd on multi-limb integers.
    On the build machine, the normalized quartile spread of repeated runs
    was 5.1% for trace-r2 (raw 16.2%) and 5.0% for the bases-r3 operations
    (raw 7.0%).  The dict half alone gave 6.2% and 19.7%.
    """
    out = []
    for i in range(60):
        d = {(i, j): j for j in range(6)}
        out.append(tuple(sorted(d)))
    x = _A
    for i in range(40):
        x = (x * _B + i) % (_A + i)
    return len(out), x


class SpeedProbe:
    """Samples the reference loop on a timer while it runs."""

    def __init__(self):
        self.samples = []   # (start, duration)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def summary(self, since=float("-inf"), until=float("inf")):
        """(speed, sampling seconds) over the samples started in the window.

        speed is REF_S over the median sample duration: 1.0 at the reference
        speed, below 1 on a slowed-down CPU.
        """
        durations = sorted(d for s, d in self.samples if since <= s < until)
        if not durations:
            return 1.0, 0.0
        return REF_S / durations[len(durations) // 2], sum(durations)

    def normalize(self, since, until):
        """Seconds the window [since, until) would take at the reference speed."""
        speed, overhead = self.summary(since, until)
        return (until - since - overhead) * speed


def run_module(argv):
    """Run argv[0] as __main__ under the probe; report the probe on stderr."""
    probe = SpeedProbe().start()
    sys.argv = argv
    code = 0
    try:
        runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        probe.stop()
        speed, overhead = probe.summary()
        sys.stdout.flush()
        print(json.dumps({"speed": speed, "sampling_s": overhead}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(run_module(sys.argv[1:]))
