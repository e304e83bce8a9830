"""Time the long central-element builds, each in a fresh process.

Run from the root of a qgc checkout:

    python3 tools/long_runs.py              # every build, in the order below
    python3 tools/long_runs.py NAME ...     # the named builds only

Each build prints one JSON line: its name, rank, weight (doubled epsilon
coordinates, as ``Algebra.rs`` takes them) and method, the seconds of the
build alone, the peak RSS of its process in MB, the number of terms, and
the sha256 of json.dumps(z.to_json(), sort_keys=True) for the element z.
The builds run one after another, so each has the machine's other cores to
itself only if nothing else is running.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (rank, lambda in doubled epsilon coordinates, method)
BUILDS = {
    "trace-r4-2000": (4, (2, 0, 0, 0), "trace"),
    "solve-r4-2000": (4, (2, 0, 0, 0), "solve"),
    "solve-r2-40": (2, (4, 0), "solve"),
    "trace-r3-220": (3, (2, 2, 0), "trace"),
}


def build(name):
    """Build one element in this process and print its JSON line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qgc import center
    from qgc.qgroup import Algebra

    n, lam, method = BUILDS[name]
    construct = {"trace": center.central_from_trace,
                 "solve": center.central_by_solve}[method]
    start = time.perf_counter()
    z = construct(Algebra(n), lam).element
    seconds = time.perf_counter() - start
    text = json.dumps(z.to_json(), sort_keys=True)
    print(json.dumps({
        "name": name, "n": n, "lam": list(lam), "method": method,
        "seconds": round(seconds, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "terms": len(z.terms),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }), flush=True)


def main(argv):
    if argv[:1] == ["--one"]:
        build(argv[1])
        return 0
    names = argv or list(BUILDS)
    unknown = [x for x in names if x not in BUILDS]
    if unknown:
        print(f"unknown build {unknown[0]!r}; choose from {', '.join(BUILDS)}",
              file=sys.stderr)
        return 2
    status = 0
    for name in names:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", name])
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
