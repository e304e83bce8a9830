"""Time the long central-element builds, each in a fresh process.

Run from the root of a qgc checkout:

    python3 tools/long_runs.py              # every build, in the order below
    python3 tools/long_runs.py NAME ...     # the named builds only

Each build prints one JSON line: its name, rank, weight (doubled epsilon
coordinates, as ``Algebra.rs`` takes them) and method, the seconds of the
build alone, the peak RSS in MB of its process and of the largest child
that the centrality checks forked from it (0 when none was), the number
of terms, the sha256 of json.dumps(z.to_json(), sort_keys=True) for the
element z, and the number of gcds that reached sympy (``sympy_gcds``).
That count covers the build's own process only: the gcds of the forked
centrality checks are not in it.  Every build's sha256 is pinned below: a
build whose element differs says so on stderr, after its JSON line, and
the script exits with 1 (with 2 for an unknown name).
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

R4_2000 = "deb2512c576bc3a7e5fff85aab244240f13bf0b5176e02f9763c29b5fc3b644e"

# name -> (rank, lambda in doubled epsilon coordinates, method, sha256)
BUILDS = {
    "trace-r4-2000": (4, (2, 0, 0, 0), "trace", R4_2000),
    "solve-r4-2000": (4, (2, 0, 0, 0), "solve", R4_2000),
    "solve-r2-40": (2, (4, 0), "solve",
                    "6ace30eef5d980fa6eb5ea515bb0900a49f1bf4827131ae57d83602dc0ac2b4b"),
    "trace-r3-220": (3, (2, 2, 0), "trace",
                     "d4d4e21d78f82d31cc2bac1c5f46dd8e5f90bde6211952eee9ae953b309fe3ce"),
}


def build(name):
    """Build one element in this process and print its JSON line; 1 when
    its sha256 is not the pinned one, else 0."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qgc import center, scalars
    from qgc.qgroup import Algebra

    sympy_gcds = 0
    sympy_gcd = scalars._sympy_gcd

    def counted(*args):
        nonlocal sympy_gcds
        sympy_gcds += 1
        return sympy_gcd(*args)

    scalars._sympy_gcd = counted

    n, lam, method, pinned = BUILDS[name]
    construct = {"trace": center.central_from_trace,
                 "solve": center.central_by_solve}[method]
    start = time.perf_counter()
    z = construct(Algebra(n), lam).element
    seconds = time.perf_counter() - start
    text = json.dumps(z.to_json(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps({
        "name": name, "n": n, "lam": list(lam), "method": method,
        "seconds": round(seconds, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "children_peak_rss_mb":
            round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
        "terms": len(z.terms),
        "sha256": digest,
        "sympy_gcds": sympy_gcds,
    }), flush=True)
    if digest != pinned:
        print(f"{name}: sha256 {digest} is not the pinned {pinned}", file=sys.stderr)
        return 1
    return 0


def main(argv):
    if argv[:1] == ["--one"]:
        return build(argv[1])
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
