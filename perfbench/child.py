"""One fresh process of the qgc benchmark; run.py starts these one at a time.

    child.py setup N                      import qgc and build Algebra(N)
    child.py kernel WORKLOAD [SPANS]      one iteration of a kernel workload
    child.py cli SPANS -- QGC-ARGS...     one qgc command under the tracer

Each mode prints JSON lines on stdout.  A kernel iteration prints a "done"
line as soon as its timed operations finish, then runs the oracle checks
and prints a "checked" line with a sha256 digest of every output.  Passing
SPANS turns the layer trace on and names the file the spans go to.  Every
mode runs under the CPU-speed probe of speed.py, and reported times are
normalized by it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import resource
import sys
import time

from speed import SpeedProbe

KERNEL_RANK = {"trace-r2": 2, "solve-r2": 2, "bases-r3": 3}
CENTRAL_LAMBDAS = ((2, 0), (2, 2))
IRREPS_R3 = ((2, 0, 0), (1, 1, 1))
# toral exponents eta of the five-term image of the lambda=(2,0) element,
# each with coefficient 1 and phi = -eta
HC_20_ETAS = ((1, 1), (-1, -1), (0, 1), (0, -1), (0, 0))


def digest(obj) -> str:
    """sha256 of the canonical JSON of obj (sorted keys, fixed separators)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def emit(**fields):
    print(json.dumps(fields), flush=True)


# -- kernel workloads: the timed operations -------------------------------------

def trace_r2(alg, run):
    from qgc import center
    cands = [run("central", lam, center.central_from_trace, alg)
             for lam in CENTRAL_LAMBDAS]
    for lam, cand in zip(CENTRAL_LAMBDAS, cands):
        if cand is not None:
            run("hc", lam, hc_chain, alg, cand.element)


def hc_chain(alg, lam, z):
    """hc_xi and av_expand of the central element z built for lam."""
    from qgc import center
    image = center.hc_xi(alg, z)
    return image, center.av_expand(alg, image)


def solve_r2(alg, run):
    from qgc import center
    for lam in CENTRAL_LAMBDAS:
        run("central", lam, center.central_by_solve, alg)


def bases_r3(alg, run):
    from qgc import repn
    for nu in itertools.product(range(3), repeat=3):
        if any(nu):
            run("dual_basis", nu, bases_and_dual, alg)
    for lam in IRREPS_R3:
        run("irreducible", lam, repn.irreducible, alg)


def bases_and_dual(alg, nu):
    from qgc import pairing
    return (alg.graded_basis("+", nu), alg.graded_basis("-", nu),
            pairing.dual_basis(alg, nu))


WORKLOADS = {"trace-r2": trace_r2, "solve-r2": solve_r2, "bases-r3": bases_r3}


# -- oracle checks, outside the timed region -------------------------------------

def check_central(alg, lam, cand):
    errors = [] if tuple(cand.lam) == lam else [f"candidate for {cand.lam}"]
    return digest(cand.element.to_json()), errors


def _toral_json(t):
    return [[list(eta), list(phi), c.to_json()] for (eta, phi), c in sorted(t.items())]


def check_hc(alg, lam, value):
    from qgc import center
    from qgc.scalars import ONE
    image, expansion = value
    errors = [f"image not invariant under s_{i}" for i in range(1, alg.n + 1)
              if center.weyl_act(alg, alg.rs.simple_reflection(i), image) != image]
    if lam == (2, 0):
        expect = {(eta, tuple(-x for x in eta)): ONE for eta in HC_20_ETAS}
        if image != expect:
            errors.append("image is not the five-term image of the vector rep")
    expansion_json = [[list(w), c.to_json()] for w, c in sorted(expansion.items())]
    return digest({"image": _toral_json(image), "av": expansion_json}), errors


def check_dual_basis(alg, nu, value):
    from qgc import pairing
    from qgc.scalars import LaurentBi
    plus, minus, pair = value
    errors = []
    kostant = alg.rs.kostant_count(nu)
    for basis in (plus, minus):
        if basis.dim != kostant:
            errors.append(f"{basis.sign} dim {basis.dim} != kostant {kostant}")
    # G.G^-1 = I, with each row of G and each column of G^-1 brought to a
    # common denominator so the products run over Laurent polynomials
    g = [_cleared(row) for row in pairing.gram(alg, nu)]
    inv = pair.coeffs
    cols = [_cleared([row[j] for row in inv]) for j in range(len(inv))]
    for i, (grow, gden) in enumerate(g):
        for j, (col, cden) in enumerate(cols):
            acc = sum((a * b for a, b in zip(grow, col)), LaurentBi())
            if acc != (gden * cden if i == j else LaurentBi()):
                errors.append(f"G.G^-1 differs from I at ({i},{j})")
    out = {"e_words": [list(w) for w in pair.e_words],
           "f_words": [list(w) for w in pair.f_words],
           "coeffs": [[c.to_json() for c in row] for row in inv]}
    return digest(out), errors


def _cleared(scalars):
    """(numerators, den) with scalars[k] = numerators[k] / den."""
    from qgc.scalars import LaurentBi
    den = LaurentBi.const(1)
    for x in scalars:
        den = den * x.den.divexact(den.gcd(x.den))
    return [x.num * den.divexact(x.den) for x in scalars], den


def check_irreducible(alg, lam, module):
    mults = module.weight_multiplicities()
    errors = []
    if mults != alg.rs.freudenthal_mults(lam):
        errors.append("multiplicities differ from Freudenthal")
    if module.dim != alg.rs.weyl_dim(lam):
        errors.append(f"dim {module.dim} != weyl_dim {alg.rs.weyl_dim(lam)}")
    return digest([[list(w), m] for w, m in sorted(mults.items())]), errors


CHECKS = {"central": check_central, "hc": check_hc,
          "dual_basis": check_dual_basis, "irreducible": check_irreducible}


# -- modes ------------------------------------------------------------------------

def set_up(n):
    """Import the whole package and build Algebra(n); returns (alg, import_s)."""
    start = time.perf_counter()
    import qgc.cli  # noqa: F401  pulls in every layer and sympy
    import_s = time.perf_counter() - start
    from qgc.qgroup import Algebra
    return Algebra(n), import_s


def main_setup(n):
    probe = SpeedProbe().start()
    start = time.perf_counter()
    _, import_s = set_up(n)
    end = time.perf_counter()
    probe.stop()
    emit(event="setup", import_s=import_s, setup_s=probe.normalize(start, end),
         raw_setup_s=end - start)


def main_kernel(workload, spans_path=None):
    probe = SpeedProbe().start()
    alg = set_up(KERNEL_RANK[workload])[0]
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []

    def run(kind, arg, fn, alg, *extra):
        """Run fn(alg, arg, *extra) as the operation named "kind arg"."""
        if tracer:
            tracer.begin_op(len(results))
        try:
            value, error = fn(alg, arg, *extra), None
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_op()
        results.append((kind, arg, value, error))
        return value

    start = time.perf_counter()
    WORKLOADS[workload](alg, run)
    end = time.perf_counter()
    probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # speed over the whole life of the child normalizes its spawn-to-done time
    speed, sampling_s = probe.summary()
    emit(event="done", wall_s=probe.normalize(start, end), raw_wall_s=end - start,
         speed=speed, sampling_s=sampling_s, rss_mb=rss_mb)

    checked = []
    for kind, arg, value, error in results:
        name = f"{kind} {arg}"
        if error is not None:
            checked.append({"name": name, "digest": None, "errors": [error]})
            continue
        try:
            sha, errors = CHECKS[kind](alg, arg, value)
        except Exception as exc:  # a crashing oracle fails the operation
            sha, errors = None, [f"check raised {type(exc).__name__}: {exc}"]
        checked.append({"name": name, "digest": sha, "errors": errors})
    raw = None
    if tracer:
        tracer.dump(spans_path)
        raw = tracer.raw()
    emit(event="checked", ops=checked, raw=raw)


def main_cli(spans_path, argv):
    probe = SpeedProbe().start()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    import qgc.cli
    out = io.StringIO()
    tracer.begin_op(0)
    with contextlib.redirect_stdout(out):
        try:
            code = qgc.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit with 2
            code = exc.code
    tracer.end_op()
    probe.stop()
    tracer.dump(spans_path)
    raw = tracer.raw()
    raw["cli.stdout_bytes"] = len(out.getvalue().encode())
    speed, sampling_s = probe.summary()
    emit(event="cli", exit=code, stdout=out.getvalue(), raw=raw,
         speed=speed, sampling_s=sampling_s)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        main_setup(int(argv[1]))
    elif mode == "kernel":
        main_kernel(argv[1], argv[2] if len(argv) > 2 else None)
    elif mode == "cli":
        main_cli(argv[1], argv[argv.index("--") + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
