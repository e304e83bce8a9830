"""Command-line interface.

Every subcommand prints a single JSON report to stdout: an object with a
"status" field (value / pass / fail) and a "payload" field.  Reports are
byte-identical across identical invocations: keys are sorted, separators
fixed, and all randomness is seeded.  Progress and timing go to stderr.
Exit codes: 0 for value/pass, 1 for fail, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import center, pairing, repn
from .errors import BadArgument, QgcError
from .linalg import rank
from .qgroup import Algebra


def _split_ints(text):
    return tuple(int(x) for x in text.split(","))


def _split_fractions(text):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except ZeroDivisionError:
        # argparse turns a ValueError into a usage error
        raise ValueError(f"zero denominator in {text!r}") from None


def _fraction_str(q) -> str:
    return str(Fraction(q))


def _attach_signed_values(argv):
    """argv with each value such as -1,0 joined to its option (--mu-fund=-1,0):
    argparse takes a bare number such as -1 as a value, but -1,0 as an option."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def parse(argv):
    """Parse an argument vector into a validated command namespace."""
    top = argparse.ArgumentParser(
        prog="qgc",
        description="exact computations in two-parameter quantum groups of "
                    "type B: graded bases, pairings, weight modules, central "
                    "elements, and Harish-Chandra images")
    sub = top.add_subparsers(dest="command", required=True)

    def add_command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_rank(p):
        p.add_argument("--n", type=int, required=True, help="rank (>= 1)")

    def add_lambda(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--lambda-fund", type=_split_ints, dest="lambda_fund",
                       metavar="c1,...,cN",
                       help="weight in fundamental-weight coordinates")
        g.add_argument("--lambda-alpha", type=_split_fractions,
                       dest="lambda_alpha", metavar="q1,...,qN",
                       help="weight in simple-root coordinates (rationals)")

    p = add_command("root-data", _cmd_root_data, help="simple roots, rho, Weyl data")
    add_rank(p)

    p = add_command("graded-dim", _cmd_graded_basis, help="dimension of a graded slice")
    add_rank(p)
    p.add_argument("--sign", choices=["+", "-"], required=True)
    p.add_argument("--nu", type=_split_ints, required=True,
                   metavar="c1,...,cN", help="content over the simple roots")

    p = add_command("pairing-gram", _cmd_pairing_gram, help="Gram matrix of a graded slice")
    add_rank(p)
    p.add_argument("--nu", type=_split_ints, required=True, metavar="c1,...,cN")

    p = add_command("rosso-check", _cmd_rosso_check, help="fuzz the form's ad-invariance")
    add_rank(p)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = add_command("verma", _cmd_verma, help="truncated highest-weight module")
    add_rank(p)
    add_lambda(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mu-fund", type=_split_ints, dest="mu_fund",
                   metavar="c1,...,cN")
    g.add_argument("--mu-alpha", type=_split_fractions, dest="mu_alpha",
                   metavar="q1,...,qN")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--check-qint", action="store_true",
                   help="verify the quantum-integer lowering-string identity")

    p = add_command("irrep", _cmd_irrep, help="irreducible module of a dominant weight")
    add_rank(p)
    add_lambda(p)

    p = add_command("central", _cmd_central,
                    help="central element of a dominant root-lattice weight")
    add_rank(p)
    add_lambda(p)
    p.add_argument("--method", choices=["trace", "solve"], default="trace")
    p.add_argument("--verify", action="store_true",
                   help="accepted for compatibility: every element is certified "
                        "by the adjoint-action centrality check before it is "
                        "reported")

    p = add_command("hc-image", _cmd_hc_image,
                    help="Harish-Chandra image of the central element")
    add_rank(p)
    add_lambda(p)

    p = add_command("parity-kernel", _cmd_parity_kernel,
                    help="toral exponents invisible to the characters")
    add_rank(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--mode", choices=["lambda", "full"], default="lambda")

    p = add_command("selftest", _cmd_selftest, help="run a quick built-in check battery")
    p.add_argument("--fast", action="store_true",
                   help="skip the central-element cross check")

    args = top.parse_args(_attach_signed_values(argv))
    for attr, low in (("n", 1), ("depth", 0), ("trials", 1), ("height", 1),
                      ("bound", 1)):
        value = getattr(args, attr, None)
        if value is not None and value < low:
            top.error(f"--{attr} must be at least {low}")
    for attr in ("lambda_fund", "lambda_alpha", "mu_fund", "mu_alpha", "nu"):
        vec = getattr(args, attr, None)
        if vec is not None and len(vec) != args.n:
            top.error(f"--{attr.replace('_', '-')} needs {args.n} entries")
    return args


def _resolve_weight(alg, fund, alpha, default_zero=False):
    if fund is not None:
        return alg.rs.from_fund(fund)
    if alpha is not None:
        vec = alg.rs.from_alpha(alpha)
        if not alg.rs.in_weight_lattice(vec):
            typed = ",".join(map(_fraction_str, alpha))
            raise BadArgument(f"alpha coordinates {typed} do not give a lattice weight")
        return tuple(int(x) for x in vec)
    if default_zero:
        return (0,) * alg.n
    raise BadArgument("missing weight argument")


def _weight_payload(alg, w):
    return {"eps_doubled": list(w),
            "alpha": [_fraction_str(q) for q in alg.rs.alpha_coords(w)]}


def run(args):
    """Execute a parsed command; returns (report dict, exit code)."""
    status, payload = args.handler(args)
    return {"status": status, "payload": payload}, (0 if status != "fail" else 1)


def _cmd_root_data(args):
    alg = Algebra(args.n)
    rs = alg.rs
    payload = {
        "n": args.n,
        "simple_roots": [list(a) for a in rs.simple_roots],
        "positive_roots": [list(a) for a in rs.positive_roots],
        "rho": list(rs.rho),
        "fundamental_weights": [list(w) for w in rs.fundamental_weights],
        "weyl_order": 2 ** args.n * math.factorial(args.n),
    }
    return "value", payload


def _cmd_graded_basis(args):
    alg = Algebra(args.n)
    basis = alg.graded_basis(args.sign, args.nu)
    payload = {
        "n": args.n,
        "sign": args.sign,
        "nu": list(args.nu),
        "dim": basis.dim,
        "kostant": alg.rs.kostant_count(args.nu),
        "words": [list(w) for w in basis.words],
    }
    return "value", payload


def _cmd_pairing_gram(args):
    alg = Algebra(args.n)
    g = pairing.gram(alg, args.nu)
    payload = {
        "n": args.n,
        "nu": list(args.nu),
        "dim": len(g),
        "gram": [[x.to_json() for x in row] for row in g],
        "nonsingular": rank(g) == len(g) if g else True,
    }
    return "value", payload


def _cmd_rosso_check(args):
    alg = Algebra(args.n)
    rng = random.Random(args.seed)

    def rand_elt():
        x = alg.one()
        for _ in range(rng.randint(1, args.height)):
            kind = rng.choice(["e", "f", "w", "wp"])
            i = rng.randint(1, alg.n)
            if kind == "e":
                x = x * alg.e(i)
            elif kind == "f":
                x = x * alg.f(i)
            elif kind == "w":
                x = x * alg.omega(i, rng.choice([1, -1]))
            else:
                x = x * alg.omega_prime(i, rng.choice([1, -1]))
        return x

    gens = [alg.e(i) for i in range(1, alg.n + 1)] + \
           [alg.f(i) for i in range(1, alg.n + 1)] + \
           [alg.omega(i) for i in range(1, alg.n + 1)] + \
           [alg.omega_prime(i) for i in range(1, alg.n + 1)]
    failures = []
    checks = 0
    for _ in range(args.trials):
        a = rng.choice(gens)
        b, c = rand_elt(), rand_elt()
        checks += 1
        if not pairing.check_ad_invariance(alg, a, b, c):
            failures.append({"a": str(a), "b": str(b), "c": str(c)})
    payload = {
        "n": args.n,
        "height": args.height,
        "trials": args.trials,
        "seed": args.seed,
        "checks": checks,
        "failures": failures,
    }
    return ("pass" if not failures else "fail"), payload


def _cmd_verma(args):
    alg = Algebra(args.n)
    lam = _resolve_weight(alg, args.lambda_fund, args.lambda_alpha)
    mu = _resolve_weight(alg, args.mu_fund, args.mu_alpha, default_zero=True)
    module = repn.verma(alg, lam, mu, args.depth)
    mults = sorted(module.weight_multiplicities().items())
    payload = {
        "n": args.n,
        "lambda": _weight_payload(alg, lam),
        "mu": _weight_payload(alg, mu),
        "depth": args.depth,
        "dim": module.dim,
        "weights": [{"weight": list(w), "mult": m} for w, m in mults],
    }
    status = "value"
    if args.check_qint:
        details = []
        ok_all = True
        for i in range(1, alg.n + 1):
            m = alg.rs.coroot_pair(lam, i)
            if m.denominator != 1 or m < 0:
                details.append({"i": i, "skipped": True})
                continue
            ok = repn.qint_action_identity(alg, lam, mu, i)
            ok_all = ok_all and ok
            details.append({"i": i, "pass": ok})
        payload["qint_identity"] = details
        status = "pass" if ok_all else "fail"
    return status, payload


def _cmd_irrep(args):
    alg = Algebra(args.n)
    lam = _resolve_weight(alg, args.lambda_fund, args.lambda_alpha)
    module = repn.irreducible(alg, lam)
    mults = module.weight_multiplicities()
    freud = alg.rs.freudenthal_mults(lam)
    payload = {
        "n": args.n,
        "lambda": _weight_payload(alg, lam),
        "dim": module.dim,
        "weyl_dim": alg.rs.weyl_dim(lam),
        "multiplicities": [{"weight": list(w), "mult": m}
                           for w, m in sorted(mults.items())],
        "freudenthal_match": mults == freud,
    }
    return ("value" if mults == freud else "fail"), payload


def _cmd_central(args):
    alg = Algebra(args.n)
    lam = _resolve_weight(alg, args.lambda_fund, args.lambda_alpha)
    # both constructions raise CentralityCheckFailed unless certified
    build = center.central_from_trace if args.method == "trace" else center.central_by_solve
    cand = build(alg, lam)
    image = center.hc_xi(alg, cand.element)
    payload = {
        "n": args.n,
        "lambda": _weight_payload(alg, lam),
        "method": args.method,
        "verified": True,
        "term_count": len(cand.element.terms),
        "element": cand.element.to_json(),
        "hc_image": _toral_json(image),
    }
    return "value", payload


def _toral_json(t):
    return [{"eta": list(eta), "phi": list(phi), "coeff": c.to_json()}
            for (eta, phi), c in sorted(t.items())]


def _cmd_hc_image(args):
    alg = Algebra(args.n)
    lam = _resolve_weight(alg, args.lambda_fund, args.lambda_alpha)
    cand = center.central_from_trace(alg, lam)
    image = center.hc_xi(alg, cand.element)
    invariant = all(center.weyl_act(alg, alg.rs.simple_reflection(i), image) == image
                    for i in range(1, alg.n + 1))
    expansion = center.av_expand(alg, image) if invariant else {}
    payload = {
        "n": args.n,
        "lambda": _weight_payload(alg, lam),
        "image": _toral_json(image),
        "weyl_invariant": invariant,
        "av_expansion": [{"weight": list(w), "coeff": c.to_json()}
                         for w, c in sorted(expansion.items())],
    }
    return ("value" if invariant else "fail"), payload


def _cmd_parity_kernel(args):
    mode = "lambda_only" if args.mode == "lambda" else "full"
    kernel = center.parity_kernel(args.n, args.bound, mode)
    payload = {
        "n": args.n,
        "bound": args.bound,
        "mode": args.mode,
        "count": len(kernel),
        "kernel": [{"eta": list(eta), "phi": list(phi)} for eta, phi in kernel],
    }
    return "value", payload


def _cmd_selftest(args):
    checks = []

    def record(name, fn):
        t0 = time.monotonic()
        try:
            ok = bool(fn())
        except Exception as exc:  # structured failure, not a crash
            print(f"selftest {name}: {exc}", file=sys.stderr)
            ok = False
        dt = time.monotonic() - t0
        print(f"selftest {name}: {'pass' if ok else 'FAIL'} ({dt:.2f}s)",
              file=sys.stderr)
        checks.append({"name": name, "status": "pass" if ok else "fail"})

    def relators_zero():
        for n in (1, 2):
            alg = Algebra(n)
            for sign in "+-":
                gen = alg.e if sign == "+" else alg.f
                for rel in alg.serre_relators(sign):
                    total = alg.zero()
                    for word, c in rel.items():
                        term = alg.one()
                        for i in word:
                            term = term * gen(i)
                        total = total + term.scale(c)
                    if not total.is_zero():
                        return False
        return True

    def pairing_values():
        alg = Algebra(2)
        from .scalars import ZERO
        for i in (1, 2):
            for j in (1, 2):
                got = pairing.skew_pair(alg, alg.f(i), alg.e(j))
                expect = (alg.s_i(i) - alg.r_i(i)).inverse() if i == j else ZERO
                if got != expect:
                    return False
        return True

    def gram_nonsingular():
        alg = Algebra(2)
        for nu in [(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]:
            g = pairing.gram(alg, nu)
            if rank(g) != len(g):
                return False
        return True

    def irrep_dims():
        alg = Algebra(2)
        return repn.irreducible(alg, (2, 0)).dim == 5

    def central_cross_check():
        alg = Algebra(2)
        a = center.central_from_trace(alg, (2, 0))
        b = center.central_by_solve(alg, (2, 0))
        return a.element == b.element

    def parity_modes():
        return center.parity_kernel(2, 2, "lambda_only") == [] and \
            center.parity_kernel(1, 2, "lambda_only") != []

    record("relators_normalize_to_zero", relators_zero)
    record("pairing_generator_values", pairing_values)
    record("gram_nonsingular", gram_nonsingular)
    record("irrep_dimensions", irrep_dims)
    record("parity_kernel_modes", parity_modes)
    if not args.fast:
        record("central_trace_vs_solve", central_cross_check)
    ok = all(c["status"] == "pass" for c in checks)
    return ("pass" if ok else "fail"), {"checks": checks}


def main(argv=None):
    args = parse(argv if argv is not None else sys.argv[1:])
    t0 = time.monotonic()
    try:
        report, code = run(args)
    except QgcError as exc:
        report = {"status": "fail",
                  "payload": {"error": type(exc).__name__, "message": str(exc)}}
        code = 1
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
