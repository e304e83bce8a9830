"""Central elements and the Harish-Chandra homomorphism.

Toral parts live on monomials w'_eta w_phi; the Harish-Chandra image of an
element drops all terms with raising or lowering content and rescales the
rest by the character of -rho.  Central candidates live on the blocks of
one table (``_blocks``); they are assembled from matrix coefficients of an
irreducible module against graded dual bases, or solved for, and certified
by the adjoint-action criterion: z is central exactly when every
generator acts on it through the counit.  The lowering generators are
certified through the anti-automorphism tau (r <-> s, e_i <-> f_i,
w_i <-> w'_i; Benkart-Witherspoon, Bergeron-Gao-Hu): a z that commutes
with the torals and is fixed by tau commutes with f_i exactly when it
commutes with e_i, so only the raising generators act, through the
Leibniz rule of ``Algebra.ad`` with no straightening.  A z that is not
fixed by tau has its lowering generators checked directly.  These checks
read z alone, so they run side by side, one worker per usable core: the
process takes its share and forked children the rest, each child reaped
before the list returns, which is the same whatever the split.  The
solver's rows are those ad(e_i) images alone, fed block by block in
height order: each block's rows meet only its own unknowns and the values
below it.
"""

from __future__ import annotations

import itertools
import marshal
import os
import signal
import threading
from fractions import Fraction

from . import linalg
from .errors import (
    BadArgument,
    CentralityCheckFailed,
    InternalInconsistency,
    NoSolution,
    NotDominant,
    NotInRootLattice,
    NotInUb0,
)
from .pairing import dual_basis
from .qgroup import Algebra, Element, word_content
from .repn import act, char_exponents, char_value, irreducible, theta
from .rootdata import WeylElement
from .scalars import ZERO, Scalar, accumulate, add_scaled


# ---------------------------------------------------------------------------
# toral parts: dict {(eta, phi): Scalar} over alpha-coordinate exponents
# ---------------------------------------------------------------------------

def toral_is_balanced(t):
    return all(phi == tuple(-x for x in eta) for eta, phi in t)


def hc_xi(alg: Algebra, x: Element):
    """Harish-Chandra image: project onto toral terms, then shift by -rho.

    Projection is total; the toral monomial w'_eta w_phi picks up the
    character of -rho, which on balanced monomials is (r s^-1)^(2 (rho, eta)).
    """
    alg.check_element(x)
    minus_rho = tuple(-x for x in alg.rs.rho)
    out = {}
    for (fw, eta, phi, ew), c in x.terms.items():
        if fw or ew:
            continue
        accumulate(out, (eta, phi),
                   c * char_value(alg, minus_rho, (0,) * alg.n, eta, phi))
    return out


def char_eval(alg: Algebra, lam, mu, t) -> Scalar:
    """Evaluate the character pair (lam, mu) on a toral part."""
    total = ZERO
    for (eta, phi), c in t.items():
        total = total + c * char_value(alg, lam, mu, eta, phi)
    return total


def weyl_act(alg: Algebra, sigma: WeylElement, t):
    """Weyl action on balanced toral monomials."""
    out = {}
    for (eta, phi), c in t.items():
        if phi != tuple(-x for x in eta):
            raise NotInUb0(f"monomial with eta={eta}, phi={phi} is not balanced")
        img = alg.rs.root_coords(sigma.act(alg.rs.from_alpha(eta)))
        accumulate(out, (img, tuple(-x for x in img)), c)
    return out


def av(alg: Algebra, lam):
    """Weyl-group average of the balanced monomial of a dominant weight."""
    lam = tuple(lam)
    if not alg.rs.in_root_lattice(lam):
        raise NotInRootLattice(f"{lam} is not in the root lattice")
    if not alg.rs.is_dominant(lam):
        raise NotDominant(f"{lam} is not dominant")
    orbit = alg.rs.weyl_orbit(lam)
    coeff = Scalar.from_fraction(Fraction(1, len(orbit)))
    out = {}
    for w in orbit:
        eta = alg.rs.root_coords(w)
        out[(eta, tuple(-x for x in eta))] = coeff
    return out


def av_expand(alg: Algebra, t):
    """Expansion of a Weyl-invariant balanced toral part over averages.

    Returns {dominant weight (doubled): Scalar}; raises NotInUb0 when the
    input is not balanced or not Weyl-invariant.
    """
    if not toral_is_balanced(t):
        raise NotInUb0("toral part is not balanced")
    coeffs = {}
    for (eta, _), c in t.items():
        w = alg.rs.from_alpha(eta)
        dom = alg.rs.dominant_representative(w)
        if w == dom:
            coeffs[dom] = c * Scalar.from_int(len(alg.rs.weyl_orbit(dom)))
    recon = {}
    for dom, c in coeffs.items():
        add_scaled(recon, av(alg, dom), c)
    if recon != t:
        raise NotInUb0("toral part is not Weyl-invariant")
    return coeffs


# ---------------------------------------------------------------------------
# central elements
# ---------------------------------------------------------------------------

class CentralCandidate:
    """A verified central element together with its construction tag."""

    __slots__ = ("element", "lam", "method")

    def __init__(self, element: Element, lam, method: str):
        self.element = element
        self.lam = tuple(lam)
        self.method = method

    def __repr__(self):
        return f"CentralCandidate(lam={self.lam}, method={self.method}, " \
               f"terms={len(self.element.terms)})"


def _require_dominant_root_weight(alg, lam):
    lam = tuple(lam)
    if not alg.rs.in_weight_lattice(lam) or not alg.rs.is_dominant(lam):
        raise NotDominant(f"{lam} is not a dominant lattice weight")
    if not alg.rs.in_root_lattice(lam):
        raise NotInRootLattice(f"{lam} is not in the root lattice")
    return lam


def _cores() -> int:
    """The cores this process may run on; 1 where it cannot fork, or must
    not: a fork copies no other thread, nor frees a lock one holds."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _fork_join(tasks):
    """[task() for task in tasks], shared among min(len(tasks), cores) workers.

    Worker k runs tasks[k::workers].  The last worker is this process; each
    other one is a child forked here, which writes its answers (marshalled)
    or its exception (pickled) to a pipe and leaves by os._exit, so it
    flushes no stdout.  Every child is reaped before this returns or
    raises, and one still running then is killed first.  A child that ends
    without an answer raises InternalInconsistency; a share that cannot be
    forked runs here.
    """
    workers = min(len(tasks), _cores())
    out = [None] * len(tasks)
    children = []  # (k, pid, read end of its pipe) until reaped
    try:
        for k in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the share runs here
                os.close(read)
                os.close(write)
                out[k::workers] = [task() for task in tasks[k::workers]]
                continue
            if pid == 0:
                _answer(write, tasks[k::workers])
            children.append((k, pid, os.fdopen(read, "rb")))
            os.close(write)
        out[workers - 1::workers] = [task() for task in tasks[workers - 1::workers]]
        while children:
            k, pid, pipe = children[0]
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            pipe.close()
            if not data:
                raise InternalInconsistency(
                    f"check worker {k} ended without an answer "
                    f"(exit status {os.waitstatus_to_exitcode(status)})")
            if data[:1] == b"0":
                import pickle  # only an exception is pickled
                raise pickle.loads(data[1:])
            out[k::workers] = marshal.loads(data[1:])
        return out
    finally:
        for _, pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _answer(fd, tasks):
    """In a forked child: run tasks, write the answer to fd, leave.  Any
    exception, an interrupt included, is the answer; one that cannot be
    pickled leaves the pipe empty."""
    try:
        try:
            data = b"1" + marshal.dumps([task() for task in tasks])
        except BaseException as exc:
            import pickle
            data = b"0" + pickle.dumps(exc)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def centrality_failures(alg: Algebra, z: Element):
    """Generators whose adjoint action does not reduce to the counit.

    Returns ("e", i), ("f", i), ("w", i), ("w'", i) in that order per i.
    The f_i are checked through tau (``Algebra.tau``): if z commutes with
    every w_i and w'_i, then ad(e_i) z = e_i z - z e_i and ad(f_i) z =
    (f_i z - z f_i) w'_i^-1, and tau maps e_i z - z e_i to z f_i - f_i z.
    So when also tau(z) = z, f_i fails exactly when e_i does, and the
    n lowering checks cost one word reversal per term instead of 2n
    straightenings.  Otherwise (r z, say, is central but not
    tau-invariant) ad(f_i) z is computed directly.  tau is the
    anti-automorphism of Benkart-Witherspoon (Algebr. Represent. Theory,
    2004) for type A and of Bergeron-Gao-Hu (J. Algebra, 2006) for types
    B-D.

    The checks read z alone and share no result, so they run side by side
    (``_fork_join``): the tasks ad(e_1), ..., ad(e_n), tau(z) = z and the
    2n toral checks go round-robin to one worker per usable core, and the
    n ad(f_i), when needed, to a second round.  On two cores at rank 2 a
    forked child runs e_1 and tau while this process runs e_2 and the
    torals.  The list is the same, in the same order, whatever the split;
    every child is reaped before this returns or raises, and there is no
    option to set: one core, or no os.fork, runs every check here.
    """
    alg.check_element(z)
    idx = range(1, alg.n + 1)

    def acts(g):
        return lambda: not alg.ad(g, z).is_zero()

    def toral():
        return [alg.ad(g(i), z) != z for g in (alg.omega, alg.omega_prime) for i in idx]

    *e_bad, fixed, toral_bad = _fork_join(
        [acts(alg.e(i)) for i in idx] + [lambda: alg.tau(z) == z, toral])
    if fixed and not any(toral_bad):
        f_bad = e_bad
    else:
        f_bad = _fork_join([acts(alg.f(i)) for i in idx])
    w_bad, wp_bad = toral_bad[:alg.n], toral_bad[alg.n:]
    bad = []
    for k, i in enumerate(idx):
        for g, fails in (("e", e_bad), ("f", f_bad), ("w", w_bad), ("w'", wp_bad)):
            if fails[k]:
                bad.append((g, i))
    return bad


def _blocks(alg: Algebra, module):
    """{nu: [(row, eta)]}: nu runs over the nonnegative differences of two
    row contents, and a row belongs to block nu when its content minus nu is
    a row content too.  Its eta is lam minus its content in alpha
    coordinates, and the block's toral exponent is phi = -(eta + nu)."""
    top = alg.rs.root_coords(module.lam)
    contents = [word_content(alg.n, w) for w in module.labels]
    present = set(contents)
    diffs = {tuple(a - b for a, b in zip(c1, c2)) for c1 in present for c2 in present}
    return {nu: [(row, tuple(t - c for t, c in zip(top, content)))
                 for row, content in enumerate(contents)
                 if tuple(c - v for c, v in zip(content, nu)) in present]
            for nu in sorted(diffs) if min(nu) >= 0}


def _certified(alg: Algebra, z: Element, lam, method: str) -> CentralCandidate:
    """z as a CentralCandidate, once every generator acts on it by the counit."""
    bad = centrality_failures(alg, z)
    if bad:
        raise CentralityCheckFailed(f"{method} element fails the adjoint test at {bad}")
    return CentralCandidate(z, lam, method)


def central_from_trace(alg: Algebra, lam) -> CentralCandidate:
    """Central element carried by the graded trace of the irreducible module.

    For every block nu and each of its rows m, of weight w, the contribution is

        sum_{a,b} Psi(v_b, u_a) v_a w'_w w_(-w-nu) u_b
            * (r s^-1)^(-2 (rho, w + nu)) * <w'_nu, w_(w+nu)>

    where {u_a} is the raising graded basis, {v_a} its pairing-dual lowering
    basis, Psi(y, x) evaluates y x against m, and the power of r s^-1 is the
    grading operator at w + nu.  The toral exponents and the group-like
    correction come from matching the matrix-coefficient functional against
    the Borel-factor form.  The sum is certified central before it is returned.
    """
    lam = _require_dominant_root_weight(alg, lam)
    module = irreducible(alg, lam)
    terms = {}
    for nu, rows in _blocks(alg, module).items():
        pair = dual_basis(alg, nu)
        d = pair.dim
        eacts = [act(alg.eword_element(ew), module) for ew in pair.e_words]
        velems = [pair.dual_vector(alg, a) for a in range(d)]
        vacts = [act(v, module) for v in velems]
        for row, eta in rows:
            shifted = tuple(a + b for a, b in zip(eta, nu))
            phi = tuple(-x for x in shifted)
            scale = alg.grading(alg.rs.from_alpha(shifted)) * alg.gpair(nu, shifted)
            for a in range(d):
                for b in range(d):
                    # Psi(v_b, u_a) on the row-th basis vector
                    psi = ZERO
                    for mid, v1 in eacts[a].cols[row].items():
                        v2 = vacts[b].cols[mid].get(row)
                        if v2 is not None:
                            psi = psi + v1 * v2
                    if psi.is_zero():
                        continue
                    coeff = psi * scale
                    for (fw, _, _, _), cf in velems[a].terms.items():
                        accumulate(terms, (fw, eta, phi, pair.e_words[b]),
                                   coeff * cf)
    return _certified(alg, Element(alg, terms), lam, "trace")


def central_by_solve(alg: Algebra, lam) -> CentralCandidate:
    """Independent construction: solve the centrality equations linearly.

    The ansatz runs over y_a w'_eta w_phi x_b on the blocks (nu, eta, phi)
    of the trace recipe; the degree-zero block is pinned to the graded
    character, theta summed per weight, and the remaining coefficients must be
    uniquely determined by the ad(e_i) rows, fed until no unknown is free;
    the certificate covers the rest.  An ad(e_i) row of raising content eps
    meets only the blocks eps - alpha_i and eps, so the rows are fed block
    by block in height order, each with the higher block it meets, and a
    block's images are built when it comes up: its rows then hold its own
    unknowns and the lower blocks' values.  The contents of a row's key fix
    its i, so the rows of all the e_i share one key space.  The ansatz reads
    the graded bases alone: no pairing, no Gram inverse.

    The raising rows alone pin every unknown.  Were two solutions to differ,
    take the lowest block where they do and its toral w'_eta w_phi of least
    eta.  The keys where [e_i, f_y] sets w_i beside that toral meet no other
    unknown, so the difference's lowering part, the sum of c_y f_y, has
    every skew derivation r_i zero, and at a nonzero content it is zero
    (Jantzen's lemma, carried over by the nondegenerate pairing).  A free
    unknown would raise NonUniqueSolution, never a wrong element.
    """
    lam = _require_dominant_root_weight(alg, lam)
    module = irreducible(alg, lam)
    th = theta(module)
    blocks = _blocks(alg, module)

    ansatz = {}
    pinned = {}
    for nu, rows in blocks.items():
        if not any(nu):
            for row, eta in rows:
                accumulate(pinned, ((), eta, tuple(-x for x in eta), ()), th[row])
            continue
        fwords = alg.graded_basis("-", nu).words
        ewords = alg.graded_basis("+", nu).words
        supports = sorted({(eta, tuple(-(a + b) for a, b in zip(eta, nu)))
                           for _, eta in rows})
        ansatz[nu] = [(fw, eta, phi, ew) for eta, phi in supports
                      for fw in fwords for ew in ewords]
    variables = [var for block in ansatz.values() for var in block]

    if not variables and any(x for x in lam):
        raise NoSolution("empty ansatz for a nonzero weight")

    def block_of(key):
        # the raising content eps if it is a block, else eps - alpha_i
        eps = word_content(alg.n, key[3])
        return eps if eps in blocks else word_content(alg.n, key[0])

    raising = [alg.e(i) for i in range(1, alg.n + 1)]
    equations = {}  # per block, its rows {key: {var: c}}, the pinned part under None

    def batch(nu):
        """The rows fed with block nu; its unknowns' images are built now,
        and block 0's are the pinned part's."""
        for e, var in itertools.product(raising, ansatz.get(nu, [None])):
            x = Element(alg, pinned) if var is None else alg.element_from_term(var)
            for key, c in alg.ad(e, x).terms.items():
                accumulate(equations.setdefault(block_of(key), {}).setdefault(key, {}), var, c)
        return [(row, -row.pop(None, ZERO)) for row in equations.pop(nu, {}).values()]

    solution = linalg.solve_unique(map(batch, sorted(blocks, key=sum)), variables)
    return _certified(alg, Element(alg, {**pinned, **solution}), lam, "solve")


# ---------------------------------------------------------------------------
# parity kernel probe
# ---------------------------------------------------------------------------

def parity_kernel(n: int, bound: int, mode: str = "lambda_only"):
    """Nonzero toral exponent pairs invisible to the character family.

    mode 'lambda_only' requires the first-index characters of all
    fundamental weights to take value 1; mode 'full' adds the second-index
    family.  Each character is a unit monomial u^a v^b whose exponents are
    integer-linear in (eta, phi), read off at the 2n unit exponent vectors;
    it is 1 exactly where a = b = 0.  The kernel is solved exactly and
    intersected with the coordinate box.
    """
    if bound < 1:
        raise BadArgument("bound must be at least 1")
    if mode not in ("lambda_only", "full"):
        raise BadArgument(f"unknown mode {mode!r}")
    alg = Algebra(n)
    zero = (0,) * n
    pairs = [(w, zero) for w in alg.rs.fundamental_weights]
    if mode == "full":
        pairs += [(zero, w) for w in alg.rs.fundamental_weights]
    units = [tuple(int(k == t) for t in range(2 * n)) for k in range(2 * n)]
    rows = []
    for lam, mu in pairs:
        exps = [char_exponents(alg, lam, mu, e[:n], e[n:]) for e in units]
        rows += [[a for a, _ in exps], [b for _, b in exps]]

    # reduced row echelon over the rationals
    reduced, pivots = linalg.rref(
        [[Scalar.from_int(c) for c in row] for row in rows])
    mat = [[x.as_fraction() for x in row] for row in reduced]
    ncols = 2 * n
    free_cols = [c for c in range(ncols) if c not in pivots]
    out = []
    for assignment in itertools.product(range(-bound, bound + 1),
                                        repeat=len(free_cols)):
        if not any(assignment):
            continue
        vec = [Fraction(0)] * ncols
        for c, val in zip(free_cols, assignment):
            vec[c] = Fraction(val)
        ok = True
        for prow, pcol in zip(mat, pivots):
            val = -sum(prow[c] * vec[c] for c in free_cols)
            if val.denominator != 1 or abs(val) > bound:
                ok = False
                break
            vec[pcol] = val
        if not ok:
            continue
        eta = tuple(int(x) for x in vec[:n])
        phi = tuple(int(x) for x in vec[n:])
        out.append((eta, phi))
    out.sort()
    return out
