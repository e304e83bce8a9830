"""Central elements and the Harish-Chandra homomorphism.

Toral parts live on monomials w'_eta w_phi; the Harish-Chandra image of an
element drops all terms with raising or lowering content and rescales the
rest by the character of -rho.  Central candidates are assembled from
matrix coefficients of an irreducible module against graded dual bases and
certified by the adjoint-action criterion: z is central exactly when every
generator acts on it through the counit.  The lowering generators are
certified through the anti-automorphism tau (r <-> s, e_i <-> f_i,
w_i <-> w'_i; Benkart-Witherspoon, Bergeron-Gao-Hu): a z that commutes
with the torals and is fixed by tau commutes with f_i exactly when it
commutes with e_i, so only the raising generators are straightened.  A z
that is not fixed by tau has its lowering generators checked directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .errors import (
    CentralityCheckFailed,
    NoSolution,
    NotDominant,
    NotInRootLattice,
    NotInUb0,
)
from .pairing import dual_basis
from .qgroup import Algebra, Element
from .repn import act, char_value, irreducible, theta, verma
from .rootdata import WeylElement
from .scalars import ZERO, Scalar, accumulate, rs_ratio_power


# ---------------------------------------------------------------------------
# toral parts: dict {(eta, phi): Scalar} over alpha-coordinate exponents
# ---------------------------------------------------------------------------

def toral_add(t1, t2):
    out = dict(t1)
    for k, c in t2.items():
        accumulate(out, k, c)
    return out


def toral_scale(t, c):
    if c.is_zero():
        return {}
    return {k: v * c for k, v in t.items()}


def toral_is_balanced(t):
    return all(phi == tuple(-x for x in eta) for eta, phi in t)


def hc_xi(alg: Algebra, x: Element):
    """Harish-Chandra image: project onto toral terms, then shift by -rho.

    Projection is total; the toral monomial w'_eta w_phi picks up the
    character of -rho, which on balanced monomials is (r s^-1)^(2 (rho, eta)).
    """
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
        recon = toral_add(recon, toral_scale(av(alg, dom), c))
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
    """
    idx = range(1, alg.n + 1)
    w_bad = [alg.ad(alg.omega(i), z) != z for i in idx]
    wp_bad = [alg.ad(alg.omega_prime(i), z) != z for i in idx]
    e_bad = [not alg.ad(alg.e(i), z).is_zero() for i in idx]
    if not any(w_bad) and not any(wp_bad) and alg.tau(z) == z:
        f_bad = e_bad
    else:
        f_bad = [not alg.ad(alg.f(i), z).is_zero() for i in idx]
    bad = []
    for k, i in enumerate(idx):
        for g, fails in (("e", e_bad), ("f", f_bad), ("w", w_bad), ("w'", wp_bad)):
            if fails[k]:
                bad.append((g, i))
    return bad


def _weight_blocks(alg, module):
    """Raising contents nu that connect two weights of the module."""
    weights = set(module.weights)
    blocks = set()
    for w1 in weights:
        for w2 in weights:
            diff = tuple(a - b for a, b in zip(w2, w1))
            if alg.rs.in_root_lattice(diff):
                coords = alg.rs.root_coords(diff)
                if all(c >= 0 for c in coords):
                    blocks.add(coords)
    return sorted(blocks)


def central_from_trace(alg: Algebra, lam) -> CentralCandidate:
    """Central element carried by the graded trace of the irreducible module.

    For every basis vector m of weight w and every raising content nu that
    stays inside the weight diagram, the block contribution is

        sum_{a,b} Psi(v_b, u_a) v_a w'_w w_(-w-nu) u_b
            * (r s^-1)^(-2 (rho, nu)) * <w'_nu, w_(w+nu)>

    where {u_a} is the raising graded basis, {v_a} its pairing-dual lowering
    basis, and Psi(y, x) evaluates y x against m twisted by the grading
    operator.  The toral exponents and the group-like correction come from
    matching the matrix-coefficient functional against the Borel-factor
    form.  The sum over basis vectors is certified central via the
    adjoint-action criterion before it is returned.
    """
    lam = _require_dominant_root_weight(alg, lam)
    module = irreducible(alg, lam)
    th = theta(module)
    weight_set = set(module.weights)
    terms = {}
    for nu in _weight_blocks(alg, module):
        pair = dual_basis(alg, nu)
        d = pair.dim
        eacts = [act(alg.eword_element(ew), module) for ew in pair.e_words]
        velems = [pair.dual_vector(alg, a) for a in range(d)]
        vacts = [act(v, module) for v in velems]
        twist = rs_ratio_power(
            -2 * alg.rs.inner(alg.rs.rho, alg.rs.from_alpha(nu)))
        for row in range(module.dim):
            w = module.weights[row]
            w_up = tuple(a + b for a, b in zip(w, alg.rs.from_alpha(nu)))
            if w_up not in weight_set:
                continue
            eta = alg.rs.root_coords(w)
            shifted = tuple(a + b for a, b in zip(eta, nu))
            phi = tuple(-x for x in shifted)
            block_scale = twist * alg.gpair(nu, shifted)
            for a in range(d):
                for b in range(d):
                    # Psi(v_b, u_a) on the row-th basis vector, with the
                    # grading twist of its weight
                    psi = ZERO
                    for mid, v1 in eacts[a].cols[row].items():
                        v2 = vacts[b].cols[mid].get(row)
                        if v2 is not None:
                            psi = psi + v1 * v2
                    if psi.is_zero():
                        continue
                    coeff = th[row] * psi * block_scale
                    for (fw, _, _, _), cf in velems[a].terms.items():
                        accumulate(terms, (fw, eta, phi, pair.e_words[b]),
                                   coeff * cf)
    z = Element(alg, terms)
    bad = centrality_failures(alg, z)
    if bad:
        raise CentralityCheckFailed(f"adjoint action fails at {bad}")
    return CentralCandidate(z, lam, "trace")


def central_by_solve(alg: Algebra, lam) -> CentralCandidate:
    """Independent construction: solve the centrality equations linearly.

    The ansatz runs over y_a w'_eta w_phi x_b with (nu, eta, phi) restricted
    to the support of the trace recipe; the degree-zero block is pinned to
    the graded character values, and the remaining coefficients must be
    uniquely determined by ad(e_1..e_n), then ad(f_1..f_n), fed one generator
    at a time until no unknown is free; the certificate covers the rest.
    The ansatz reads the graded bases alone: no pairing, no Gram inverse.
    """
    lam = _require_dominant_root_weight(alg, lam)
    module = irreducible(alg, lam)
    weight_set = set(module.weights)
    mults = module.weight_multiplicities()
    zero = (0,) * alg.n

    variables = []
    pinned = {}
    for nu in _weight_blocks(alg, module):
        fwords = alg.graded_basis("-", nu).words
        ewords = alg.graded_basis("+", nu).words
        supports = set()
        for w in weight_set:
            w_up = tuple(a + b for a, b in zip(w, alg.rs.from_alpha(nu)))
            if w_up in weight_set:
                eta = alg.rs.root_coords(w)
                phi = tuple(-(a + b) for a, b in zip(eta, nu))
                supports.add((eta, phi))
        for eta, phi in sorted(supports):
            for fw in fwords:
                for ew in ewords:
                    key = (fw, eta, phi, ew)
                    if nu == zero:
                        w = alg.rs.from_alpha(eta)
                        pinned[key] = Scalar.from_int(mults[w]) * \
                            rs_ratio_power(-2 * alg.rs.inner(alg.rs.rho, w))
                    else:
                        variables.append(key)

    if not variables and any(x for x in lam):
        raise NoSolution("empty ansatz for a nonzero weight")

    def batches():
        # one batch per generator, raising first; each ad image built lazily
        for g in [alg.e(i) for i in range(1, alg.n + 1)] + \
                 [alg.f(i) for i in range(1, alg.n + 1)]:
            equations = {}
            for var in variables:
                img = alg.ad(g, alg.element_from_term(var))
                for key2, c in img.terms.items():
                    accumulate(equations.setdefault(key2, {}), var, c)
            rhs = alg.ad(g, Element(alg, pinned)).terms
            yield [(equations.get(k, {}), -rhs.get(k, ZERO))
                   for k in {**equations, **rhs}]  # a lone rhs is inconsistent

    solution = linalg.solve_unique(batches(), variables)
    z = Element(alg, {**pinned, **solution})
    bad = centrality_failures(alg, z)
    if bad:
        raise CentralityCheckFailed(f"solver output fails adjoint test at {bad}")
    return CentralCandidate(z, lam, "solve")


def central_scalar_on_verma(alg: Algebra, z: Element, lam, mu, depth: int) -> Scalar:
    """The scalar by which z acts on the truncated module of (lam, mu).

    Raises CentralityCheckFailed when the action is not scalar on the
    truncation.
    """
    module = verma(alg, lam, mu, depth)
    mat = act(z, module)
    scalar = mat.scalar_of_identity()
    if scalar is None:
        raise CentralityCheckFailed("action on the truncated module is not scalar")
    return scalar


# ---------------------------------------------------------------------------
# parity kernel probe
# ---------------------------------------------------------------------------

def parity_kernel(n: int, bound: int, mode: str = "lambda_only"):
    """Nonzero toral exponent pairs invisible to the character family.

    mode 'lambda_only' requires the first-index characters of all
    fundamental weights to take value 1; mode 'full' adds the second-index
    family.  Exponent conditions are integer-linear in (eta, phi); the
    kernel is solved exactly and intersected with the coordinate box.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if mode not in ("lambda_only", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    alg = Algebra(n)
    rs = alg.rs
    rows = []
    for j in range(n):
        w_alpha = rs.alpha_coords(rs.fundamental_weights[j])
        # value of the character at w'_eta w_phi is
        #   g(eta, w)^-1 g(w, phi) with g the group-like pairing
        row_u = [Fraction(0)] * (2 * n)
        row_v = [Fraction(0)] * (2 * n)
        for k in range(n):
            acc_u = sum(Fraction(alg._gr[k][l]) * w_alpha[l] for l in range(n))
            acc_v = sum(Fraction(alg._gs[k][l]) * w_alpha[l] for l in range(n))
            row_u[k] -= 2 * acc_u
            row_v[k] -= 2 * acc_v
            acc_u = sum(w_alpha[l] * Fraction(alg._gr[l][k]) for l in range(n))
            acc_v = sum(w_alpha[l] * Fraction(alg._gs[l][k]) for l in range(n))
            row_u[n + k] += 2 * acc_u
            row_v[n + k] += 2 * acc_v
        rows.append(row_u)
        rows.append(row_v)
    if mode == "full":
        for j in range(n):
            w = rs.fundamental_weights[j]
            row = [Fraction(0)] * (2 * n)
            for k in range(n):
                val = 2 * rs.inner(rs.from_alpha(tuple(
                    1 if t == k else 0 for t in range(n))), w)
                row[k] += val
                row[n + k] += val
            rows.append(row)
    assert all(c.denominator == 1 for row in rows for c in row)

    # reduced row echelon over the rationals
    reduced, pivots = linalg.rref(
        [[Scalar.from_fraction(c) for c in row] for row in rows])
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
