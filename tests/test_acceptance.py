"""Acceptance gate: one test per criterion, all exact (zero tolerance).

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""

import hashlib
import itertools
import json
import random

import pytest

from qgc import center, linalg, pairing, repn
from qgc.qgroup import Algebra
from qgc.scalars import ONE, R, S, ZERO, Scalar, add_scaled
from test_center import reference_centrality_failures, scalar_on_verma
from test_qgroup import fword_element, reference_tau
from test_qgroup import conj_omega_e, conj_omega_prime_e
from test_repn import compose, matrix
from test_rootdata import reflect, weyl_group


@pytest.fixture(scope="module")
def algebras():
    return {n: Algebra(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def trace_elements(algebras):
    """Certified rank-2 trace elements, built once for the module."""
    return {lam: center.central_from_trace(algebras[2], lam).element
            for lam in [(0, 0), (2, 0), (2, 2)]}


@pytest.fixture(scope="module")
def z_vector(trace_elements):
    return trace_elements[(2, 0)]


@pytest.fixture(scope="module")
def z_vector_rank3(algebras):
    """The certified rank-3 trace element of the vector representation."""
    return center.central_from_trace(algebras[3], (2, 0, 0)).element


@pytest.fixture(scope="module")
def z_vector_rank4(algebras):
    """The certified rank-4 trace element of the vector representation."""
    return center.central_from_trace(algebras[4], (2, 0, 0, 0)).element


def cone_points(n, max_height):
    for h in range(max_height + 1):
        for point in itertools.product(range(h + 1), repeat=n):
            if sum(point) == h:
                yield point


def rand_word(alg, rng, max_len, kinds="efwp"):
    x = alg.one()
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(kinds)
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


def test_defining_relations_normalize_to_zero(algebras):
    for n in (1, 2, 3):
        alg = algebras[n]
        one = alg.one()
        for i in range(1, n + 1):
            assert alg.omega(i) * alg.omega(i, -1) == one
            assert alg.omega_prime(i) * alg.omega_prime(i, -1) == one
            for j in range(1, n + 1):
                # toral letters commute
                assert alg.omega(i) * alg.omega_prime(j) == \
                    alg.omega_prime(j) * alg.omega(i)
                # conjugation relations against the literal exponent tables
                conj = alg.omega(j) * alg.e(i) * alg.omega(j, -1)
                assert (conj - alg.e(i).scale(conj_omega_e(alg, j, i))).is_zero()
                conj = alg.omega(j) * alg.f(i) * alg.omega(j, -1)
                assert (conj - alg.f(i).scale(
                    conj_omega_e(alg, j, i).inverse())).is_zero()
                conj = alg.omega_prime(j) * alg.e(i) * alg.omega_prime(j, -1)
                assert (conj - alg.e(i).scale(conj_omega_prime_e(alg, j, i))).is_zero()
                conj = alg.omega_prime(j) * alg.f(i) * alg.omega_prime(j, -1)
                assert (conj - alg.f(i).scale(
                    conj_omega_prime_e(alg, j, i).inverse())).is_zero()
                # raising/lowering commutator
                lhs = alg.e(i) * alg.f(j) - alg.f(j) * alg.e(i)
                if i == j:
                    rhs = (alg.omega(i) - alg.omega_prime(i)).scale(
                        (alg.r_i(i) - alg.s_i(i)).inverse())
                else:
                    rhs = alg.zero()
                assert (lhs - rhs).is_zero()
        for sign in "+-":
            gen = alg.e if sign == "+" else alg.f
            for rel in alg.serre_relators(sign):
                total = alg.zero()
                for word, c in rel.items():
                    term = alg.one()
                    for i in word:
                        term = term * gen(i)
                    total = total + term.scale(c)
                assert total.is_zero(), (n, sign, rel)


def test_hopf_axioms(algebras):
    alg = algebras[2]
    rng = random.Random(20240902)
    words = [alg.e(1), alg.e(2), alg.f(1), alg.f(2),
             alg.omega(1), alg.omega(2), alg.omega_prime(1), alg.omega_prime(2)]
    words += [rand_word(alg, rng, 3) for _ in range(20)]
    for x in words:
        dx = alg.comultiply(x)
        left, right = {}, {}
        for (k1, k2), c in dx.items():
            for (a, b), c2 in alg.comultiply(alg.element_from_term(k1)).items():
                key = (a, b, k2)
                left[key] = left.get(key, ZERO) + c * c2
            for (a, b), c2 in alg.comultiply(alg.element_from_term(k2)).items():
                key = (k1, a, b)
                right[key] = right.get(key, ZERO) + c * c2
        assert {k: v for k, v in left.items() if not v.is_zero()} == \
            {k: v for k, v in right.items() if not v.is_zero()}
        eps_id = alg.zero()
        id_eps = alg.zero()
        s_id = alg.zero()
        id_s = alg.zero()
        for (k1, k2), c in dx.items():
            e1 = alg.element_from_term(k1)
            e2 = alg.element_from_term(k2)
            eps_id = eps_id + e2.scale(c * alg.counit(e1))
            id_eps = id_eps + e1.scale(c * alg.counit(e2))
            s_id = s_id + (alg.antipode(e1) * e2).scale(c)
            id_s = id_s + (e1 * alg.antipode(e2)).scale(c)
        assert eps_id == x and id_eps == x
        expect = alg.scalar(alg.counit(x))
        assert s_id == expect and id_s == expect


def test_pairing_generator_values_and_antipode_invariance(algebras):
    for n in (2, 3):
        alg = algebras[n]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = pairing.skew_pair(alg, alg.f(i), alg.e(j))
                expect = (alg.s_i(i) - alg.r_i(i)).inverse() if i == j else ZERO
                assert got == expect
                # group-like table against the literal case split
                eps_j = [0] * n
                eps_j[j - 1] = 2
                alpha_i = alg.rs.simple_roots[i - 1]
                got = pairing.skew_pair(alg, alg.omega_prime(i), alg.omega(j))
                if j < n:
                    eps_j1 = [0] * n
                    eps_j1[j] = 2
                    a = 2 * alg.rs.inner(eps_j, alpha_i)
                    b = 2 * alg.rs.inner(eps_j1, alpha_i)
                    assert got == Scalar.monomial(int(2 * a), int(2 * b))
                elif i < n:
                    a = 2 * alg.rs.inner(eps_j, alpha_i)
                    assert got == Scalar.monomial(int(2 * a), 0)
                else:
                    assert got == R / S
                # inverse toral letters pair through inverse values
                assert pairing.skew_pair(alg, alg.omega_prime(i, -1), alg.omega(j)) \
                    == got.inverse()
                assert pairing.skew_pair(alg, alg.omega_prime(i), alg.omega(j, -1)) \
                    == got.inverse()
                assert pairing.skew_pair(alg, alg.omega_prime(i, -1),
                                         alg.omega(j, -1)) == got
                # cross pairs of generators vanish
                assert pairing.skew_pair(alg, alg.f(i), alg.omega(j)) == ZERO
                assert pairing.skew_pair(alg, alg.omega_prime(i), alg.e(j)) == ZERO
    alg = algebras[2]
    rng = random.Random(20240903)
    for _ in range(20):
        y = rand_word(alg, rng, 3, kinds="fp")
        x = rand_word(alg, rng, 3, kinds="ew")
        assert pairing.skew_pair(alg, alg.antipode(y), alg.antipode(x)) == \
            pairing.skew_pair(alg, y, x)


def test_gram_nonsingular_dims_match_kostant(algebras):
    for n, maxht in ((2, 4), (3, 3)):
        alg = algebras[n]
        for nu in cone_points(n, maxht):
            dim = alg.graded_basis("+", nu).dim
            assert dim == alg.graded_basis("-", nu).dim
            assert dim == alg.rs.kostant_count(nu), (n, nu)
            g = pairing.gram(alg, nu)
            assert linalg.rank(g) == dim, (n, nu)


def test_form_invariance_orthogonality_twist(algebras):
    alg = algebras[2]
    rng = random.Random(20240904)
    gens = [alg.e(1), alg.e(2), alg.f(1), alg.f(2),
            alg.omega(1), alg.omega(2), alg.omega_prime(1), alg.omega_prime(2)]
    for a in gens:
        for _ in range(10):
            b = rand_word(alg, rng, 2)
            c = rand_word(alg, rng, 2)
            assert pairing.check_ad_invariance(alg, a, b, c), (a, b, c)
    # block orthogonality: the form vanishes unless the lowering content of
    # each argument matches the raising content of the other
    blocks = list(cone_points(2, 3))
    toral = alg.toral((1, 0), (0, -1))
    reps = {}
    for nu in blocks:
        reps[nu] = (alg.graded_basis("-", nu).words[0],
                    alg.graded_basis("+", nu).words[0])
    for nu1, mu1 in itertools.product(blocks, repeat=2):
        x = fword_element(alg, reps[nu1][0]) * toral * alg.eword_element(reps[mu1][1])
        for nu2, mu2 in itertools.product(blocks, repeat=2):
            if nu2 == mu1 and mu2 == nu1:
                continue
            y = fword_element(alg, reps[nu2][0]) * alg.eword_element(reps[mu2][1])
            assert pairing.rosso(alg, x, y) == ZERO, (nu1, mu1, nu2, mu2)
    # the square of the antipode twists the pairing by (r s^-1)^(2 (rho, nu))
    for nu in cone_points(2, 4):
        twist = pairing.s2_twist(alg, nu)
        for fw in alg.graded_basis("-", nu).words:
            y = fword_element(alg, fw)
            y2 = alg.antipode(alg.antipode(y))
            for ew in alg.graded_basis("+", nu).words:
                x = alg.eword_element(ew)
                assert pairing.skew_pair(alg, y2, x) == \
                    twist * pairing.skew_pair(alg, y, x)


def test_irreducibles_match_freudenthal(algebras):
    alg = algebras[2]
    for lam, dim in (((2, 0), 5), ((2, 2), 10)):
        module = repn.irreducible(alg, lam)
        assert module.dim == dim
        mults = module.weight_multiplicities()
        assert mults == alg.rs.freudenthal_mults(lam)
        for w, m in mults.items():
            for i in (1, 2):
                assert mults[reflect(alg.rs, i, w)] == m


def test_rank4_vector_irreducible(algebras):
    alg = algebras[4]
    lam = (2, 0, 0, 0)
    module = repn.irreducible(alg, lam)
    assert module.dim == alg.rs.weyl_dim(lam) == 9
    assert module.weight_multiplicities() == alg.rs.freudenthal_mults(lam)


def test_qint_action_identity(algebras):
    alg = algebras[2]
    mus = [(0, 0), (2, 2), (1, 1), (1, -1)]
    for a in range(3):
        for b in range(3):
            lam = alg.rs.from_fund((a, b))
            for i in (1, 2):
                m = int(alg.rs.coroot_pair(lam, i))
                if m > 2:
                    continue
                for mu in mus:
                    assert repn.qint_action_identity(alg, lam, mu, i), \
                        (lam, mu, i)


def test_grading_operator_conjugates_antipode_square(algebras):
    alg = algebras[2]
    module = repn.irreducible(alg, (2, 0))
    diag = repn.theta(module)
    th = [{r: diag[r]} for r in range(module.dim)]
    gens = [alg.e(1), alg.e(2), alg.f(1), alg.f(2),
            alg.omega(1), alg.omega(2), alg.omega_prime(1), alg.omega_prime(2),
            alg.omega(1, -1), alg.omega_prime(2, -1)]
    for u in gens:
        lhs = compose(th, matrix(u, module))
        rhs = compose(matrix(alg.antipode(alg.antipode(u)), module), th)
        assert lhs == rhs


def test_central_element_trace_and_solve(algebras, z_vector):
    alg = algebras[2]
    assert center.centrality_failures(alg, z_vector) == \
        reference_centrality_failures(alg, z_vector) == []
    image = center.hc_xi(alg, z_vector)
    expect = {}
    for eta in [(1, 1), (-1, -1), (0, 1), (0, -1), (0, 0)]:
        expect[(eta, tuple(-x for x in eta))] = ONE
    assert image == expect
    solved = center.central_by_solve(alg, (2, 0))
    assert solved.element == z_vector


def test_verma_scalars_weyl_invariant(algebras, z_vector):
    alg = algebras[2]
    image = center.hc_xi(alg, z_vector)
    rho = alg.rs.rho
    samples = [((2, 0), (1, 1)), ((2, 2), (1, -1)), ((4, 2), (3, 1)),
               ((0, 0), (2, 0))]
    for lam, mu in samples:
        scalar = scalar_on_verma(alg, z_vector, lam, mu, depth=2)
        shifted = tuple(a + b for a, b in zip(lam, rho))
        assert scalar == center.char_eval(alg, shifted, mu, image)
        for i in (1, 2):
            refl = reflect(alg.rs, i, shifted)
            assert center.char_eval(alg, refl, mu, image) == scalar


def test_parity_kernel_dichotomy():
    for n in (2, 4):
        assert center.parity_kernel(n, 3, "lambda_only") == [], n
    for n in (1, 3):
        assert center.parity_kernel(n, 3, "lambda_only") != [], n
    assert ((1,), (1,)) in center.parity_kernel(1, 3, "lambda_only")
    for n in (1, 2, 3, 4):
        assert center.parity_kernel(n, 3, "full") == [], n


def test_hc_images_triangular_independent(algebras, trace_elements):
    alg = algebras[2]
    images = {}
    for lam, z in trace_elements.items():
        image = center.hc_xi(alg, z)
        for sigma in weyl_group(alg.rs):
            assert center.weyl_act(alg, sigma, image) == image
        coeffs = center.av_expand(alg, image)
        lead = coeffs.pop(lam)
        lead_q = lead.as_fraction()
        assert lead_q.denominator == 1 and lead_q > 0
        for dom in coeffs:
            assert alg.rs.dominance_leq(dom, lam) and dom != lam
        coeffs[lam] = lead
        images[lam] = image
    keys = sorted({k for img in images.values() for k in img})
    mat = [[img.get(k, ZERO) for k in keys] for img in images.values()]
    assert linalg.rank(mat) == 3


def test_rank3_vector_trace_element_hc_image(algebras, z_vector_rank3):
    # the odd-rank side of the parity dichotomy: the rank-3 vector
    # representation gives a certified central element whose HC image is a
    # balanced, Weyl-invariant sum of orbit averages led by lambda
    alg = algebras[3]
    lam = (2, 0, 0)
    image = center.hc_xi(alg, z_vector_rank3)
    # one unit term per weight of the 7-dimensional module, as at rank 2
    assert len(image) == 7 and all(c == ONE for c in image.values())
    assert center.toral_is_balanced(image)
    for i in range(1, alg.n + 1):
        sigma = alg.rs.simple_reflection(i)
        assert center.weyl_act(alg, sigma, image) == image
    coeffs = center.av_expand(alg, image)
    recon = {}
    for dom, c in coeffs.items():
        add_scaled(recon, center.av(alg, dom), c)
    assert recon == image
    lead = coeffs[lam].as_fraction()
    assert lead.denominator == 1 and lead > 0
    assert all(alg.rs.dominance_leq(dom, lam) for dom in coeffs)


def test_rank4_vector_trace_element_hc_image(algebras, z_vector_rank4):
    # the even-rank side of the parity dichotomy, for an actual central
    # element: one unit term per weight of the 9-dimensional module
    alg = algebras[4]
    assert len(z_vector_rank4.terms) == 8288
    image = center.hc_xi(alg, z_vector_rank4)
    assert len(image) == 9 and all(c == ONE for c in image.values())
    assert center.toral_is_balanced(image)
    for i in range(1, alg.n + 1):
        sigma = alg.rs.simple_reflection(i)
        assert center.weyl_act(alg, sigma, image) == image
    assert center.av_expand(alg, image) == {(2, 0, 0, 0): Scalar.from_int(8),
                                            (0, 0, 0, 0): ONE}


def test_rank3_vector_trace_and_solve(algebras, z_vector_rank3):
    # the independent solver reaches the same rank-3 element as the trace
    solved = center.central_by_solve(algebras[3], (2, 0, 0))
    assert solved.element == z_vector_rank3


# sha256 of json.dumps(z.to_json(), sort_keys=True) for each trace element
TRACE_DIGESTS = {
    (0, 0): "6d8c58350c0af2d7b0c7b9d2557fd76ed9979f41cf0941d7aca8522b4947a0b6",
    (2, 0): "115618b02ba481468b1e169e1fb0ae044db622bd7bfd7f13dd9e82dd14332c92",
    (2, 2): "3b065cb550a4dc87975bfcd2278b3cc2955607baff7e7351a3ea62584387035c",
    (2, 0, 0): "4075b10d1727ba9b0f84d0c0be116446b0dec94dfed9d717e37f772d90c027c6",
    (2, 0, 0, 0): "deb2512c576bc3a7e5fff85aab244240f13bf0b5176e02f9763c29b5fc3b644e",
}


def test_trace_elements_keep_their_digests(trace_elements, z_vector_rank3,
                                           z_vector_rank4):
    elements = dict(trace_elements)
    elements[(2, 0, 0)] = z_vector_rank3
    elements[(2, 0, 0, 0)] = z_vector_rank4
    for lam, z in elements.items():
        text = json.dumps(z.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == TRACE_DIGESTS[lam], lam


def test_tau_matches_the_per_term_reversal(algebras, trace_elements, z_vector_rank3,
                                           z_vector_rank4):
    # the grouped one-sided passes against reversing and expanding each term
    elements = [(2, z) for z in trace_elements.values()]
    elements += [(3, z_vector_rank3), (4, z_vector_rank4)]
    for n, z in elements:
        assert algebras[n].tau(z) == reference_tau(algebras[n], z) == z


def test_commutator_table_stays_bounded(algebras, trace_elements):
    # certifying the (2,0) and (2,2) trace elements memoizes only
    # (generator, lowering word) pairs, a few dozen of them
    table = algebras[2].memo("commutator")
    assert 0 < len(table) <= 200
