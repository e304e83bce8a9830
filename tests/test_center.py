import random
from fractions import Fraction
from unittest import mock

import pytest

from qgc import center
from qgc.errors import NoSolution, NotInRootLattice, NotInUb0
from qgc.qgroup import Algebra
from qgc.repn import char_value
from qgc.scalars import ONE, R, Scalar, rs_ratio_power


@pytest.fixture(scope="module")
def alg2():
    return Algebra(2)


@pytest.fixture(scope="module")
def z_vec(alg2):
    return center.central_from_trace(alg2, (2, 0))


def test_hc_xi_identity_and_projection(alg2):
    one = alg2.one()
    assert center.hc_xi(alg2, one) == {((0, 0), (0, 0)): ONE}
    mixed = alg2.f(1) * alg2.omega(2) * alg2.e(1) + alg2.one()
    assert center.hc_xi(alg2, mixed) == {((0, 0), (0, 0)): ONE}


def test_char_eval_mu_side(alg2):
    # second-index character of a fundamental weight on a toral monomial
    rng = random.Random(71)
    for j in (1, 2):
        w = alg2.rs.fundamental_weights[j - 1]
        for _ in range(10):
            eta = tuple(rng.randint(-2, 2) for _ in range(2))
            phi = tuple(rng.randint(-2, 2) for _ in range(2))
            got = char_value(alg2, (0, 0), w, eta, phi)
            q = alg2.rs.inner(alg2.rs.from_alpha(
                tuple(a + b for a, b in zip(eta, phi))), w)
            assert got == rs_ratio_power(q)


def test_char_eval_lambda_side_balanced(alg2):
    # first-index character of a fundamental weight on a balanced monomial
    rng = random.Random(73)
    for i in (1, 2):
        w = alg2.rs.fundamental_weights[i - 1]
        alpha_i = alg2.rs.simple_roots[i - 1]
        norm = alg2.rs.inner(alpha_i, w)
        for _ in range(10):
            eta = tuple(rng.randint(-2, 2) for _ in range(2))
            phi = tuple(-x for x in eta)
            got = char_value(alg2, w, (0, 0), eta, phi)
            assert got == rs_ratio_power(-2 * norm * eta[i - 1])
    assert center.char_eval(alg2, (2, 0), (1, 1),
                            {((0, 0), (0, 0)): ONE}) == ONE


def test_av(alg2):
    assert center.av(alg2, (0, 0)) == {((0, 0), (0, 0)): ONE}
    got = center.av(alg2, (2, 0))
    quarter = Scalar.from_fraction(Fraction(1, 4))
    expect = {((1, 1), (-1, -1)): quarter, ((-1, -1), (1, 1)): quarter,
              ((0, 1), (0, -1)): quarter, ((0, -1), (0, 1)): quarter}
    assert got == expect
    for sigma in alg2.rs.weyl_group():
        assert center.weyl_act(alg2, sigma, got) == got
    with pytest.raises(NotInRootLattice):
        center.av(alg2, (1, 1))


def test_weyl_act_requires_balanced(alg2):
    sigma = alg2.rs.simple_reflection(1)
    with pytest.raises(NotInUb0):
        center.weyl_act(alg2, sigma, {((1, 0), (0, 0)): ONE})


def test_character_twist_by_weyl_action(alg2):
    # evaluating at a reflected first index equals evaluating the
    # inverse-reflected monomial
    rng = random.Random(79)
    sample = []
    fund = alg2.rs.fundamental_weights
    for _ in range(4):
        lam = tuple(sum(rng.randint(-2, 2) * w[k] for w in fund)
                    for k in range(2))
        mu = tuple(sum(rng.randint(-2, 2) * w[k] for w in fund)
                   for k in range(2))
        sample.append((lam, mu))
    for i in (1, 2):
        sigma = alg2.rs.simple_reflection(i)
        for lam, mu in sample:
            lam_ref = sigma.act(lam)
            for eta in [(1, 0), (0, 1), (1, -1), (2, 1)]:
                u = {(eta, tuple(-x for x in eta)): ONE}
                lhs = center.char_eval(alg2, lam_ref, mu, u)
                rhs = center.char_eval(
                    alg2, lam, mu, center.weyl_act(alg2, sigma.inverse(), u))
                assert lhs == rhs


def reference_centrality_failures(alg, z):
    """The adjoint-action criterion on all 4n generators, each computed."""
    bad = []
    for i in range(1, alg.n + 1):
        if not alg.ad(alg.e(i), z).is_zero():
            bad.append(("e", i))
        if not alg.ad(alg.f(i), z).is_zero():
            bad.append(("f", i))
        if alg.ad(alg.omega(i), z) != z:
            bad.append(("w", i))
        if alg.ad(alg.omega_prime(i), z) != z:
            bad.append(("w'", i))
    return bad


def test_centrality_failures_match_the_generator_loop(alg2, z_vec):
    # the tau shortcut against the 4n-generator loop, on tau-invariant
    # elements (central or not) and on ones the fallback must handle
    alg3 = Algebra(3)
    z20 = z_vec.element
    z22 = center.central_from_trace(alg2, (2, 2)).element
    z200 = center.central_from_trace(alg3, (2, 0, 0)).element
    e1, f1 = alg2.e(1), alg2.f(1)
    cases = {
        "z20": (alg2, z20, True, True),
        "z22": (alg2, z22, True, True),
        "z200": (alg3, z200, True, True),
        "e1 f1": (alg2, e1 * f1, True, False),
        "z + e1 f1": (alg2, z20 + e1 * f1, True, False),
        "r z": (alg2, z20.scale(R), False, True),
        "r f1 e1": (alg2, (f1 * e1).scale(R), False, False),
        "e1": (alg2, e1, False, False),
    }
    for name, (alg, x, fixed, central) in cases.items():
        assert (alg.tau(x) == x) == fixed, name
        got = center.centrality_failures(alg, x)
        assert got == reference_centrality_failures(alg, x), name
        assert (got == []) == central, name


def test_central_trivial_weight(alg2):
    cand = center.central_from_trace(alg2, (0, 0))
    assert cand.element == alg2.one()
    cand2 = center.central_by_solve(alg2, (0, 0))
    assert cand2.element == alg2.one()


def test_central_from_trace_vector_rep(alg2, z_vec):
    z = z_vec.element
    # the construction already certifies centrality; re-check explicitly
    assert center.centrality_failures(alg2, z) == []
    image = center.hc_xi(alg2, z)
    expect = {}
    for eta in [(1, 1), (-1, -1), (0, 1), (0, -1), (0, 0)]:
        expect[(eta, tuple(-x for x in eta))] = ONE
    assert image == expect


def test_solver_matches_trace(alg2, z_vec):
    cand = center.central_by_solve(alg2, (2, 0))
    assert cand.element == z_vec.element


def test_solver_matches_trace_adjoint(alg2):
    assert center.central_by_solve(alg2, (2, 2)).element == \
        center.central_from_trace(alg2, (2, 2)).element


def test_solver_builds_no_lowering_images(alg2):
    # the rows of e_1, e_2 pin every unknown of the (2,2) ansatz, and the
    # certificate checks f_1, f_2 of the tau-invariant output through tau
    center.central_by_solve(alg2, (2, 2))
    with mock.patch.object(Algebra, "ad", autospec=True,
                           side_effect=Algebra.ad) as ad:
        center.central_by_solve(alg2, (2, 2))
    gens = [call.args[1] for call in ad.call_args_list]
    assert alg2.e(1) in gens and alg2.e(2) in gens
    assert alg2.f(1) not in gens and alg2.f(2) not in gens


def test_solver_uses_no_pairing(monkeypatch, z_vec):
    # the oracle must not lean on the dual bases that the trace element uses
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver reached the pairing")

    monkeypatch.setattr("qgc.center.dual_basis", forbidden)
    monkeypatch.setattr("qgc.pairing.invert", forbidden)
    cand = center.central_by_solve(Algebra(2), (2, 0))
    assert cand.element.terms == z_vec.element.terms


def test_central_element_represents_graded_trace(alg2, z_vec):
    # pairing z against any element reproduces the twisted trace
    from qgc.pairing import rosso
    from qgc.repn import trace_fn

    rng = random.Random(83)
    z = z_vec.element
    tests = [alg2.one(), alg2.toral((1, 0), (0, -1)),
             alg2.f(1) * alg2.e(1),
             alg2.f(1) * alg2.f(2) * alg2.toral((0, 1), (1, 0)) * alg2.e(2) * alg2.e(1)]
    for _ in range(6):
        x = alg2.one()
        for _ in range(rng.randint(1, 3)):
            k = rng.choice(["e", "f", "w", "wp"])
            i = rng.randint(1, 2)
            if k == "e":
                x = x * alg2.e(i)
            elif k == "f":
                x = x * alg2.f(i)
            elif k == "w":
                x = x * alg2.omega(i, rng.choice([1, -1]))
            else:
                x = x * alg2.omega_prime(i, rng.choice([1, -1]))
        tests.append(x)
    for v in tests:
        assert rosso(alg2, z, v) == trace_fn(alg2, (2, 0), v)


def test_central_rank_one():
    alg = Algebra(1)
    a = center.central_from_trace(alg, (2,))
    b = center.central_by_solve(alg, (2,))
    assert a.element == b.element
    image = center.hc_xi(alg, a.element)
    assert image == {((k,), (-k,)): ONE for k in (-1, 0, 1)}


def test_hc_multiplicative_on_central_product():
    # products of central elements are central and the Harish-Chandra map
    # multiplies their images (projection and shift are both algebra maps)
    alg = Algebra(1)
    z = center.central_from_trace(alg, (2,)).element
    z2 = z * z
    assert center.centrality_failures(alg, z2) == []
    img = center.hc_xi(alg, z)
    img2 = center.hc_xi(alg, z2)
    prod = {}
    for (e1, p1), c1 in img.items():
        for (e2, p2), c2 in img.items():
            key = (tuple(a + b for a, b in zip(e1, e2)),
                   tuple(a + b for a, b in zip(p1, p2)))
            prod[key] = prod.get(key, Scalar.from_int(0)) + c1 * c2
    prod = {k: v for k, v in prod.items() if not v.is_zero()}
    assert prod == img2


def test_solver_empty_ansatz(alg2, monkeypatch):
    monkeypatch.setattr(center, "_weight_blocks", lambda a, m: [(0, 0)])
    with pytest.raises(NoSolution):
        center.central_by_solve(alg2, (2, 0))


def test_verma_scalar_and_reflection_invariance(alg2, z_vec):
    z = z_vec.element
    image = center.hc_xi(alg2, z)
    rho = alg2.rs.rho
    samples = [((2, 0), (1, 1)), ((2, 2), (3, 1))]
    for lam, mu in samples:
        scalar = center.central_scalar_on_verma(alg2, z, lam, mu, depth=2)
        shifted = tuple(a + b for a, b in zip(lam, rho))
        assert scalar == center.char_eval(alg2, shifted, mu, image)
        for i in (1, 2):
            refl = alg2.rs.reflect(i, shifted)
            assert center.char_eval(alg2, refl, mu, image) == scalar


def test_av_expansion_triangular(alg2, z_vec):
    image = center.hc_xi(alg2, z_vec.element)
    coeffs = center.av_expand(alg2, image)
    assert coeffs[(2, 0)] == Scalar.from_int(4)
    assert coeffs[(0, 0)] == ONE
    for dom in coeffs:
        assert alg2.rs.dominance_leq(dom, (2, 0))


def test_characters_separate_exponent_pairs(alg2):
    # distinct toral exponents give distinct character functions on a small
    # grid of evaluation pairs; the second-index values already separate the
    # sum eta + phi, the first index then splits the rest
    pairs = [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0)),
             ((0, 1), (0, -1)), ((1, 1), (-1, -1)), ((2, 0), (0, 1))]
    fund = alg2.rs.fundamental_weights
    grid = []
    for a in (0, 1):
        for b in (0, 1):
            lam = tuple(a * x + b * y for x, y in zip(*fund))
            grid.append((lam, (0, 0)))
            grid.append(((0, 0), lam))
            grid.append((lam, lam))
    seen = {}
    for eta, phi in pairs:
        values = tuple(char_value(alg2, lam, mu, eta, phi) for lam, mu in grid)
        assert values not in seen, f"{(eta, phi)} collides with {seen.get(values)}"
        seen[values] = (eta, phi)
        # the mu-side family alone pins down eta + phi
        sums = tuple(char_value(alg2, (0, 0), mu, eta, phi)
                     for mu in fund)
        expect = tuple(rs_ratio_power(alg2.rs.inner(
            alg2.rs.from_alpha(tuple(x + y for x, y in zip(eta, phi))), mu))
            for mu in fund)
        assert sums == expect


def test_parity_kernel_rank_one():
    got = center.parity_kernel(1, 3, "lambda_only")
    assert ((1,), (1,)) in got
    assert all(eta == phi for eta, phi in got)
    assert center.parity_kernel(1, 3, "full") == []


def test_parity_kernel_rank_two_and_three():
    assert center.parity_kernel(2, 3, "lambda_only") == []
    got = center.parity_kernel(3, 3, "lambda_only")
    assert ((1, 0, 1), (1, 0, 1)) in got
    assert center.parity_kernel(2, 2, "full") == []
    assert center.parity_kernel(3, 2, "full") == []
