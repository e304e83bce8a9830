import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgc
from qgc import center, scalars
from qgc.qgroup import Algebra
from qgc.scalars import (
    ONE,
    R,
    S,
    ZERO,
    LaurentBi,
    PoleAtPoint,
    Scalar,
    rs_ratio_power,
)


def rand_poly(rng, nterms=4, deg=3, coeff=6):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        terms[(rng.randint(-deg, deg), rng.randint(-deg, deg))] = rng.randint(-coeff, coeff)
    return LaurentBi(terms)


def rand_scalar(rng):
    num = rand_poly(rng)
    den = rand_poly(rng)
    while den.is_zero():
        den = rand_poly(rng)
    return Scalar(num, den)


def test_additive_inverse_cancels():
    assert (R - S) + (S - R) == ZERO


def test_squared_parameters():
    # with both simple-root lengths of the long roots, r_1 = r^2 and s_1 = s^2
    r1, s1 = R * R, S * S
    assert r1 * s1 == Scalar.monomial(4, 4)
    assert str(r1 * s1) == "r^2*s^2"


def test_rs_ratio_half_sum_exponent():
    # (r s^-1)^(2*(rho, alpha_1)) with (rho, alpha_1) = 1 in rank two
    assert rs_ratio_power(2) == R * R / (S * S)
    assert str(rs_ratio_power(2)) == "r^2*s^-2"
    assert str(rs_ratio_power(Fraction(1, 2))) == "r^(1/2)*s^(-1/2)"


def test_invert_simple():
    assert (R / S).inverse() == S / R
    x = R - S
    assert x.inverse() * x == ONE
    assert str(x.inverse()) == "1/(r - s)"
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_eval_numeric():
    x = R / S
    assert x.eval_numeric(2, 3) == Fraction(4, 9)
    assert ZERO.eval_numeric(5, 7) == 0
    with pytest.raises(PoleAtPoint):
        (ONE / (R - S)).eval_numeric(1, 1)


def test_field_axioms_randomized():
    rng = random.Random(20240901)
    for _ in range(60):
        x, y, z = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == ONE
        assert x + ZERO == x and x * ONE == x


def test_canonical_form_is_stable():
    rng = random.Random(7)
    for _ in range(40):
        x = rand_scalar(rng)
        again = Scalar(x.num, x.den)
        assert again.num == x.num and again.den == x.den
        # denominator is monomial-free with positive leading coefficient
        if not x.is_zero():
            mins = [min(a for a, b in x.den.terms), min(b for a, b in x.den.terms)]
            assert mins == [0, 0]


def test_common_factor_cancellation():
    x = (R - S) * (R + S)
    y = R - S
    q = Scalar(x.num, y.num)
    assert q == R + S


def test_eval_numeric_is_ring_hom():
    rng = random.Random(11)
    for _ in range(30):
        x, y = rand_scalar(rng), rand_scalar(rng)
        u0, v0 = Fraction(rng.randint(2, 9)), Fraction(rng.randint(10, 17))
        try:
            lhs_add = (x + y).eval_numeric(u0, v0)
            lhs_mul = (x * y).eval_numeric(u0, v0)
            xe, ye = x.eval_numeric(u0, v0), y.eval_numeric(u0, v0)
        except PoleAtPoint:
            continue
        assert lhs_add == xe + ye
        assert lhs_mul == xe * ye


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    Rng, u, v = ring("u v", ZZ)
    rng = random.Random(31337)
    for _ in range(25):
        a = rand_poly(rng, nterms=4, deg=2)
        b = rand_poly(rng, nterms=4, deg=2)
        c = rand_poly(rng, nterms=3, deg=2)
        f, g = a * c, b * c
        if f.is_zero() or g.is_zero():
            continue
        mine = f.gcd(g)
        # compare after clearing Laurent shifts: sympy works in ZZ[u, v]
        def lift(p):
            ma = min(x for x, _ in p.terms)
            mb = min(y for _, y in p.terms)
            return Rng.from_dict({(x - ma, y - mb): c for (x, y), c in p.terms.items()})
        ref = lift(f).gcd(lift(g))
        assert lift(mine) == ref or lift(mine) == -ref


def hom(*coeffs):
    """Homogeneous polynomial from its coefficients in descending powers of u."""
    d = len(coeffs) - 1
    return LaurentBi({(d - k, k): c for k, c in enumerate(coeffs) if c})


# the 18 irreducible factors of the nontrivial gcds met while building the
# rank-2 (2,0) and (2,2) central elements, both ways, and the rank-3 bases
LADDER_FACTORS = [hom(*cs) for cs in [
    (1, 1), (1, -1), (2, 0, 1), (1, 0, 2), (1, 0, 1), (1, 1, 1), (1, -1, 1),
    (2, 0, 1, 0, 2), (2, 0, 0, 0, -1), (3, 0, 2, 0, 3), (1, 0, 1, 0, -1),
    (1, 0, 0, 0, 1), (1, 0, 0, 0, -2), (1, 0, -1, 0, 1), (1, 0, -1, 0, -1),
    (3, 0, 7, 0, 12, 0, 7, 0, 3), (1, 0, 1, 0, 3, 0, 1, 0, 1),
    (1, 0, 0, 0, -1, 0, 0, 0, -1)]]

homogeneous = st.integers(0, 4).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d + 1, max_size=d + 1)
).filter(any).map(lambda cs: hom(*cs))


def sympy_gcd_normalized(f, g):
    """sympy's gcd of two Laurent polynomials in the canonical normalization:
    no monomial factor and a positive graded-lex leading coefficient."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    rng, _, _ = ring("u v", ZZ)

    def lift(p):
        ma = min(x for x, _ in p.terms)
        mb = min(y for _, y in p.terms)
        return rng.from_dict({(x - ma, y - mb): c for (x, y), c in p.terms.items()})

    ref = {k: int(c) for k, c in lift(f).gcd(lift(g)).items()}
    ma = min(x for x, _ in ref)
    mb = min(y for _, y in ref)
    ref = {(x - ma, y - mb): c for (x, y), c in ref.items()}
    lead = max(ref, key=lambda k: (k[0] + k[1], k[0], k[1]))
    return LaurentBi({k: -c for k, c in ref.items()} if ref[lead] < 0 else ref)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(LADDER_FACTORS), min_size=1, max_size=3),
       homogeneous, homogeneous, st.integers(-12, 12).filter(bool),
       st.integers(-12, 12).filter(bool), st.integers(-3, 3), st.integers(-3, 3))
def test_homogeneous_gcd_matches_sympy(factors, a, b, c1, c2, su, sv):
    h = LaurentBi.const(1)
    for factor in factors:
        h = h * factor
    f = LaurentBi.const(c1) * a * h
    g = LaurentBi.monomial(c2, su, sv) * b * h
    # the homogeneous path alone must answer: the sympy fallback is barred
    with mock.patch.object(scalars, "_sympy_gcd", side_effect=AssertionError):
        mine = f.gcd(g)
    assert mine == sympy_gcd_normalized(f, g)


def test_homogeneous_gcd_retries_a_bad_evaluation_point(monkeypatch):
    # u + v and 3u - 2v are coprime, but at the first point xi = 4 they give
    # gcd(5, 10) = 5, whose base-4 digits read as u + v, which fails to
    # divide 3u - 2v; the heuristic must grow xi and try again
    evaluations = []
    horner = scalars._horner
    monkeypatch.setattr(scalars, "_horner",
                        lambda f, x: evaluations.append(x) or horner(f, x))
    monkeypatch.setattr(scalars, "_sympy_gcd", mock.Mock(side_effect=AssertionError))
    f, g = hom(1, 1), hom(3, -2)
    assert f.gcd(g).is_one()
    assert len(set(evaluations)) > 1


def test_gcd_falls_back_to_sympy_when_heuristic_gives_up(monkeypatch):
    monkeypatch.setattr(scalars, "_heu_gcd", lambda f, g: None)
    fallback = mock.Mock(wraps=scalars._sympy_gcd)
    monkeypatch.setattr(scalars, "_sympy_gcd", fallback)
    f = LaurentBi.const(6) * hom(1, 1) * hom(1, 0, 1)
    g = LaurentBi.const(4) * hom(1, 1) * hom(2, 0, 1)
    assert f.gcd(g) == LaurentBi.const(2) * hom(1, 1)
    assert fallback.called


monomials = st.builds(LaurentBi.monomial, st.integers(-12, 12).filter(bool),
                      st.integers(-4, 4), st.integers(-4, 4))
laurent = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          st.integers(-6, 6), max_size=5).map(LaurentBi).filter(
                              lambda p: not p.is_zero())
shifted = st.builds(lambda p, m: p * m, homogeneous, monomials)


@settings(max_examples=150, deadline=None)
@given(monomials, st.one_of(monomials, shifted, laurent))
def test_unit_gcd_is_common_content(m, q):
    # a monomial is a unit, so LaurentBi.gcd answers without the general path
    general = LaurentBi(scalars._laurent_gcd(m.terms, q.terms))
    assert general == sympy_gcd_normalized(m, q)
    with mock.patch.object(scalars, "_laurent_gcd", side_effect=AssertionError):
        assert m.gcd(q) == general
        assert q.gcd(m) == general


@settings(max_examples=150, deadline=None)
@given(shifted, shifted)
def test_homogeneous_divexact_inverts_product(q, h):
    with mock.patch.object(scalars, "_poly_divexact", side_effect=AssertionError):
        assert (q * h).divexact(q) == h
        assert (q * h).divexact(h) == q


@settings(max_examples=150, deadline=None)
@given(shifted.filter(lambda q: len(q.terms) > 1), shifted,
       st.integers(-6, 6).filter(bool), st.integers(-4, 4))
def test_homogeneous_divexact_rejects_a_remainder(q, h, c, a):
    # q has two terms, so it divides no monomial c u^a v^b and so not q h + c u^a v^b
    qh = q * h
    d = next(iter(qh.terms))
    f = qh + LaurentBi.monomial(c, a, sum(d) - a)
    with mock.patch.object(scalars, "_poly_divexact", side_effect=AssertionError):
        with pytest.raises(ArithmeticError):
            f.divexact(q)


@settings(max_examples=150, deadline=None)
@given(laurent, laurent)
def test_divexact_inverts_product(q, h):
    assert (q * h).divexact(q) == h


def test_startup_and_fast_selftest_leave_sympy_unimported():
    script = ("import json, sys, qgc.cli\n"
              "at_import = 'sympy' in sys.modules\n"
              "code = qgc.cli.main(['selftest', '--fast'])\n"
              "print(json.dumps([code, at_import, 'sympy' in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(qgc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, False, False]


def test_rank2_trace_element_needs_no_sympy(monkeypatch):
    monkeypatch.setattr(scalars, "_sympy_gcd", mock.Mock(side_effect=AssertionError(
        "sympy gcd fallback reached on the rank-2 trace element")))
    alg = Algebra(2)
    z = center.central_from_trace(alg, (2, 0)).element
    assert len(center.hc_xi(alg, z)) == 5


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        x = rand_scalar(rng)
        assert Scalar.from_json(x.to_json()) == x


def test_fraction_constants():
    assert Scalar.from_fraction(Fraction(3, 6)) == Scalar.from_fraction(Fraction(1, 2))
    assert Scalar.from_fraction(Fraction(1, 2)) * 2 == ONE
    assert (ONE / 4 + ONE / 4 + ONE / 2) == ONE
