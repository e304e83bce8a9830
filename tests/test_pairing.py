import itertools
import random
from unittest import mock

import pytest

from qgc import pairing
from qgc.errors import RankMismatch, SingularGram, WrongSide
from qgc.linalg import rank
from qgc.pairing import (
    check_ad_invariance,
    dual_basis,
    gram,
    rosso,
    s2_twist,
    skew_pair,
    word_pair,
)
from qgc.qgroup import Algebra, word_content
from qgc.scalars import ONE, R, S, ZERO, LaurentBi
from test_qgroup import fword_element, words_of_content


@pytest.fixture(scope="module")
def alg2():
    return Algebra(2)


def rand_side_element(alg, rng, side, max_len=3):
    x = alg.one()
    for _ in range(rng.randint(1, max_len)):
        if rng.random() < 0.6:
            i = rng.randint(1, alg.n)
            x = x * (alg.f(i) if side == "-" else alg.e(i))
        else:
            i = rng.randint(1, alg.n)
            p = rng.choice([1, -1])
            x = x * (alg.omega_prime(i, p) if side == "-" else alg.omega(i, p))
    return x


def test_generator_pairings(alg2):
    for i in (1, 2):
        for j in (1, 2):
            expect = (alg2.s_i(i) - alg2.r_i(i)).inverse() if i == j else ZERO
            assert skew_pair(alg2, alg2.f(i), alg2.e(j)) == expect
    assert skew_pair(alg2, alg2.omega_prime(2), alg2.omega(2)) == R / S
    assert skew_pair(alg2, alg2.omega_prime(1), alg2.omega(1)) == (R / S) ** 2
    # inverse toral letters pair by the inverse value
    assert skew_pair(alg2, alg2.omega_prime(1, -1), alg2.omega(1)) == (S / R) ** 2
    assert skew_pair(alg2, alg2.omega_prime(1), alg2.omega(1, -1)) == (S / R) ** 2


def test_graded_orthogonality(alg2):
    assert skew_pair(alg2, alg2.f(1), alg2.e(2)) == ZERO
    y = alg2.f(1) * alg2.f(2)
    assert skew_pair(alg2, y, alg2.e(1)) == ZERO
    assert skew_pair(alg2, y, alg2.e(1) * alg2.e(1)) == ZERO


def test_wrong_side(alg2):
    with pytest.raises(WrongSide):
        skew_pair(alg2, alg2.e(1), alg2.e(1))
    with pytest.raises(WrongSide):
        skew_pair(alg2, alg2.f(1), alg2.f(1))
    with pytest.raises(WrongSide):
        skew_pair(alg2, alg2.omega(1), alg2.omega(1))


def test_antipode_invariance_of_pairing(alg2):
    rng = random.Random(101)
    for _ in range(20):
        y = rand_side_element(alg2, rng, "-")
        x = rand_side_element(alg2, rng, "+")
        lhs = skew_pair(alg2, alg2.antipode(y), alg2.antipode(x))
        assert lhs == skew_pair(alg2, y, x)


def test_gram_rank_one(alg2):
    g = gram(alg2, (1, 0))
    assert g == [[(alg2.s_i(1) - alg2.r_i(1)).inverse()]]
    pair = dual_basis(alg2, (1, 0))
    v = pair.dual_vector(alg2, 0)
    assert v == alg2.f(1).scale(alg2.s_i(1) - alg2.r_i(1))
    assert skew_pair(alg2, v, alg2.e(1)) == ONE


def test_gram_rank_equals_dimension_up_to_height_five(alg2):
    for h in range(6):
        for a in range(h + 1):
            nu = (a, h - a)
            g = gram(alg2, nu)
            assert rank(g) == alg2.graded_basis("+", nu).dim == \
                alg2.rs.kostant_count(nu), nu


def test_gram_nonsingular_and_dual(alg2):
    for nu in [(1, 1), (0, 2), (1, 2), (2, 2)]:
        g = gram(alg2, nu)
        d = len(g)
        assert rank(g) == d
        pair = dual_basis(alg2, nu)
        for i in range(d):
            vi = pair.dual_vector(alg2, i)
            for j, ew in enumerate(pair.e_words):
                got = skew_pair(alg2, vi, alg2.eword_element(ew))
                assert got == (ONE if i == j else ZERO)


def test_rosso_block_orthogonality(alg2):
    # mismatched raising/lowering contents pair to zero
    x = alg2.f(1) * alg2.omega(2) * alg2.e(1)
    y = alg2.f(2) * alg2.omega_prime(1) * alg2.e(1)
    assert rosso(alg2, x, y) == ZERO
    y2 = alg2.f(1) * alg2.e(2)
    assert rosso(alg2, x, y2) == ZERO


def test_rosso_dual_block_value(alg2):
    # <v_i w'_eta w_phi u_j, v_k w'_eta1 w_phi1 u_l> =
    #     delta_kj delta_il twist(nu) <w'_eta, w_phi1><w'_eta1, w_phi>
    #         <w'_nu, w_phi1><w'_nu, w_phi>
    # (the last two factors are the Borel crossing terms of the form)
    nu = (1, 1)
    pair = dual_basis(alg2, nu)
    eta, phi = (1, 0), (0, -1)
    eta1, phi1 = (0, 1), (1, 1)
    t_x = alg2.toral(eta, phi)
    t_y = alg2.toral(eta1, phi1)
    for i in range(pair.dim):
        for j in range(pair.dim):
            for k in range(pair.dim):
                for l in range(pair.dim):
                    x = pair.dual_vector(alg2, i) * t_x * alg2.eword_element(pair.e_words[j])
                    y = pair.dual_vector(alg2, k) * t_y * alg2.eword_element(pair.e_words[l])
                    got = rosso(alg2, x, y)
                    if j == k and i == l:
                        expect = s2_twist(alg2, nu) * \
                            alg2.gpair(eta, phi1) * alg2.gpair(eta1, phi) * \
                            alg2.gpair(nu, phi1) * alg2.gpair(nu, phi)
                        assert got == expect
                    else:
                        assert got == ZERO


def test_s2_twist_factor(alg2):
    rng = random.Random(103)
    for _ in range(10):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
        y = fword_element(alg2, word)
        y2 = alg2.antipode(alg2.antipode(y))
        from qgc.qgroup import word_content
        nu = word_content(2, word)
        for ew in alg2.graded_basis("+", nu).words:
            x = alg2.eword_element(ew)
            assert skew_pair(alg2, y2, x) == s2_twist(alg2, nu) * skew_pair(alg2, y, x)


def rand_word_element(alg, rng, max_len=2):
    """A product of 1..max_len random generators, torals of either sign."""
    x = alg.one()
    for _ in range(rng.randint(1, max_len)):
        k = rng.choice(["e", "f", "w", "wp"])
        i = rng.randint(1, alg.n)
        if k == "e":
            x = x * alg.e(i)
        elif k == "f":
            x = x * alg.f(i)
        elif k == "w":
            x = x * alg.omega(i, rng.choice([1, -1]))
        else:
            x = x * alg.omega_prime(i, rng.choice([1, -1]))
    return x


def test_ad_invariance(alg2):
    rng = random.Random(107)
    gens = [alg2.e(1), alg2.e(2), alg2.f(1), alg2.f(2),
            alg2.omega(1), alg2.omega_prime(2), alg2.one()]
    for a in gens:
        for _ in range(4):
            b, c = rand_word_element(alg2, rng), rand_word_element(alg2, rng)
            assert check_ad_invariance(alg2, a, b, c)
    # a specific lowering-side triple
    assert check_ad_invariance(alg2, alg2.e(1), alg2.f(1),
                               alg2.f(1) * alg2.omega_prime(2))


def mirrored_term(alg, rng, x):
    """F_ew t E_fw for a random term F_fw t' E_ew of x and a random toral t,
    so that the Rosso form can pair it with x to a nonzero value."""
    fw, _, _, ew = rng.choice(sorted(x.terms))
    eta = [rng.choice([-1, 0, 1]) for _ in range(alg.n)]
    phi = [rng.choice([-1, 0, 1]) for _ in range(alg.n)]
    return fword_element(alg, ew) * alg.toral(eta, phi) * alg.eword_element(fw)


def test_ad_invariance_rank3():
    # end-to-end oracle for the pairing at rank 3: every generator acts on a
    # random word b, and c mirrors a term of ad(a) b, so the two sides are
    # mostly nonzero
    alg = Algebra(3)
    rng = random.Random(307)
    gens = [g(i) for g in (alg.e, alg.f, alg.omega, alg.omega_prime)
            for i in (1, 2, 3)]
    for a in gens:
        nonzero = 0
        for _ in range(4):
            b = rand_word_element(alg, rng)
            x = alg.ad(a, b)
            c = rand_word_element(alg, rng) if x.is_zero() else mirrored_term(alg, rng, x)
            assert check_ad_invariance(alg, a, b, c)
            nonzero += not rosso(alg, x, c).is_zero()
        assert nonzero, a


def test_character_matrix_full_rank(alg2):
    # distinct toral exponent pairs give independent character rows
    pairs = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)),
             ((1, 1), (-1, 0)), ((0, 0), (0, 0))]
    grid = [((a, b), (c, d))
            for a in (-1, 0, 1) for b in (0, 1)
            for c in (-1, 0) for d in (0, 1)]
    mat = [[alg2.chi(eta, phi, e1, p1) for (e1, p1) in grid]
           for (eta, phi) in pairs]
    assert rank(mat) == len(pairs)


def test_word_pair_cache_consistency(alg2):
    # symmetry of the restriction: pairing matrix entries recompute identically
    nu = (2, 1)
    fb = alg2.graded_basis("-", nu).words
    eb = alg2.graded_basis("+", nu).words
    mat1 = [[word_pair(alg2, fw, ew) for ew in eb] for fw in fb]
    mat2 = gram(alg2, nu)
    assert mat1 == mat2


@pytest.mark.parametrize("n, contents", [
    (2, [(a, b) for a in range(3) for b in range(3)]),
    (3, [(1, 1, 1)]),
])
def test_word_pair_is_junction_pure_toral_term(n, contents):
    # the pairing <f_fw, e_ew> is the coefficient of the lone w'_nu term in
    # the straightened product e_ew f_fw, and its numerator is that
    # coefficient over the one D(nu)
    alg = Algebra(n)
    zero = (0,) * n
    for nu in contents:
        words = words_of_content(alg, nu)
        for fw in words:
            for ew in words:
                product = alg.eword_element(ew) * fword_element(alg, fw)
                pure = product.terms.get(((), nu, zero, ()), ZERO)
                assert word_pair(alg, fw, ew) == pure, (fw, ew)
                num = pairing._numerator(alg, fw, ew)
                assert num == pure / alg.inverse_denominator(nu), (fw, ew)


@pytest.mark.parametrize("word", [(3,), (0,), (1, 3), (1.5,)])
def test_word_pair_rejects_a_letter_out_of_range(word):
    # (0,) once counted as the last letter, (3,) raised a bare IndexError
    with pytest.raises(RankMismatch):
        word_pair(Algebra(2), word, word)


def reference_word_pair(alg, fw, ew, cache):
    """The pairing recursion with every factor a canonical Scalar: the
    generator value, one inverse group-like pairing per raising letter
    crossed, and <w'_j, w_(rest)>."""
    if not fw:
        return ONE if not ew else ZERO
    key = (fw, ew)
    if key not in cache:
        j = fw[0]
        uj = tuple(int(k == j - 1) for k in range(alg.n))
        gen = ONE / (alg.s_i(j) - alg.r_i(j))
        total = ZERO
        for t, letter in enumerate(ew):
            if letter != j:
                continue
            rest = ew[:t] + ew[t + 1:]
            move = ONE
            for l in ew[t + 1:]:
                ul = tuple(int(k == l - 1) for k in range(alg.n))
                move = move * alg.gpair(uj, ul).inverse()
            toral = alg.gpair(uj, word_content(alg.n, rest))
            total = total + move * toral * gen * \
                reference_word_pair(alg, fw[1:], rest, cache)
        cache[key] = total
    return cache[key]


def _contents(n, top):
    return [nu for nu in itertools.product(range(top + 1), repeat=n) if any(nu)]


@pytest.mark.parametrize("n, contents", [
    (2, _contents(2, 3)),
    (3, _contents(3, 2)),
    (4, [(1, 1, 1, 1)]),
], ids=["rank2", "rank3", "rank4"])
def test_word_pair_matches_scalar_recursion(n, contents):
    # the Laurent-numerator recursion against the per-factor Scalar one, on
    # every Gram entry; equal canonical forms are equal scalars
    alg = Algebra(n)
    cache = {}
    for nu in contents:
        fb = alg.graded_basis("-", nu).words
        eb = alg.graded_basis("+", nu).words
        g = gram(alg, nu)
        for i, fw in enumerate(fb):
            for k, ew in enumerate(eb):
                assert g[i][k] == reference_word_pair(alg, fw, ew, cache), \
                    (nu, fw, ew)


def test_gram_canonicalizes_each_entry_once():
    # numerators need no gcd; each entry is reduced once against D(nu)
    alg = Algebra(3)
    nu = (2, 2, 2)
    dim = alg.graded_basis("+", nu).dim
    assert alg.graded_basis("-", nu).dim == dim == 15
    with mock.patch.object(LaurentBi, "gcd", autospec=True,
                           side_effect=LaurentBi.gcd) as gcd:
        g = gram(alg, nu)
    assert 0 < gcd.call_count <= dim * dim
    assert rank(g) == dim


def test_a_failed_dual_basis_build_stores_nothing():
    alg = Algebra(2)
    with mock.patch.object(pairing, "invert", side_effect=ArithmeticError):
        with pytest.raises(SingularGram):
            dual_basis(alg, (1, 1))
    assert ((1, 1),) not in alg.memo("dual_basis")
    pair = dual_basis(alg, (1, 1))
    assert alg.memo("dual_basis")[((1, 1),)] is pair
