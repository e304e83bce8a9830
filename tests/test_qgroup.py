import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest

from qgc import center, linalg, pairing, repn
from qgc.errors import (BadArgument, NonIntegralSecondArgument, NotInRootLattice,
                        QgcError, RankMismatch, WrongSide)
from qgc.qgroup import Algebra, Element, word_content
from qgc.scalars import ONE, R, S, ZERO, LaurentBi, Scalar, rs_ratio_power, settle


@pytest.fixture(scope="module")
def algebras():
    return {2: Algebra(2), 3: Algebra(3)}


@pytest.fixture(scope="module")
def alg2(algebras):
    return algebras[2]


def unit(n, i):
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def rand_word_element(alg, rng, max_len=3, allow_toral=True):
    kinds = ["e", "f"] + (["w", "wp"] if allow_toral else [])
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


def fword_element(alg, word, coeff=ONE):
    """The lowering word f_word in normal form, times coeff."""
    zero = (0,) * alg.n
    return Element(alg, {(rep, zero, zero, ()): c * coeff
                         for rep, c in alg.reduce_word("-", word).items()})


def add_into(out, key, c):
    acc = out.get(key, ZERO) + c
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


_LETTER_ORDER = {"F": 0, "T": 1, "E": 2}


class LetterRewriter:
    """Reference straightener: rewrites whole letter tuples, one swap at a time.

    Rewrites the leftmost inversion of the F < T < E letter order (adjacent
    torals merge); a raising letter left of a lowering one branches through
    the commutator.  Every intermediate tuple is memoized.  It shares only
    the group-like pairing and the graded-basis reduction with the
    straightener it checks.
    """

    def __init__(self, alg):
        self.alg = alg
        self.memo = {}

    def product(self, x, y):
        out = {}
        for lx, cx in x.letters():
            for ly, cy in y.letters():
                for key, cw in self.normalize(tuple(lx + ly)).items():
                    add_into(out, key, cx * cy * cw)
        return Element(self.alg, out)

    def normalize(self, letters):
        hit = self.memo.get(letters)
        if hit is not None:
            return hit
        alg = self.alg
        idx = next((k for k in range(len(letters) - 1)
                    if _LETTER_ORDER[letters[k][0]] > _LETTER_ORDER[letters[k + 1][0]]
                    or letters[k][0] == letters[k + 1][0] == "T"), None)
        out = {}
        if idx is None:
            self.emit(letters, out)
            self.memo[letters] = out
            return out
        x, y = letters[idx], letters[idx + 1]
        head, tail = letters[:idx], letters[idx + 2:]
        swapped = head + (y, x) + tail
        if x[0] == "T" and y[0] == "T":
            merged = ("T", tuple(a + b for a, b in zip(x[1], y[1])),
                      tuple(a + b for a, b in zip(x[2], y[2])))
            branches = [(head + (merged,) + tail, ONE)]
        elif x[0] == "T":  # toral then lowering letter
            branches = [(swapped, self.move(x[1], x[2], y[1]))]
        elif y[0] == "T":  # raising letter then toral
            branches = [(swapped, self.move(y[1], y[2], x[1]))]
        else:  # raising then lowering: e_i f_j = f_j e_i + [e_i, f_j]
            branches = [(swapped, ONE)]
            i, zero = x[1], (0,) * alg.n
            if i == y[1]:
                c = (alg.r_i(i) - alg.s_i(i)).inverse()
                u = unit(alg.n, i)
                branches.append((head + (("T", zero, u),) + tail, c))
                branches.append((head + (("T", u, zero),) + tail, -c))
        for word, coeff in branches:
            for key, cw in self.normalize(word).items():
                add_into(out, key, coeff * cw)
        self.memo[letters] = out
        return out

    def move(self, eta, phi, i):
        return toral_move(self.alg, eta, phi, i)

    def emit(self, letters, out):
        alg = self.alg
        fw = tuple(l[1] for l in letters if l[0] == "F")
        ew = tuple(l[1] for l in letters if l[0] == "E")
        torals = [l for l in letters if l[0] == "T"]
        eta, phi = (torals[0][1], torals[0][2]) if torals else ((0,) * alg.n,) * 2
        for f_rep, cf in alg.reduce_word("-", fw).items():
            for e_rep, ce in alg.reduce_word("+", ew).items():
                add_into(out, (f_rep, eta, phi, e_rep), cf * ce)


def toral_move(alg, eta, phi, i):
    """<w'_eta, w_i> <w'_i, w_phi>^-1, the toral crossing factor: with
    t = w'_eta w_phi, t f_i = c f_i t and e_i t = c t e_i."""
    u = unit(alg.n, i)
    return alg.gpair(eta, u) * alg.gpair(u, phi).inverse()


def reference_junction(alg, ew, fw, memo):
    """The product e_ew f_fw by peeling raising letters, every coefficient a
    Scalar.

    Peels raising letters off the left one at a time with
    e_i f_j w = f_j (e_i w) + d_ij (w_i - w'_i) w / (r_i - s_i), and composes
    two tables per entry; the torals cross letters through the group-like
    pairing (toral_move).  Algebra.commutator peels lowering letters
    instead, and straighten applies whole commutators [e_i, f_y], so this is
    an independent recursion.
    """
    key = (ew, fw)
    hit = memo.get(key)
    if hit is not None:
        return hit
    zero = (0,) * alg.n
    if not ew or not fw:
        out = {(fw, zero, zero, ew): ONE}
    elif len(ew) == 1:
        i, j, rest = ew[0], fw[0], fw[1:]
        out = {((j,) + f, eta, phi, e): c for (f, eta, phi, e), c
               in reference_junction(alg, ew, rest, memo).items()}
        if i == j:
            u = unit(alg.n, i)
            c = (alg.r_i(i) - alg.s_i(i)).inverse()
            for eta, phi, coeff in ((zero, u, c), (u, zero, -c)):
                for l in rest:  # the toral crosses the rest of fw
                    coeff = coeff * toral_move(alg, eta, phi, l)
                add_into(out, (rest, eta, phi, ()), coeff)
    else:
        head = ew[:1]
        out = {}
        for (f, eta, phi, e), c in reference_junction(alg, ew[1:], fw, memo).items():
            for (f2, eta2, phi2, e2), c2 in reference_junction(alg, head, f, memo).items():
                if e2:
                    add_into(out, (f2, eta, phi, head + e),
                             c * c2 * toral_move(alg, eta, phi, head[0]))
                else:
                    add_into(out, (f2, tuple(a + b for a, b in zip(eta2, eta)),
                                   tuple(a + b for a, b in zip(phi2, phi)), e),
                             c * c2)
    memo[key] = out
    return out


def rand_normal_element(alg, rng, e_len, f_len, terms=2):
    """Sum of terms f t e with representative words and scalars 1 + k u^a v^b."""
    def content(length):
        nu = [0] * alg.n
        for _ in range(length):
            nu[rng.randrange(alg.n)] += 1
        return nu

    out = {}
    for _ in range(terms):
        fnu, enu = content(rng.choice(f_len)), content(rng.choice(e_len))
        fw = rng.choice(alg.graded_basis("-", fnu).words)
        ew = rng.choice(alg.graded_basis("+", enu).words)
        eta = tuple(rng.randint(-1, 1) for _ in range(alg.n))
        phi = tuple(rng.randint(-1, 1) for _ in range(alg.n))
        c = Scalar.monomial(rng.randint(-2, 2), rng.randint(-2, 2),
                            rng.choice([1, -1, 2]))
        add_into(out, (fw, eta, phi, ew), c + ONE)
    return Element(alg, out)


def ad_via_hopf(alg, x, z):
    """Adjoint action computed straight from the coproduct and antipode."""
    out = alg.zero()
    for (k1, k2), c in alg.comultiply(x).items():
        out = out + (alg.element_from_term(k1) * z *
                     alg.antipode(alg.element_from_term(k2))).scale(c)
    return out


# -- group-like pairing -------------------------------------------------------


def test_gpair_generator_values(alg2):
    n = alg2.n
    assert alg2.gpair(unit(n, n), unit(n, n)) == R / S
    assert alg2.gpair(unit(n, 1), unit(n, 1)) == R * R / (S * S)


def test_gpair_bimultiplicative(alg2):
    # <w'_(a1+a2), w_(a2)> = <w'_1, w_2> <w'_2, w_2> = r^-2 * r s^-1
    val = alg2.gpair((1, 1), (0, 1))
    assert val == (R * S).inverse()
    rng = random.Random(2)
    for _ in range(20):
        a = tuple(rng.randint(-2, 2) for _ in range(2))
        b = tuple(rng.randint(-2, 2) for _ in range(2))
        c = tuple(rng.randint(-2, 2) for _ in range(2))
        assert alg2.gpair(tuple(x + y for x, y in zip(a, b)), c) == \
            alg2.gpair(a, c) * alg2.gpair(b, c)
        assert alg2.gpair(a, tuple(x + y for x, y in zip(b, c))) == \
            alg2.gpair(a, b) * alg2.gpair(a, c)


def test_gpair_closed_forms():
    # closed forms of <w'_zeta, w_i> for a general root-lattice zeta
    for n in (2, 3):
        alg = Algebra(n)
        rng = random.Random(n)
        for _ in range(15):
            zeta = tuple(rng.randint(-3, 3) for _ in range(n))
            zeta_eps = alg.rs.from_alpha(zeta)
            for i in range(1, n + 1):
                got = alg.gpair(zeta, unit(n, i))
                if i < n:
                    e1 = 2 * alg.rs.inner(alg.rs.from_alpha(unit(n, i))[:], zeta_eps) \
                        if False else None
                    a = 2 * Fraction(zeta_eps[i - 1], 2)
                    b = 2 * Fraction(zeta_eps[i], 2)
                    expect = Scalar.monomial(int(2 * a), int(2 * b))
                else:
                    a = 2 * Fraction(zeta_eps[n - 1], 2)
                    expect = Scalar.monomial(int(2 * a), 0) * \
                        Scalar.monomial(-2 * zeta[n - 1], -2 * zeta[n - 1])
                assert got == expect, (zeta, i)


def test_gpair_rejects_non_integral_second(alg2):
    with pytest.raises(NonIntegralSecondArgument):
        alg2.gpair((1, 0), (Fraction(1, 2), 0))
    # half weights in the first slot are fine
    assert alg2.gpair((Fraction(1, 2), 1), (0, 1)) is not None


def reference_gpair(alg, eta, phi):
    """<w'_eta, w_phi> from the (eps_k, alpha_i) table and a Fraction loop,
    either slot possibly half-integral."""
    n = alg.n
    gr = [[0] * n for _ in range(n)]
    gs = [[0] * n for _ in range(n)]
    for i, alpha in enumerate(alg.rs.simple_roots):
        for j in range(n):
            if j < n - 1:
                gr[i][j] = int(2 * Fraction(alpha[j], 2))
                gs[i][j] = int(2 * Fraction(alpha[j + 1], 2))
            elif i < n - 1:
                gr[i][j] = int(2 * Fraction(alpha[n - 1], 2))
            else:
                gr[i][j], gs[i][j] = 1, -1
    pairs = [(Fraction(ei) * pj, i, j) for i, ei in enumerate(eta) if ei
             for j, pj in enumerate(phi) if pj]
    ru = 2 * sum(c * gr[i][j] for c, i, j in pairs)
    sv = 2 * sum(c * gs[i][j] for c, i, j in pairs)
    assert Fraction(ru).denominator == Fraction(sv).denominator == 1
    return Scalar.monomial(int(ru), int(sv))


def rand_alpha(rng, n, half=False):
    """Random alpha coordinates in [-3, 3], in steps of 1/2 when half."""
    if half:
        return tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(n))
    return tuple(rng.randint(-3, 3) for _ in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gpair_and_chi_match_the_reference_table(n):
    alg = Algebra(n)
    rng = random.Random(40 + n)
    for trial in range(40):
        eta, eta1 = rand_alpha(rng, n, trial % 2), rand_alpha(rng, n, trial % 3 == 0)
        phi, phi1 = rand_alpha(rng, n), rand_alpha(rng, n)
        assert alg.gpair(eta, phi) == reference_gpair(alg, eta, phi), (eta, phi)
        assert alg.chi(eta, phi, eta1, phi1) == \
            reference_gpair(alg, eta, phi1) * reference_gpair(alg, eta1, phi)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crossing_matches_the_toral_move(n):
    alg = Algebra(n)
    rng = random.Random(50 + n)
    for _ in range(25):
        eta, phi = rand_alpha(rng, n), rand_alpha(rng, n)
        cu, cv = alg._crossing(eta, phi)
        for l in range(1, n + 1):
            u = unit(n, l)
            move = Scalar.monomial(cu[l - 1], cv[l - 1])
            assert move == toral_move(alg, eta, phi, l), (eta, phi, l)
            assert move == reference_gpair(alg, eta, u) * \
                reference_gpair(alg, u, phi).inverse()


@pytest.mark.parametrize("call", [
    lambda: Algebra(2).gpair((Fraction(1, 8), 0), (1, 0)),
    lambda: Algebra(2).gpair((Fraction(1, 3), 0), (0, 1)),
    lambda: rs_ratio_power(Fraction(1, 3)),
    lambda: Algebra(2).gpair((0.5, 0), (1, 0)),
    lambda: rs_ratio_power(0.5),
], ids=["gpair-eighth", "gpair-third", "rs-ratio-third", "gpair-float", "rs-ratio-float"])
def test_exponents_off_the_half_powers_raise_bad_argument(call):
    with pytest.raises(BadArgument) as exc:
        call()
    assert isinstance(exc.value, QgcError) and isinstance(exc.value, ValueError)


def test_toral_exponents_are_integers(alg2):
    # integral Fractions are stored as ints, so the keys match int ones
    t = alg2.toral((Fraction(2), 0), (0, Fraction(-1, 1)))
    assert t == alg2.toral((2, 0), (0, -1))
    assert all(type(x) is int for key in t.terms for x in key[1] + key[2])
    assert alg2.omega(1, Fraction(3)) == alg2.omega(1, 3)
    for bad in (Fraction(1, 2), 0.5, 1.0, "1"):
        with pytest.raises(NotInRootLattice):
            alg2.toral((bad, 0), (0, 0))
        with pytest.raises(NotInRootLattice):
            alg2.toral((0, 0), (0, bad))
        with pytest.raises(NotInRootLattice):
            alg2.omega(1, bad)
        with pytest.raises(NotInRootLattice):
            alg2.omega_prime(2, bad)


@pytest.mark.parametrize("call", [
    lambda: Algebra(0),
    lambda: Algebra(1.5),
    lambda: Algebra(2.0),
    lambda: Algebra(2).qint(-1, 1),
    lambda: repn.verma(Algebra(2), (2, 0), (0, 0), -1),
    lambda: center.parity_kernel(2, 0),
    lambda: center.parity_kernel(2, 1, "partial"),
    lambda: Algebra(2).qint(2, 0),
    lambda: Algebra(2).r_i(3),
    lambda: Algebra(2).commutator(3, (1,)),
    lambda: Algebra(2).e(1.5),
], ids=["rank-0", "rank-fraction", "rank-float", "qint-negative", "verma-depth",
        "parity-bound", "parity-mode", "qint-index", "r_i-index", "commutator-index",
        "e-fraction"])
def test_caller_input_raises_a_structured_value_error(call):
    with pytest.raises(QgcError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda a2, b2, a3: a2.ad(a3.e(1), a2.f(1)),
    lambda a2, b2, a3: a2.ad(a2.e(1), b2.f(1)),
    lambda a2, b2, a3: a2.tau(a3.e(1)),
    lambda a2, b2, a3: a2.antipode(a3.e(1)),
    lambda a2, b2, a3: a2.comultiply(b2.e(1)),
    lambda a2, b2, a3: a2.straighten(a2.e(1), a3.f(1)),
    lambda a2, b2, a3: center.hc_xi(a2, a3.e(1)),
], ids=["ad-acting", "ad-acted-on", "tau", "antipode", "comultiply", "straighten",
        "hc_xi"])
def test_an_element_of_another_algebra_raises_rank_mismatch(call):
    # b2 has the rank of a2 but is another algebra, with its own tables
    with pytest.raises(RankMismatch):
        call(Algebra(2), Algebra(2), Algebra(3))


def test_coefficients_are_int_fraction_or_scalar(alg2):
    # scale(1.5) returned the NotImplemented sentinel, and scalar(1.5) and
    # element_from_term(key, 2) raised AttributeError
    x = alg2.e(1) + alg2.f(2)
    key = ((1,), (0, 0), (0, 0), ())
    half = Fraction(1, 2)
    assert x.scale(2) == 2 * x == x * 2 == x + x
    assert x.scale(half) == x * Scalar.from_fraction(half) == half * x
    assert alg2.scalar(3) == alg2.one().scale(3)
    assert alg2.scalar(True).to_json() == alg2.one().to_json()  # no JSON true
    assert alg2.element_from_term(key, 2) == alg2.f(1).scale(2)
    assert alg2.element_from_term(key, half) == alg2.f(1) * half
    assert alg2.eword_element((1,), R) == alg2.e(1) * R
    for bad in (1.5, "2", None, alg2):
        with pytest.raises(BadArgument):
            x.scale(bad)
        with pytest.raises(BadArgument):
            alg2.scalar(bad)
        with pytest.raises(BadArgument):
            alg2.element_from_term(key, bad)
        with pytest.raises(BadArgument):
            alg2.eword_element((1,), bad)
    # the operators keep Python's rule for an operand they cannot multiply
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(TypeError):
        1.5 * x


def test_a_content_that_is_not_integral_names_the_input():
    alg = Algebra(2)
    with pytest.raises(BadArgument, match=r"\(1\.5, 0\)"):
        alg.graded_basis("+", (1.5, 0))
    assert len(alg.memo("graded_basis")) == 0


# -- graded bases ---------------------------------------------------------------


def test_graded_dims_small(alg2):
    b = alg2.graded_basis("+", (1, 0))
    assert b.words == [(1,)] and b.dim == 1
    assert alg2.graded_basis("+", (1, 1)).dim == 2
    b = alg2.graded_basis("+", (2, 1))
    assert len(words_of_content(alg2, (2, 1))) == 3
    assert b.dim == 2


def test_graded_dims_match_kostant():
    for n, maxht in ((2, 5), (3, 4)):
        alg = Algebra(n)
        def cones(h):
            if h == 0:
                yield (0,) * n
                return
            for nu in cones(h - 1):
                for i in range(n):
                    out = list(nu)
                    out[i] += 1
                    yield tuple(out)
        seen = set()
        for h in range(0, maxht + 1):
            for nu in cones(h):
                if nu in seen:
                    continue
                seen.add(nu)
                for sign in "+-":
                    assert alg.graded_basis(sign, nu).dim == alg.rs.kostant_count(nu), \
                        (n, sign, nu)


def words_of_content(alg, nu):
    """All words over 1..n with the given alpha-coordinate content."""
    out = []

    def rec(prefix, remaining):
        if all(c == 0 for c in remaining):
            out.append(tuple(prefix))
            return
        for i in range(alg.n):
            if remaining[i]:
                remaining[i] -= 1
                prefix.append(i + 1)
                rec(prefix, remaining)
                prefix.pop()
                remaining[i] += 1

    rec([], list(nu))
    return out


def dense_relator_rows(alg, sign, nu):
    """The words of content nu, lex-descending, and every Serre relator
    placement u*rel*w of that content as a sparse row {word index: coeff}."""
    words = sorted(words_of_content(alg, nu), reverse=True)
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for rel in alg.serre_relators(sign):
        rest = tuple(a - b for a, b in zip(nu, word_content(alg.n, next(iter(rel)))))
        if any(c < 0 for c in rest):
            continue
        for left in itertools.product(*(range(c + 1) for c in rest)):
            right = tuple(a - b for a, b in zip(rest, left))
            for u in words_of_content(alg, left):
                for w in words_of_content(alg, right):
                    rows.append({index[u + mid + w]: c for mid, c in rel.items()})
    return words, rows


def reference_graded_basis(alg, sign, nu):
    """The dense build: every relator row as a full list over all words of
    the content, reduced through ``rref``; returns (reps, reduction), with a
    reduction for every word of the content."""
    words, sparse = dense_relator_rows(alg, sign, nu)
    rows = [[row.get(k, ZERO) for k in range(len(words))] for row in sparse]
    reduced, pivots = linalg.rref(rows) if rows else ([], [])
    reps = sorted(w for k, w in enumerate(words) if k not in pivots)
    reduction = {w: {w: ONE} for w in reps}
    for rrow, pcol in zip(reduced, pivots):
        reduction[words[pcol]] = {words[k]: -c for k, c in enumerate(rrow)
                                  if k != pcol and not c.is_zero()}
    return reps, reduction


def assert_matches_dense_build(alg, sign, nu):
    basis = alg.graded_basis(sign, nu)
    reps, reduction = reference_graded_basis(alg, sign, nu)
    assert basis.words == reps, (sign, nu)
    # every word of the content, with its items in the same order, so printed
    # and hashed normal forms agree
    for w in words_of_content(alg, nu):
        assert list(alg.reduce_word(sign, w).items()) == list(reduction[w].items()), \
            (sign, nu, w)


@pytest.mark.parametrize("n, top", [(2, 3), (3, 2)])
def test_graded_basis_matches_dense_build(n, top):
    alg = Algebra(n)
    for nu in itertools.product(range(top + 1), repeat=n):
        for sign in "+-":
            assert_matches_dense_build(alg, sign, nu)


def test_rank4_graded_basis_matches_dense_build():
    alg = Algebra(4)
    for nu in [(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 1), (1, 1, 2, 2), (2, 2, 2, 0)]:
        for sign in "+-":
            assert_matches_dense_build(alg, sign, nu)


def test_rank4_graded_dims_match_kostant():
    alg = Algebra(4)
    for nu in itertools.product(range(3), repeat=4):
        for sign in "+-":
            assert alg.graded_basis(sign, nu).dim == alg.rs.kostant_count(nu), (sign, nu)


def test_expansions_cover_the_spanning_words_only():
    alg = Algebra(3)
    nu = (2, 2, 2)
    for sign in "+-":
        span = {b + (i,) for i in (1, 2, 3)
                for b in alg.graded_basis(sign, tuple(
                    c - (k == i - 1) for k, c in enumerate(nu))).words}
        assert set(alg.graded_basis(sign, nu).expansion) == span
        assert len(span) < len(words_of_content(alg, nu)) == 90


def test_graded_basis_relation_rows():
    # only the relators placed at the end of a spanning word are fed: 88 rows
    # over rank-3 contents up to (2,2,2), against 428 for every placement
    alg = Algebra(3)
    with mock.patch.object(linalg.Echelon, "add", autospec=True,
                           side_effect=linalg.Echelon.add) as add:
        for nu in itertools.product(range(3), repeat=3):
            for sign in "+-":
                alg.graded_basis(sign, nu)
    assert add.call_count <= 100


def reference_lowering_relators(alg):
    """The lowering Serre relators as a literal table."""
    n = alg.n
    rels = []
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            rels.append({(i, j): ONE, (j, i): -ONE})
    for i in range(1, n):
        a = alg.r_i(i) + alg.s_i(i)
        b = alg.r_i(i) * alg.s_i(i)
        rels.append({(i + 1, i, i): ONE, (i, i + 1, i): -a, (i, i, i + 1): b})
    for j in range(1, n - 1):
        a = alg.r_i(j + 1).inverse() + alg.s_i(j + 1).inverse()
        b = (alg.r_i(j + 1) * alg.s_i(j + 1)).inverse()
        rels.append({(j, j + 1, j + 1): ONE, (j + 1, j, j + 1): -a,
                     (j + 1, j + 1, j): b})
    if n >= 2:
        rn_inv = alg.r_i(n).inverse()
        sn_inv = alg.s_i(n).inverse()
        big = rn_inv ** 2 + rn_inv * sn_inv + sn_inv ** 2
        prod = rn_inv * sn_inv
        rels.append({
            (n - 1, n, n, n): ONE,
            (n, n - 1, n, n): -big,
            (n, n, n - 1, n): prod * big,
            (n, n, n, n - 1): -(prod ** 3),
        })
    return rels


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lowering_relators_reverse_the_raising_ones(n):
    alg = Algebra(n)
    got = alg.serre_relators("-")
    expect = reference_lowering_relators(alg)
    assert len(got) == len(expect)
    for rel, ref in zip(got, expect):
        assert rel == ref or rel == {w: -c for w, c in ref.items()}, (rel, ref)
    # word reversal is tau on the relators since tau fixes each coefficient
    for rel in alg.serre_relators("+"):
        assert all(c.swap() == c for c in rel.values())


def invert_uv(c):
    """The image of a scalar under u -> u^-1, v -> v^-1."""
    def flip(p):
        return LaurentBi({(-a, -b): x for (a, b), x in p.terms.items()})
    return Scalar(flip(c.num), flip(c.den))


@pytest.mark.parametrize("n, top", [(1, (6,)), (2, (3, 3)), (3, (2, 2, 2)),
                                    (4, (2, 2, 2, 2)), (5, (1, 1, 1, 1, 1))])
def test_lowering_bases_are_the_raising_ones_inverted(n, top):
    # each lowering relator is its raising one with u, v inverted, up to a
    # unit, so the lowering bases have the raising words and, under that
    # map, the raising expansions and reductions
    alg = Algebra(n)
    rng = random.Random(n)
    for nu in itertools.product(*(range(t + 1) for t in top)):
        up, down = alg.graded_basis("+", nu), alg.graded_basis("-", nu)
        assert down.words == up.words, nu
        assert down.expansion == {w: {k: invert_uv(c) for k, c in exp.items()}
                                  for w, exp in up.expansion.items()}, nu
        letters = [i for i, k in enumerate(nu, 1) for _ in range(k)]
        for _ in range(5):
            rng.shuffle(letters)
            word = tuple(letters)
            assert alg.reduce_word("-", word) == \
                {k: invert_uv(c) for k, c in alg.reduce_word("+", word).items()}, word


def test_serre_relators_built_once():
    alg = Algebra(3)
    for sign in "+-":
        assert alg.serre_relators(sign) is alg.serre_relators(sign)
    assert alg.serre_relators("+") is not alg.serre_relators("-")


def test_reduction_idempotent(alg2):
    basis = alg2.graded_basis("+", (2, 2))
    for w in basis.words:
        assert alg2.reduce_word("+", w) == {w: ONE}
    for w in words_of_content(alg2, (2, 2)):
        for rep in alg2.reduce_word("+", w):
            assert rep in basis.words


def test_graded_basis_rejects_a_bad_sign():
    alg = Algebra(2)
    with pytest.raises(WrongSide):
        alg.graded_basis("x", (1, 1))
    assert len(alg.memo("graded_basis")) == 0


@pytest.mark.parametrize("word", [(0,), (0, 1), (3, 1), (1, 3)])
@pytest.mark.parametrize("half", ["fword_element", "eword_element"])
def test_words_reject_a_bad_letter(half, word):
    alg = Algebra(2)
    build = {"fword_element": fword_element, "eword_element": Algebra.eword_element}[half]
    with pytest.raises(RankMismatch):
        build(alg, word)
    assert len(alg.memo("reduce_word")) == 0


def test_reduce_word_rejects_a_bad_sign():
    alg = Algebra(2)
    for word in ((1, 2), (1,), ()):  # short words skip the memo table
        with pytest.raises(WrongSide):
            alg.reduce_word("x", word)
    assert len(alg.memo("reduce_word")) == 0


def test_serre_relators_reject_a_bad_sign():
    alg = Algebra(2)
    with pytest.raises(WrongSide):
        alg.serre_relators("x")
    assert len(alg.memo("serre_relators")) == 0
    assert alg.serre_relators("+") != alg.serre_relators("-")


def test_over_denominators_divides_each_content_once(monkeypatch):
    # one key over three contents, and a key whose two sums cancel
    alg = Algebra(2)
    d1, d2 = alg.s_i(1) - alg.r_i(1), alg.s_i(2) - alg.r_i(2)
    a, b, c = R, S + ONE, R * S
    grouped = {(1, 0): {"k": a, "z": ONE}, (0, 2): {"k": b},
               (0, 0): {"k": c}, (1, 1): {"z": -d2}}
    calls = []
    table = alg.inverse_denominator
    monkeypatch.setattr(alg, "inverse_denominator",
                        lambda mu: calls.append(mu) or table(mu))
    out = pairing._over_denominators(alg, grouped)
    assert out == {"k": a / d1 + b / (d2 * d2) + c}
    assert sorted(calls) == [(0, 0), (0, 2), (1, 0), (1, 1)]


# -- straightening ----------------------------------------------------------------


def test_commutator_e_f(alg2):
    lhs = alg2.e(1) * alg2.f(1)
    expect = alg2.f(1) * alg2.e(1) + \
        (alg2.omega(1) - alg2.omega_prime(1)).scale(
            (alg2.r_i(1) - alg2.s_i(1)).inverse())
    assert lhs == expect
    assert alg2.e(1) * alg2.f(2) == alg2.f(2) * alg2.e(1)


def test_toral_crossing(alg2):
    # w_1 e_2 = s^2 e_2 w_1
    lhs = alg2.omega(1) * alg2.e(2)
    rhs = (alg2.e(2) * alg2.omega(1)).scale(S * S)
    assert lhs == rhs


def _eps_dot_alpha(eps_index, alpha_doubled):
    # (eps_k, alpha) for a simple root alpha (even doubled coordinates)
    return alpha_doubled[eps_index] // 2


def conj_omega_e(alg, j, i):
    """Scalar c with w_j e_i w_j^-1 = c e_i, from the defining tables."""
    n = alg.n
    alpha_i = alg.rs.simple_roots[i - 1]
    if j < n:
        a = _eps_dot_alpha(j - 1, alpha_i)
        b = _eps_dot_alpha(j, alpha_i)
        return alg.r_i(j) ** a * alg.s_i(j) ** b
    if i < n:
        return alg.r_i(n) ** (2 * _eps_dot_alpha(n - 1, alpha_i))
    e = _eps_dot_alpha(n - 1, alpha_i)
    return alg.r_i(n) ** e * alg.s_i(n) ** -e


def conj_omega_prime_e(alg, j, i):
    """Scalar c with w'_j e_i w'_j^-1 = c e_i, from the defining tables."""
    n = alg.n
    alpha_i = alg.rs.simple_roots[i - 1]
    if j < n:
        a = _eps_dot_alpha(j - 1, alpha_i)
        b = _eps_dot_alpha(j, alpha_i)
        return alg.s_i(j) ** a * alg.r_i(j) ** b
    if i < n:
        return alg.s_i(n) ** (2 * _eps_dot_alpha(n - 1, alpha_i))
    e = _eps_dot_alpha(n - 1, alpha_i)
    return alg.s_i(n) ** e * alg.r_i(n) ** -e


def test_defining_conjugations_match_tables(alg2):
    for j in range(1, 3):
        for i in range(1, 3):
            conj = alg2.omega(j) * alg2.e(i) * alg2.omega(j, -1)
            assert conj == alg2.e(i).scale(conj_omega_e(alg2, j, i))
            conj = alg2.omega_prime(j) * alg2.e(i) * alg2.omega_prime(j, -1)
            assert conj == alg2.e(i).scale(conj_omega_prime_e(alg2, j, i))
            conj = alg2.omega(j) * alg2.f(i) * alg2.omega(j, -1)
            assert conj == alg2.f(i).scale(conj_omega_e(alg2, j, i).inverse())
            conj = alg2.omega_prime(j) * alg2.f(i) * alg2.omega_prime(j, -1)
            assert conj == alg2.f(i).scale(conj_omega_prime_e(alg2, j, i).inverse())


@pytest.mark.parametrize("n, trials", [(2, 12), (3, 6)])
def test_straighten_matches_letter_rewriter(algebras, n, trials):
    alg = algebras[n]
    ref = LetterRewriter(alg)
    rng = random.Random(100 + n)
    for _ in range(trials):
        # multi-letter raising words on the left meet lowering words on the
        # right, with torals on both sides of the junction
        x = rand_normal_element(alg, rng, e_len=(2, 3), f_len=(0, 1, 2))
        y = rand_normal_element(alg, rng, e_len=(0, 1, 2), f_len=(2, 3))
        assert x * y == ref.product(x, y)
    for i in range(1, n + 1):
        z = rand_normal_element(alg, rng, e_len=(1, 2), f_len=(1, 2), terms=3)
        assert alg.e(i) * z == ref.product(alg.e(i), z)
        assert z * alg.f(i) == ref.product(z, alg.f(i))


def _words_up_to(alg, top):
    return [w for nu in itertools.product(*(range(t + 1) for t in top))
            for w in words_of_content(alg, nu)]


def reduced_junction(alg, ew, fw, memo):
    """``reference_junction`` with both words of each entry reduced."""
    out = {}
    for (f, eta, phi, e), c in reference_junction(alg, ew, fw, memo).items():
        for f_rep, cf in alg.reduce_word("-", f).items():
            for e_rep, ce in alg.reduce_word("+", e).items():
                add_into(out, (f_rep, eta, phi, e_rep), c * cf * ce)
    return out


def reference_commutator(alg, i, fw, memo):
    """[e_i, f_fw] D(alpha_i) as the torals' part of the one-letter
    junction of ``reference_junction``, its words reduced."""
    den = alg.inverse_denominator(unit(alg.n, i)).inverse()
    return {(f, eta, phi): c * den for (f, eta, phi, e), c
            in reduced_junction(alg, (i,), fw, memo).items() if any(eta + phi)}


@pytest.mark.parametrize("n, top", [(2, (2, 2)), (3, (1, 1, 1)), (3, (1, 2, 1))])
def test_junction_matches_scalar_recursion(n, top):
    # every product e_ew f_fw of words up to the content top, against the
    # raising-letter recursion with every coefficient a Scalar; and the
    # commutator table against that recursion's one-letter case
    alg = Algebra(n)
    words = _words_up_to(alg, top)
    memo = {}
    for ew in words:
        for fw in words:
            product = alg.eword_element(ew) * fword_element(alg, fw)
            assert product.terms == reduced_junction(alg, ew, fw, memo), (ew, fw)
    for i in range(1, n + 1):
        for fw in words:
            assert alg.commutator(i, fw) == reference_commutator(alg, i, fw, memo), (i, fw)


def test_pairing_numerators_take_no_product():
    # the pairing numerators are built by shifts and sums alone
    alg = Algebra(2)
    words = _words_up_to(alg, (2, 2))
    pairs = [(fw, ew) for ew in words for fw in words
             if word_content(2, fw) == word_content(2, ew)]
    with mock.patch.object(LaurentBi, "__mul__",
                           side_effect=AssertionError("LaurentBi product")):
        for fw, ew in pairs:
            pairing._numerator(alg, fw, ew)
    assert len(alg.memo("numerator")) >= len(pairs) == 63


@pytest.fixture(scope="module")
def z22(alg2):
    """The certified rank-2 trace element of lambda = (2,2), 243 terms."""
    return center.central_from_trace(alg2, (2, 2)).element


def test_straighten_trace_element_matches_letter_rewriter(alg2, z22):
    # z's coefficients are polynomials, but its words are long enough that
    # the commutator sums over D(alpha_i) must cancel against it exactly
    ref = LetterRewriter(alg2)
    assert len(z22.terms) == 243
    for i in (1, 2):
        e, f = alg2.e(i), alg2.f(i)
        ez = e * z22
        assert all(c.den.is_one() for c in ez.terms.values())
        assert ez == ref.product(e, z22)
        assert z22 * e == ref.product(z22, e)
        assert f * z22 == ref.product(f, z22)
        assert z22 * f == ref.product(z22, f)


def in_process():
    """One worker: every certificate check runs where a spy sees it."""
    return mock.patch.object(center, "_cores", return_value=1)


def test_certificate_divides_once_per_normal_form_term(alg2, z22):
    # with the algebra warm, ad(e_i) z and ad(f_i) z cost at most one gcd
    # per term of each of the four products; a per-entry Scalar division
    # made 3,130 gcds here
    with in_process():
        assert center.centrality_failures(alg2, z22) == []
        with mock.patch.object(LaurentBi, "gcd", autospec=True,
                               side_effect=LaurentBi.gcd) as gcd:
            assert center.centrality_failures(alg2, z22) == []
    assert gcd.call_count <= 4 * len(z22.terms)


def test_certificate_of_a_central_element_takes_no_gcd(algebras, z22):
    # every sum of ad(e_i) z and tau z cancels or lies over 1 for a central
    # z with polynomial coefficients, so a warm certificate takes no gcd; the
    # division of each ad(e_i) key by D(alpha_i) made 338 and 676 here
    z3 = center.central_from_trace(algebras[3], (2, 0, 0)).element
    for alg, z in ((algebras[2], z22), (algebras[3], z3)):
        with in_process():
            assert center.centrality_failures(alg, z) == []
            with mock.patch.object(LaurentBi, "gcd", autospec=True,
                                   side_effect=LaurentBi.gcd) as gcd:
                assert center.centrality_failures(alg, z) == []
        assert gcd.call_count == 0


def test_certificate_straightens_raising_generators_only(alg2, z22):
    # z22 commutes with the torals and is fixed by tau, so its lowering
    # generators follow from the raising ones, and ad(f_i) is never computed;
    # ad(e_i) and tau straighten nothing.  r z22 is central but not fixed by
    # tau, so its n ad(f_i) are computed as well, each straightening f_i z
    # and z f_i.
    rz = z22.scale(R)
    for z, lowering in ((z22, 0), (rz, alg2.n)):
        with in_process():
            assert center.centrality_failures(alg2, z) == []
            with mock.patch.object(Algebra, "_ad_letter", autospec=True,
                                   side_effect=Algebra._ad_letter) as letter, \
                    mock.patch.object(Algebra, "straighten", autospec=True,
                                      side_effect=Algebra.straighten) as straighten:
                assert center.centrality_failures(alg2, z) == []
        kinds = [call.args[1][0] for call in letter.call_args_list]
        assert kinds.count("F") == lowering and kinds.count("E") == alg2.n
        assert straighten.call_count == 2 * lowering


def test_associativity_random(alg2):
    rng = random.Random(17)
    for _ in range(12):
        x = rand_word_element(alg2, rng, 2)
        y = rand_word_element(alg2, rng, 2)
        z = rand_word_element(alg2, rng, 2)
        assert (x * y) * z == x * (y * z)


def test_serre_relators_normalize_to_zero():
    for n in (1, 2, 3):
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
                assert total.is_zero(), (n, sign, rel)


# -- Hopf structure -----------------------------------------------------------------


def test_comultiply_generators(alg2):
    d = alg2.comultiply(alg2.e(1))
    e1 = ((), (0, 0), (0, 0), (1,))
    one = ((), (0, 0), (0, 0), ())
    w1 = ((), (0, 0), (1, 0), ())
    assert d == {(e1, one): ONE, (w1, e1): ONE}
    t = alg2.toral((1, 2), (-1, 0))
    dt = alg2.comultiply(t)
    tk = ((), (1, 2), (-1, 0), ())
    assert dt == {(tk, tk): ONE}


def test_comultiply_product_term_count(alg2):
    d = alg2.comultiply(alg2.e(1) * alg2.e(2))
    assert len(d) == 4


def test_coassociativity_and_counit(alg2):
    rng = random.Random(23)
    words = [alg2.e(1), alg2.f(2), alg2.omega(1)] + \
        [rand_word_element(alg2, rng, 3) for _ in range(6)]
    for x in words:
        dx = alg2.comultiply(x)
        left = {}
        right = {}
        for (k1, k2), c in dx.items():
            for (k11, k12), c2 in alg2.comultiply(alg2.element_from_term(k1)).items():
                key = (k11, k12, k2)
                left[key] = left.get(key, ZERO) + c * c2
            for (k21, k22), c2 in alg2.comultiply(alg2.element_from_term(k2)).items():
                key = (k1, k21, k22)
                right[key] = right.get(key, ZERO) + c * c2
        left = {k: v for k, v in left.items() if not v.is_zero()}
        right = {k: v for k, v in right.items() if not v.is_zero()}
        assert left == right
        # counit laws
        eps_id = alg2.zero()
        id_eps = alg2.zero()
        for (k1, k2), c in dx.items():
            eps_id = eps_id + alg2.element_from_term(k2).scale(
                c * alg2.counit(alg2.element_from_term(k1)))
            id_eps = id_eps + alg2.element_from_term(k1).scale(
                c * alg2.counit(alg2.element_from_term(k2)))
        assert eps_id == x and id_eps == x


def test_antipode_axiom(alg2):
    rng = random.Random(29)
    words = [alg2.e(2), alg2.f(1), alg2.omega_prime(2)] + \
        [rand_word_element(alg2, rng, 3) for _ in range(6)]
    for x in words:
        dx = alg2.comultiply(x)
        s_id = alg2.zero()
        id_s = alg2.zero()
        for (k1, k2), c in dx.items():
            s_id = s_id + (alg2.antipode(alg2.element_from_term(k1)) *
                           alg2.element_from_term(k2)).scale(c)
            id_s = id_s + (alg2.element_from_term(k1) *
                           alg2.antipode(alg2.element_from_term(k2))).scale(c)
        expect = alg2.scalar(alg2.counit(x))
        assert s_id == expect and id_s == expect


def test_antipode_generators(alg2):
    assert alg2.antipode(alg2.e(1)) == alg2.omega(1, -1) * alg2.e(1) * alg2.scalar(-1)
    assert alg2.antipode(alg2.f(1)) == alg2.f(1) * alg2.omega_prime(1, -1) * alg2.scalar(-1)
    t = alg2.toral((2, -1), (0, 3))
    assert alg2.antipode(t) == alg2.toral((-2, 1), (0, -3))
    assert alg2.counit(alg2.omega(1)) == ONE
    assert alg2.counit(alg2.e(1)) == ZERO


def test_antipode_squared_twist(alg2):
    # S^2 on a lowering word is the monomial (r s^-1)^(2 (rho, nu))
    rng = random.Random(31)
    for _ in range(8):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
        x = fword_element(alg2, word)
        nu = word_content(2, word)
        pow2 = 2 * alg2.rs.inner(alg2.rs.from_alpha(nu), alg2.rs.rho)
        twist = rs_ratio_power(pow2)
        assert alg2.antipode(alg2.antipode(x)) == x.scale(twist)


def test_tau_generators(algebras):
    for n, alg in algebras.items():
        for i in range(1, n + 1):
            assert alg.tau(alg.e(i)) == alg.f(i)
            assert alg.tau(alg.f(i)) == alg.e(i)
            assert alg.tau(alg.omega(i)) == alg.omega_prime(i)
            assert alg.tau(alg.omega_prime(i, -1)) == alg.omega(i, -1)
        assert alg.tau(alg.scalar(R)) == alg.scalar(S)
        assert alg.tau(alg.scalar(R - S).scale(ONE / (R + S * S))) == \
            alg.scalar(S - R).scale(ONE / (S + R * R))


DISTINCT_DENOMINATORS = (ONE / (R * S - 3), ONE / (R + S * S * 2))


def mixed_denominator_element(alg, rng):
    """Terms f_y t e_x on one toral t, for two lowering and two raising
    words of one content each, with f_y over the y-th denominator of
    DISTINCT_DENOMINATORS.  The reversed lowering words reduce to raising
    words that overlap, so both tau and the commutators [e_i, f_y] of
    ad(e_i) bring the two denominators to one key."""
    def two_words(sign, overlap):
        options = [basis.words[:2] for nu in itertools.product(range(3), repeat=alg.n)
                   for basis in [alg.graded_basis(sign, nu)] if basis.dim >= 2]
        if overlap:
            options = [ws for ws in options
                       if set(alg.reduce_word("+", ws[0][::-1]))
                       & set(alg.reduce_word("+", ws[1][::-1]))]
        return rng.choice(options)

    toral = (tuple(rng.randint(-1, 1) for _ in range(alg.n)),
             tuple(rng.randint(-1, 1) for _ in range(alg.n)))
    fwords, ewords = two_words("-", True), two_words("+", False)
    terms = {}
    for y, fw in enumerate(fwords):
        for ew in ewords:
            c = Scalar.monomial(rng.randint(-2, 2), rng.randint(-2, 2),
                                rng.choice([1, -1, 2]))
            terms[(fw, *toral, ew)] = (c + ONE) * DISTINCT_DENOMINATORS[y]
    return Element(alg, terms)


def met_distinct_denominators(settled):
    """Whether some key of the recorded accumulators holds one bucket over
    a multiple of each distinct denominator (or of its r <-> s image) and
    not of the other."""
    dens = [d.den for d in DISTINCT_DENOMINATORS]
    dens += [d.swap().den for d in DISTINCT_DENOMINATORS]

    def over(den):
        return {k % 2 for k, d in enumerate(dens) if den.gcd(d) == d}

    return any({0} in parts and {1} in parts
               for acc in settled for buckets in acc.values()
               for parts in [[over(den) for den in buckets]])


def recording_settle(settled):
    """A stand-in for qgroup.settle that records each accumulator first."""
    def record(acc):
        settled.append({k: dict(b) for k, b in acc.items()})
        return settle(acc)
    return mock.patch("qgc.qgroup.settle", side_effect=record)


def reference_tau(alg, x):
    """tau term by term: both words of each term reversed and reduced, and
    the two reductions expanded against each other."""
    out = {}
    for (fw, eta, phi, ew), c in x.terms.items():
        for f_rep, cf in alg.reduce_word("-", ew[::-1]).items():
            cf = c.swap() * cf
            for e_rep, ce in alg.reduce_word("+", fw[::-1]).items():
                add_into(out, (f_rep, phi, eta, e_rep), cf * ce)
    return Element(alg, out)


@pytest.mark.parametrize("n, trials", [(2, 60), (3, 60)])
def test_tau_reverses_products(algebras, n, trials):
    # tau(x y) = tau(y) tau(x), both products taken by the letter rewriter;
    # the coefficients are not symmetric in r and s, and the torals carry
    # exponents of both signs
    alg = algebras[n]
    ref = LetterRewriter(alg)
    rng = random.Random(300 + n)
    skew = (R + S * S * 2) / (R * S - 3)
    for _ in range(trials):
        x = rand_normal_element(alg, rng, e_len=(0, 1, 2), f_len=(0, 1, 2))
        y = rand_normal_element(alg, rng, e_len=(0, 1, 2), f_len=(0, 1, 2))
        x = x.scale(skew)
        assert alg.tau(alg.tau(x)) == x
        xy = ref.product(x, y)
        assert alg.tau(xy) == ref.product(alg.tau(y), alg.tau(x))
        assert alg.tau(x) == reference_tau(alg, x)
        assert alg.tau(xy) == reference_tau(alg, xy)
    # one output key meets buckets over distinct denominators
    settled = []
    for _ in range(trials // 6):
        x = mixed_denominator_element(alg, rng)
        with recording_settle(settled):
            image = alg.tau(x)
        assert image == reference_tau(alg, x)
        assert alg.tau(image) == x
    assert met_distinct_denominators(settled)


def test_tau_fixes_trace_elements(alg2, z22):
    z20 = center.central_from_trace(alg2, (2, 0)).element
    assert alg2.tau(z20) == z20 == reference_tau(alg2, z20)
    assert alg2.tau(z22) == z22 == reference_tau(alg2, z22)
    assert alg2.tau(z20.scale(R)) == z20.scale(S) != z20.scale(R)


# -- adjoint action -------------------------------------------------------------------


def test_ad_matches_hopf_route(alg2):
    rng = random.Random(37)
    gens = [alg2.e(1), alg2.e(2), alg2.f(1), alg2.f(2),
            alg2.omega(1), alg2.omega_prime(2)]
    zs = [rand_word_element(alg2, rng, 2) for _ in range(4)]
    for a in gens:
        for z in zs:
            assert alg2.ad(a, z) == ad_via_hopf(alg2, a, z)
    for _ in range(4):
        a = rand_word_element(alg2, rng, 2)
        z = rng.choice(zs)
        assert alg2.ad(a, z) == ad_via_hopf(alg2, a, z)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["omega", "omega_prime"])
def test_ad_closed_forms(algebras, n, kind):
    alg = algebras[n]
    ref = LetterRewriter(alg)
    rng = random.Random(41)
    toral = getattr(alg, kind)
    for _ in range(3):
        z = rand_word_element(alg, rng, 3)
        for i in range(1, n + 1):
            conj = ref.product(ref.product(toral(i), z), toral(i, -1))
            assert alg.ad(toral(i), z) == toral(i) * z * toral(i, -1) == conj
            if kind == "omega_prime":
                # ad(f_i) moves w'_i^-1 across the raising words, no straighten
                f, w = alg.f(i), toral(i, -1)
                comm = ref.product(f, z) - ref.product(z, f)
                assert alg.ad(f, z) == (f * z - z * f) * w == ref.product(comm, w)
    assert alg.ad(alg.e(1), alg.one()).is_zero()
    # expanding ad(e_1) f_1 via the commutator and the toral crossing
    u1 = unit(n, 1)
    got = alg.ad(alg.e(1), alg.f(1))
    cross = alg.gpair(u1, u1).inverse()
    expect = (alg.f(1) * alg.e(1)).scale(ONE - cross) + \
        (alg.omega(1) - alg.omega_prime(1)).scale(
            (alg.r_i(1) - alg.s_i(1)).inverse())
    assert got == expect


def reference_ad(ref, i, z):
    """ad(e_i) z = e_i z - (w_i z w_i^-1) e_i, every product taken by the
    letter rewriter ``ref``."""
    alg = ref.alg
    conj = ref.product(ref.product(alg.omega(i), z), alg.omega(i, -1))
    return ref.product(alg.e(i), z) - ref.product(conj, alg.e(i))


@pytest.mark.parametrize("n, trials", [(2, 16), (3, 8)])
def test_ad_raising_matches_two_straightenings(algebras, n, trials):
    # torals of both signs, words up to three letters on either side, and
    # coefficients with denominators; no straightening is made
    alg = algebras[n]
    rng = random.Random(500 + n)
    skew = (R + S * S * 2) / (R * S - 3)
    cases = [rand_normal_element(alg, rng, e_len=(0, 1, 2, 3), f_len=(0, 1, 2, 3),
                                 terms=3).scale(skew) for _ in range(trials)]
    # terms over distinct denominators, so that one output key meets
    # buckets of two or more
    cases += [mixed_denominator_element(alg, rng) for _ in range(trials // 4)]
    ref = LetterRewriter(alg)
    expect = [[reference_ad(ref, i, z) for i in range(1, n + 1)] for z in cases]
    settled = []
    with mock.patch.object(Algebra, "straighten",
                           side_effect=AssertionError("straighten")), \
            recording_settle(settled):
        for z, images in zip(cases, expect):
            assert [alg.ad(alg.e(i), z) for i in range(1, n + 1)] == images
    assert met_distinct_denominators(settled)


@pytest.mark.parametrize("lam", [(2, 0), (2, 2)])
def test_ad_raising_matches_on_the_solver_ansatz(alg2, lam):
    # every one-term unknown of the solver, against every e_i
    module = repn.irreducible(alg2, lam)
    ref = LetterRewriter(alg2)
    count = 0
    for nu, rows in center._blocks(alg2, module).items():
        if not any(nu):
            continue  # the pinned block
        etas = {eta for _, eta in rows}
        for fw in alg2.graded_basis("-", nu).words:
            for ew in alg2.graded_basis("+", nu).words:
                for eta in etas:
                    phi = tuple(-(a + b) for a, b in zip(eta, nu))
                    z = alg2.element_from_term((fw, eta, phi, ew))
                    for i in (1, 2):
                        assert alg2.ad(alg2.e(i), z) == reference_ad(ref, i, z)
                        count += 1
    assert count == {(2, 0): 94, (2, 2): 468}[lam]


def test_commutator_table_is_the_peeled_junction(alg2):
    # [e_i, f_y] D(alpha_i), kept per (i, y) with its lowering words reduced,
    # as ad(e_i) reads it
    reps = [w for nu in itertools.product(range(3), repeat=2)
            for w in alg2.graded_basis("-", nu).words]
    memo = {}
    for i in (1, 2):
        for fw in reps:
            alg2.ad(alg2.e(i), alg2.element_from_term((fw, (0, 0), (0, 0), ())))
            assert alg2.memo("commutator")[(i, fw)] == \
                reference_commutator(alg2, i, fw, memo), (i, fw)


def test_ad_is_algebra_action(alg2):
    rng = random.Random(43)
    for _ in range(6):
        x = rand_word_element(alg2, rng, 2)
        y = rand_word_element(alg2, rng, 2)
        z = rand_word_element(alg2, rng, 2)
        assert alg2.ad(x * y, z) == alg2.ad(x, alg2.ad(y, z))


# -- quantum integers -------------------------------------------------------------------


def test_qint(alg2):
    assert alg2.qint(0, 1) == ZERO
    assert alg2.qint(1, 1) == ONE
    assert alg2.qint(2, 1) == R * R + S * S
    assert alg2.qint(2, 2) == R + S


def test_element_text_and_json(alg2):
    x = alg2.element_from_term(((2, 1), (0, 1), (1, 0), (1, 2)))
    assert str(x) == "(1) F[2,1] W'[0,1] W[1,0] E[1,2]"
    assert str(alg2.one()) == "(1) 1"
    assert str(alg2.zero()) == "0"
    blob = x.to_json()
    assert blob == [{"f": [2, 1], "eta": [0, 1], "phi": [1, 0],
                     "e": [1, 2], "coeff": ONE.to_json()}]


def test_memo_tables_are_per_algebra():
    a, b = Algebra(2), Algebra(2)
    a.graded_basis("+", (1, 1))
    assert ("+", (1, 1)) in a.memo("graded_basis")
    assert not b.memo("graded_basis")
    b.graded_basis("+", (1, 1))
    assert a._memo.keys() == b._memo.keys()
    assert all(a._memo[name] is not b._memo[name] for name in a._memo)


def test_memo_key_is_the_argument_tuple():
    alg = Algebra(2)
    alg.serre_relators("-")
    assert set(alg.memo("serre_relators")) == {("-",)}
    alg.inverse_denominator((1, 0))
    assert set(alg.memo("inverse_denominator")) == {((1, 0),)}
    alg.reduce_word("+", [2, 1])
    alg.reduce_word("+", [1])  # one letter: no lookup
    assert set(alg.memo("reduce_word")) == {("+", (2, 1))}
    assert alg.memo("reduce_word")[("+", (2, 1))] is alg.reduce_word("+", (2, 1))


def test_recursive_commutator_memoizes_every_suffix_it_meets():
    alg = Algebra(2)
    alg.commutator(1, (2, 1, 1))
    # peeling f_2, then f_1, f_1 off the lowering word
    assert set(alg.memo("commutator")) == {(1, (2, 1, 1)), (1, (1, 1)), (1, (1,)), (1, ())}
    before = dict(alg.memo("commutator"))
    alg.commutator(1, (2, 1, 1))
    assert alg.memo("commutator") == before


def test_memo_reads_register_no_table():
    alg = Algebra(2)
    assert len(alg.memo("absent")) == 0
    assert "absent" not in alg._memo
    alg.commutator(1, (1,))
    assert alg.memo("commutator") is alg.memo("commutator")
