import random

import pytest

from qgc.errors import NotDominant
from qgc.linalg import Echelon
from qgc.qgroup import Algebra, word_content
from qgc.repn import (
    ColMatrix,
    WeightModule,
    act,
    char_value,
    irreducible,
    matrix_coeff,
    qint_action_identity,
    theta,
    trace_fn,
    verma,
)
from qgc.scalars import ONE, ZERO, Scalar, accumulate, add_scaled, rs_ratio_power
from test_qgroup import rand_alpha, reference_gpair, reference_junction
from test_rootdata import reflect


@pytest.fixture(scope="module")
def alg2():
    return Algebra(2)


def compose(a, b):
    """The matrix a applied after b."""
    out = ColMatrix(a.dim)
    for c in range(a.dim):
        for mid, v in b.cols[c].items():
            add_scaled(out.cols[c], a.cols[mid], v)
    return out


def col_identity(dim):
    return ColMatrix(dim, [{r: ONE} for r in range(dim)])


def add_scaled_cols(a, b, c=ONE):
    """The matrix a + c b."""
    return ColMatrix(a.dim, [add_scaled(dict(col), bcol, c)
                             for col, bcol in zip(a.cols, b.cols)])


def toral_commutator(alg, i, module):
    """(w_i - w'_i) / (r_i - s_i) acting on the module: [e_i, f_i]'s value."""
    inv = (alg.r_i(i) - alg.s_i(i)).inverse()
    omega = add_scaled_cols(ColMatrix(module.dim), act(alg.omega(i), module), inv)
    return add_scaled_cols(omega, act(alg.omega_prime(i), module), -inv)


def reference_irreducible(alg, lam):
    """V(lam) as the quotient of the depth-ht(2 lam) Verma module.

    The lowering closure of the singular vectors runs over every content of
    height at most ht(2 lam), through the Verma module's own columns, with
    no box.
    """
    depth = int(sum(alg.rs.alpha_coords(tuple(2 * x for x in lam))))
    M = verma(alg, lam, (0,) * alg.n, depth)
    span = Echelon()
    work = []
    for i in range(1, alg.n + 1):
        m = int(alg.rs.coroot_pair(lam, i))
        if m + 1 <= depth:
            work.append({(i,) * (m + 1): ONE})
    while work:
        lead = span.add(work.pop())
        if lead is None:
            continue
        vec = {M.index[w]: c for w, c in {lead: ONE, **span.rows[lead]}.items()}
        for i in range(1, alg.n + 1):
            img = M._apply_cols(M.f_col, i, vec)
            if img:
                work.append({M.labels[r]: c for r, c in img.items()})
    reduction = {w: {k: -c for k, c in row.items()} for w, row in span.rows.items()}
    contents = list(dict.fromkeys(word_content(alg.n, w) for w in M.labels))
    return WeightModule(alg, lam, (0,) * alg.n, contents, reduction)


def reference_e_col(module, i, col, memo):
    """e_i f_w v term by term: each term of e_i f_w with no raising letter,
    from the raising-letter recursion ``reference_junction``, times its
    toral's character, with its lowering word reduced on its own."""
    alg = module.algebra
    vec = {}
    for (fw, eta, phi, ew), c in \
            reference_junction(alg, (i,), module.labels[col], memo).items():
        if ew:
            continue
        val = c * char_value(alg, module.lam, module.mu, eta, phi)
        for rep, cr in alg.reduce_word("-", fw).items():
            accumulate(vec, rep, val * cr)
    return module._in_basis(vec)


def columns_below_depth(module, h):
    return [c for c, w in enumerate(module.labels) if len(w) <= h]


def assert_equal_on_columns(m1, m2, cols):
    for c in cols:
        assert m1.cols[c] == m2.cols[c], f"column {c} differs"


def test_verma_grading_and_highest_weight(alg2):
    lam, mu = (2, 0), (1, 1)
    M = verma(alg2, lam, mu, depth=3)
    for row, w in enumerate(M.labels):
        nu = word_content(alg2.n, w)
        expect = tuple(a - b for a, b in zip(lam, alg2.rs.from_alpha(nu)))
        assert M.weights[row] == expect
    # raising kills the highest weight vector
    for i in (1, 2):
        assert M.e_col(i, 0) == {}
    # toral action on the highest weight vector is the character value
    diag = M.char_diag((0, 1), (1, 0))
    assert diag[0] == char_value(alg2, lam, mu, (0, 1), (1, 0))


def test_char_value_closed_form(alg2):
    # <w'_lam, w_n> = r^(2 (eps_n, lam)) (r s)^(-lam_n) for the short root
    rng = random.Random(59)
    n = alg2.n
    unit_n = tuple(1 if k == n - 1 else 0 for k in range(n))
    for _ in range(15):
        lam_alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        lam = alg2.rs.from_alpha(lam_alpha)
        got = char_value(alg2, lam, (0,) * n, (0,) * n, unit_n)
        eps_n = alg2.rs.inner(tuple(0 if k < n - 1 else 2 for k in range(n)), lam)
        expect = Scalar.monomial(int(4 * eps_n - 2 * lam_alpha[n - 1]), -2 * lam_alpha[n - 1])
        assert got == expect


def reference_char_value(alg, lam, mu, eta, phi):
    """<w'_eta, w_lam>^-1 <w'_lam, w_phi> (r s^-1)^((eta + phi, mu)), a
    product of three Scalars."""
    lam_alpha = alg.rs.alpha_coords(lam)
    shift = alg.rs.from_alpha(tuple(a + b for a, b in zip(eta, phi)))
    return reference_gpair(alg, eta, lam_alpha).inverse() * \
        reference_gpair(alg, lam_alpha, phi) * rs_ratio_power(alg.rs.inner(shift, mu))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_char_value_matches_the_three_factor_product(n):
    alg = Algebra(n)
    rng = random.Random(70 + n)
    for trial in range(40):
        # odd doubled coordinates on every other trial: spin weights
        lam = tuple(2 * rng.randint(-2, 2) + trial % 2 for _ in range(n))
        mu = tuple(2 * rng.randint(-2, 2) + (trial % 3 == 0) for _ in range(n))
        eta, phi = rand_alpha(rng, n), rand_alpha(rng, n)
        assert char_value(alg, lam, mu, eta, phi) == \
            reference_char_value(alg, lam, mu, eta, phi), (lam, mu, eta, phi)


def test_defining_relations_on_truncation(alg2):
    lam, mu = (3, 1), (2, 0)
    depth = 3
    M = verma(alg2, lam, mu, depth)
    safe = columns_below_depth(M, depth - 1)
    for i in (1, 2):
        for j in (1, 2):
            ef = compose(act(alg2.e(i), M), act(alg2.f(j), M))
            fe = compose(act(alg2.f(j), M), act(alg2.e(i), M))
            lhs = add_scaled_cols(ef, fe, -ONE)
            rhs = toral_commutator(alg2, i, M) if i == j else ColMatrix(M.dim)
            assert_equal_on_columns(lhs, rhs, safe)


def test_irreducible_trivial(alg2):
    L = irreducible(alg2, (0, 0))
    assert L.dim == 1
    for i in (1, 2):
        assert not any(act(alg2.e(i), L).cols)
        assert not any(act(alg2.f(i), L).cols)


def test_irreducible_vector_rep(alg2):
    L = irreducible(alg2, (2, 0))
    assert L.dim == 5
    assert L.weight_multiplicities() == alg2.rs.freudenthal_mults((2, 0))
    # Weyl symmetry of the multiplicities on the constructed module
    mults = L.weight_multiplicities()
    for w, m in mults.items():
        for i in (1, 2):
            assert mults[reflect(alg2.rs, i, w)] == m


def test_irreducible_spin(alg2):
    # the spin weight has half-integer epsilon coordinates throughout
    L = irreducible(alg2, (1, 1))
    assert L.dim == 4
    mults = L.weight_multiplicities()
    assert mults == {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
    assert mults == alg2.rs.freudenthal_mults((1, 1))
    # defining commutators hold on the spin module
    for i in (1, 2):
        ef = compose(act(alg2.e(i), L), act(alg2.f(i), L))
        fe = compose(act(alg2.f(i), L), act(alg2.e(i), L))
        assert add_scaled_cols(ef, fe, -ONE).cols == toral_commutator(alg2, i, L).cols
    # grading-operator exponents are half-integral but stay representable
    th = theta(L)
    by_weight = {w: th[r] for r, w in enumerate(L.weights)}
    assert by_weight[(1, 1)] == rs_ratio_power(-2)
    assert by_weight[(1, -1)] == rs_ratio_power(-1)


def test_irreducible_adjoint(alg2):
    L = irreducible(alg2, (2, 2))
    assert L.dim == 10
    mults = L.weight_multiplicities()
    assert mults == alg2.rs.freudenthal_mults((2, 2))
    assert mults[(0, 0)] == 2


def test_relations_hold_on_irreducible(alg2):
    L = irreducible(alg2, (2, 0))
    assert act(alg2.one(), L).cols == col_identity(L.dim).cols
    for i in (1, 2):
        for j in (1, 2):
            ef = compose(act(alg2.e(i), L), act(alg2.f(j), L))
            fe = compose(act(alg2.f(j), L), act(alg2.e(i), L))
            lhs = add_scaled_cols(ef, fe, -ONE)
            if i == j:
                assert lhs.cols == toral_commutator(alg2, i, L).cols
            else:
                assert not any(lhs.cols)
    # Serre relators act by zero
    for sign in "+-":
        gen = alg2.e if sign == "+" else alg2.f
        for rel in alg2.serre_relators(sign):
            total = ColMatrix(L.dim)
            for word, c in rel.items():
                term = alg2.one()
                for k in word:
                    term = term * gen(k)
                total = add_scaled_cols(total, act(term, L), c)
            assert not any(total.cols)


def test_theta_trivial_and_values(alg2):
    L0 = irreducible(alg2, (0, 0))
    assert theta(L0) == [ONE]
    L = irreducible(alg2, (2, 0))
    by_weight = {w: theta(L)[r] for r, w in enumerate(L.weights)}
    # at the top weight the factor is (r s^-1)^(-2 (rho, eps1)) = (r s^-1)^-3
    assert by_weight[(2, 0)] == rs_ratio_power(-3)
    assert by_weight[(0, 0)] == ONE


def test_theta_conjugates_antipode_square(alg2):
    L = irreducible(alg2, (2, 0))
    th = theta(L)
    th_mat = ColMatrix(L.dim, [{r: th[r]} for r in range(L.dim)])
    gens = [alg2.e(1), alg2.e(2), alg2.f(1), alg2.f(2),
            alg2.omega(1), alg2.omega(2), alg2.omega_prime(1), alg2.omega_prime(2)]
    for u in gens:
        lhs = compose(th_mat, act(u, L))
        rhs = compose(act(alg2.antipode(alg2.antipode(u)), L), th_mat)
        assert lhs.cols == rhs.cols


def test_qint_action_identity(alg2):
    # all simple directions, string lengths up to 2, integer and spin mu
    mus = [(0, 0), (2, 0), (1, 1)]
    for i in (1, 2):
        for m in (0, 1, 2):
            for mu in mus:
                lam = tuple(m * x for x in alg2.rs.fundamental_weights[i - 1])
                assert int(alg2.rs.coroot_pair(lam, i)) == m
                assert qint_action_identity(alg2, lam, mu, i)
    # a weight with both components positive
    lam = tuple(a + b for a, b in zip(alg2.rs.fundamental_weights[0],
                                      alg2.rs.fundamental_weights[1]))
    for i in (1, 2):
        assert qint_action_identity(alg2, lam, (1, -1), i)


def test_singular_vectors_killed(alg2):
    lam, mu = (2, 2), (0, 2)
    for i in (1, 2):
        m = int(alg2.rs.coroot_pair(lam, i))
        M = verma(alg2, lam, mu, depth=m + 2)
        vec = {0: ONE}
        for _ in range(m + 1):
            vec = M.apply(alg2.f(i), vec)
        assert vec, "singular vector itself must be nonzero"
        for j in (1, 2):
            assert M.apply(alg2.e(j), vec) == {}


def test_trace_fn(alg2):
    assert trace_fn(alg2, (0, 0), alg2.one()) == ONE
    # trace of a toral monomial matches the weight-sum formula
    L = irreducible(alg2, (2, 0))
    mults = alg2.rs.freudenthal_mults((2, 0))
    for eta, phi in [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (-1, 0))]:
        expect = ZERO
        for w, m in mults.items():
            expect = expect + Scalar.from_int(m) * \
                rs_ratio_power(-2 * alg2.rs.inner(alg2.rs.rho, w)) * \
                char_value(alg2, w, (0, 0), eta, phi)
        assert trace_fn(alg2, (2, 0), alg2.toral(eta, phi)) == expect


def test_trace_decomposes_into_matrix_coeffs(alg2):
    L = irreducible(alg2, (2, 0))
    th = theta(L)
    rng = random.Random(61)
    xs = [alg2.one(), alg2.f(1) * alg2.e(1), alg2.toral((1, 0), (-1, 0))]
    for x in xs:
        total = ZERO
        for idx in range(L.dim):
            total = total + matrix_coeff(L, idx, idx, x) * th[idx]
        assert total == trace_fn(alg2, (2, 0), x)
    assert matrix_coeff(L, 0, 0, alg2.one()) == ONE
    assert matrix_coeff(L, 1, 0, alg2.one()) == ZERO


def test_truncation_overflow_strict(alg2):
    M = verma(alg2, (2, 0), (0, 0), depth=1)
    # lowering out of the truncation gives zero
    vec = {M.index[(1,)]: ONE}
    assert M.apply(alg2.f(1), vec) == {}


def test_irreducible_requires_dominant(alg2):
    with pytest.raises(NotDominant):
        irreducible(alg2, (0, 2))
    with pytest.raises(NotDominant):
        irreducible(alg2, (1, 0))


@pytest.mark.parametrize("n,lam", [(2, (2, 0)), (2, (1, 1)), (2, (2, 2)),
                                   (3, (2, 0, 0)), (3, (1, 1, 1))])
def test_irreducible_matches_verma_quotient(n, lam):
    alg = Algebra(n)
    ref = reference_irreducible(alg, lam)
    L = irreducible(alg, lam)
    assert L.labels == ref.labels
    assert L.weights == ref.weights
    for i in range(1, n + 1):
        for g in (alg.e(i), alg.f(i), alg.omega(i), alg.omega_prime(i)):
            assert act(g, L).cols == act(g, ref).cols


def test_irreducible_stays_in_its_box():
    # the weights of V(2 eps_1) lie in lam - {nu <= (2, 2, 2)}
    alg = Algebra(3)
    irreducible(alg, (2, 0, 0))
    built = [nu for sign, nu in alg.memo("graded_basis") if sign == "-"]
    assert (2, 2, 2) in built
    assert all(all(c <= 2 for c in nu) for nu in built)


def test_irreducible_keeps_no_table():
    alg = Algebra(2)
    a, b = irreducible(alg, (2, 0)), irreducible(alg, (2, 0))
    assert a is not b and a.labels == b.labels
    assert "irreducible" not in alg._memo


@pytest.mark.parametrize("n,lam,mu,depth", [
    (2, (3, 1), (2, 0), 3), (2, (2, 2), None, None),
    (3, (2, 2, 0), (1, 0, 1), 2), (3, (2, 0, 0), None, None),
    (3, (1, 1, 1), None, None)])
def test_e_col_matches_the_per_term_formula(n, lam, mu, depth):
    # Verma modules (with a depth) and irreducibles (without), ranks 2-3
    alg = Algebra(n)
    module = irreducible(alg, lam) if depth is None else verma(alg, lam, mu, depth)
    memo = {}
    for i in range(1, n + 1):
        for col in range(module.dim):
            assert module.e_col(i, col) == reference_e_col(module, i, col, memo)
