import random

import pytest

from qgc import pairing
from qgc.errors import SingularGram
from qgc.linalg import invert, rank, rref
from qgc.qgroup import Algebra
from qgc.scalars import ONE, R, S, ZERO, LaurentBi, Scalar


def identity(d):
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def cleared(scalars):
    """(numerators, den) with scalars[k] = numerators[k] / den."""
    den = LaurentBi.const(1)
    for x in scalars:
        den = den * x.den.divexact(den.gcd(x.den))
    return [x.num * den.divexact(x.den) for x in scalars], den


def dense_rref(rows):
    """Reference Gauss-Jordan that rebuilds every entry of every updated row."""
    mat = [list(r) for r in rows]
    pivots = []
    lead = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(lead, len(mat))
                    if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        inv = mat[lead][col].inverse()
        mat[lead] = [x * inv for x in mat[lead]]
        for r in range(len(mat)):
            if r != lead:
                c = mat[r][col]
                mat[r] = [a - c * b for a, b in zip(mat[r], mat[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


def test_invert_identity():
    for d in (0, 1, 4):
        assert invert(identity(d)) == identity(d)


def test_invert_needs_row_swap():
    g = [[ZERO, R], [S, ONE]]
    inv = invert(g)
    # [[0, r], [s, 1]]^-1 = [[-1/(rs), 1/s], [1/r, 0]]
    assert inv == [[-(R * S).inverse(), S.inverse()], [R.inverse(), ZERO]]
    assert matmul(g, inv) == identity(2)
    assert matmul(inv, g) == identity(2)


def test_singular_raises():
    g = [[R, S, ONE], [R * R, R * S, R], [ONE, ZERO, ONE]]
    assert rank(g) == 2
    with pytest.raises(ArithmeticError):
        invert(g)
    with pytest.raises(ArithmeticError):
        invert([[ZERO]])


def test_dual_basis_maps_singular_gram(monkeypatch):
    alg = Algebra(1)
    monkeypatch.setattr(pairing, "gram", lambda alg, nu: [[R, S], [R * R, R * S]])
    with pytest.raises(SingularGram):
        pairing.dual_basis(alg, (2,))


@pytest.fixture(scope="module")
def alg3():
    return Algebra(3)


@pytest.mark.parametrize("nu", [(1, 1, 1), (1, 2, 1), (2, 2, 2)])
def test_rank3_gram_times_inverse_is_identity(alg3, nu):
    g = pairing.gram(alg3, nu)
    inv = invert(g)
    rows = [cleared(row) for row in g]
    cols = [cleared([row[j] for row in inv]) for j in range(len(inv))]
    for i, (grow, gden) in enumerate(rows):
        for j, (col, cden) in enumerate(cols):
            acc = sum((a * b for a, b in zip(grow, col)), LaurentBi())
            assert acc == (gden * cden if i == j else LaurentBi()), (nu, i, j)


def test_rref_matches_dense_reference():
    rng = random.Random(20140103)
    pool = [ZERO, ZERO, ZERO, ONE, -ONE, R, S, R - S, ONE / (R + S),
            Scalar.from_int(2), R * S.inverse()]
    for trial in range(6):
        nrows, ncols = rng.randint(2, 6), rng.randint(3, 8)
        rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        # a dependent row keeps some eliminations rank-deficient
        c = rng.choice(pool[3:])
        rows.append([c * a + b for a, b in zip(rows[0], rows[-1])])
        assert rref(rows) == dense_rref(rows), trial
