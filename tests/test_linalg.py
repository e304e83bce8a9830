import random

import pytest

from qgc import pairing
from qgc.errors import NonUniqueSolution, NoSolution, SingularGram
from qgc.linalg import Echelon, invert, rank, rref, solve_unique
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


def test_echelon_ignores_row_order():
    rng = random.Random(20140104)
    pool = [ZERO, ZERO, ZERO, ONE, -ONE, R, S, R - S, ONE / (R + S),
            Scalar.from_int(2), R * S.inverse()]
    for trial in range(6):
        nrows, ncols = rng.randint(2, 6), rng.randint(3, 8)
        rows = [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]
        c = rng.choice(pool[3:])
        rows.append([c * a + b for a, b in zip(rows[0], rows[-1])])
        reduced, pivots = dense_rref(rows)
        expect = {p: {k: x for k, x in enumerate(row) if k != p and not x.is_zero()}
                  for row, p in zip(reduced, pivots)}
        for _ in range(3):
            rng.shuffle(rows)
            ech = Echelon()
            for row in rows:
                ech.add(dict(enumerate(row)))
            assert ech.rows == expect, trial


def test_solve_unique_unique_solution():
    # x + r y = 1 and s x = r - 1: the second row meets y only through x's
    # pivot, after its right-hand side, which must still sort last
    x, y = ("x",), ("y",)
    sol = solve_unique([({x: ONE, y: R}, ONE), ({x: S}, R - ONE),
                        ({x: ZERO}, ZERO)], [x, y])
    assert sol == {x: (R - ONE) / S, y: (ONE - (R - ONE) / S) / R}
    assert solve_unique([({"a": R}, S)], ["a"]) == {"a": S / R}


def test_solve_unique_inconsistent():
    with pytest.raises(NoSolution):
        solve_unique([({"a": ONE, "b": ONE}, ONE), ({"a": R, "b": R}, S)],
                     ["a", "b"])
    with pytest.raises(NoSolution):
        solve_unique([({"a": ZERO}, ONE)], ["a"])


def test_solve_unique_underdetermined():
    with pytest.raises(NonUniqueSolution):
        solve_unique([({"a": ONE, "b": R}, ONE), ({"a": S, "b": R * S}, S)],
                     ["a", "b"])
    with pytest.raises(NonUniqueSolution):
        solve_unique([], ["a"])


def random_system(rng):
    """A uniquely solvable system with redundant rows, and its solution."""
    pool = [ZERO, ZERO, ONE, -ONE, R, S, R - S, ONE / (R + S),
            Scalar.from_int(2), R * S.inverse()]
    names = [f"x{k}" for k in range(5)]
    while True:
        mat = [[rng.choice(pool) for _ in names] for _ in names]
        if rank(mat) == len(names):
            break
    mat += [[c * a + b for a, b in zip(mat[i], mat[j])]
            for i, j, c in [(0, 1, R), (2, 3, S), (1, 4, -ONE)]]
    solution = {x: rng.choice(pool[2:]) for x in names}

    def equation(row):
        coeffs = {x: c for x, c in zip(names, row) if not c.is_zero()}
        return coeffs, sum((c * solution[x] for x, c in coeffs.items()), ZERO)

    return [equation(row) for row in mat], names, solution


def test_solve_unique_ignores_equation_order():
    rng = random.Random(20140105)
    for trial in range(4):
        equations, names, solution = random_system(rng)
        for seed in range(3):
            random.Random(seed).shuffle(equations)
            assert solve_unique(equations, names) == solution, (trial, seed)


def test_solve_unique_inconsistent_anywhere():
    # a wrong row with one unknown, and one with every unknown, which the
    # sparsest-first order meets after all sparser rows
    equations, names, solution = random_system(random.Random(20140106))
    sparse = ({"x0": ONE}, solution["x0"] + ONE)
    dense = ({x: ONE for x in names}, sum(solution.values(), ONE))
    for bad in (sparse, dense):
        for system in ([bad] + equations, equations + [bad]):
            with pytest.raises(NoSolution):
                solve_unique(system, names)
