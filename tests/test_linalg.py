import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgc import pairing
from qgc.errors import NonUniqueSolution, NoSolution, SingularGram
from qgc.linalg import _RHS, Echelon, invert, rank, rref, solve_unique
from qgc.qgroup import Algebra
from qgc.scalars import ONE, R, S, ZERO, LaurentBi, Scalar
from test_qgroup import dense_relator_rows


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


def augmented(g):
    d = len(g)
    return [list(row) + [ONE if c == i else ZERO for c in range(d)]
            for i, row in enumerate(g)]


def test_rref_matches_dense_reference_on_rank3_gram_blocks(alg3):
    for nu in itertools.product(range(3), repeat=3):
        if any(nu):
            aug = augmented(pairing.gram(alg3, nu))
            assert rref(aug) == dense_rref(aug), nu


@pytest.mark.parametrize("sign", "+-")
def test_rref_matches_dense_reference_on_relators(alg3, sign):
    words, rows = dense_relator_rows(alg3, sign, (2, 2, 2))
    dense = [[row.get(k, ZERO) for k in range(len(words))] for row in rows]
    assert rref(dense) == dense_rref(dense)


def test_invert_gcd_work(alg3):
    # one canonicalization per (column, denominator) sum of a row reduction;
    # adding each product to its column one at a time made 3,321 gcds
    g = pairing.gram(alg3, (2, 2, 2))
    with mock.patch.object(LaurentBi, "gcd", autospec=True,
                           side_effect=LaurentBi.gcd) as gcd:
        inv = invert(g)
    assert gcd.call_count <= 1500
    assert matmul(g, inv) == identity(len(g))


# numerators, and denominators built from a few ladder factors, so that many
# products of a reduction land on a shared denominator
NUMERATORS = [ONE, -ONE, Scalar.from_int(2), R, -S, R - S, R * S + S * S]
LADDER = [R - S, R + S, R * R + S * S]
ladder_dens = st.lists(st.sampled_from(LADDER), max_size=2).map(
    lambda fs: math.prod(fs, start=ONE))
entries = st.builds(lambda n, d: n / d, st.sampled_from(NUMERATORS), ladder_dens)
sparse_rows = st.integers(3, 7).flatmap(lambda ncols: st.lists(
    st.dictionaries(st.integers(0, ncols - 1), entries, min_size=1),
    min_size=2, max_size=6))


def naive_reduce(ech, row):
    """row minus c times each pivot row, one product at a time."""
    out = {k: c for k, c in row.items() if k not in ech.rows and not c.is_zero()}
    for p, c in row.items():
        for k, cp in ech.rows.get(p, {}).items():
            out[k] = out.get(k, ZERO) - c * cp
    return {k: c for k, c in out.items() if not c.is_zero()}


@settings(max_examples=60, deadline=None)
@given(sparse_rows)
def test_echelon_matches_dense_on_shared_denominators(rows):
    ncols = 1 + max(max(row) for row in rows)
    dense = [[row.get(k, ZERO) for k in range(ncols)] for row in rows]
    assert rref(dense) == dense_rref(dense)
    ech = Echelon()
    for row in rows[:-1]:
        ech.add(row)
    assert ech.reduce(rows[-1]) == naive_reduce(ech, rows[-1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NUMERATORS), st.sampled_from(NUMERATORS), entries,
       ladder_dens, st.sampled_from(LADDER))
def test_echelon_reduce_cancelling_sums(x, y, z, d1, d2):
    a, b = x / d1, y / d1
    ech = Echelon()
    for row in ({0: ONE, 5: a}, {1: ONE, 5: ONE / d2},
                {2: ONE, 4: b}, {3: ONE, 4: b}):
        ech.add(row)
    # column 4: the products b and -b share a denominator, so their bucket
    # sums to zero and the row's own entry z is left; column 5: a over d1
    # and (-a d2) (1/d2) over d1 d2 cancel once each sum is canonical
    row = {0: ONE, 1: -a * d2, 2: ONE, 3: -ONE, 4: z}
    assert ech.reduce(row) == naive_reduce(ech, row) == {4: z}


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
    sol = solve_unique([[({x: ONE, y: R}, ONE), ({x: S}, R - ONE),
                         ({x: ZERO}, ZERO)]], [x, y])
    assert sol == {x: (R - ONE) / S, y: (ONE - (R - ONE) / S) / R}
    assert solve_unique([[({"a": R}, S)]], ["a"]) == {"a": S / R}


def test_solve_unique_inconsistent():
    with pytest.raises(NoSolution):
        solve_unique([[({"a": ONE, "b": ONE}, ONE), ({"a": R, "b": R}, S)]],
                     ["a", "b"])
    with pytest.raises(NoSolution):
        solve_unique([[({"a": ZERO}, ONE)]], ["a"])


def test_solve_unique_underdetermined():
    with pytest.raises(NonUniqueSolution):
        solve_unique([[({"a": ONE, "b": R}, ONE), ({"a": S, "b": R * S}, S)]],
                     ["a", "b"])
    with pytest.raises(NonUniqueSolution):
        solve_unique([[]], ["a"])


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
            assert solve_unique([equations], names) == solution, (trial, seed)


def test_solve_unique_inconsistent_anywhere():
    # a wrong row with one unknown, and one with every unknown, which the
    # sparsest-first order meets after all sparser rows
    equations, names, solution = random_system(random.Random(20140106))
    sparse = ({"x0": ONE}, solution["x0"] + ONE)
    dense = ({x: ONE for x in names}, sum(solution.values(), ONE))
    for bad in (sparse, dense):
        for system in ([bad] + equations, equations + [bad]):
            with pytest.raises(NoSolution):
                solve_unique([system], names)


def test_solve_unique_stops_once_every_unknown_is_a_pivot():
    equations, names, solution = random_system(random.Random(20140108))

    def batches():
        yield equations[:2]  # two rows leave unknowns free
        yield equations[2:]
        raise AssertionError("a batch was pulled after the unknowns were pinned")

    assert solve_unique(batches(), names) == solution


def test_solve_unique_bad_row_in_a_consumed_batch():
    # a wrong row in the batch that pins the last unknown, sparse or dense,
    # is still fed; one in a batch that is never pulled is not seen
    equations, names, solution = random_system(random.Random(20140109))
    sparse = ({"x0": ONE}, solution["x0"] + ONE)
    dense = ({x: ONE for x in names}, sum(solution.values(), ONE))
    for bad in (sparse, dense):
        for last in ([bad] + equations[3:], equations[3:] + [bad]):
            with pytest.raises(NoSolution):
                solve_unique([equations[:3], last], names)
        assert solve_unique([equations, [bad]], names) == solution


def test_solve_unique_free_unknowns_after_the_last_batch():
    equations, names, _ = random_system(random.Random(20140110))
    with pytest.raises(NonUniqueSolution):
        solve_unique([equations[:2], equations[2:4]], names)
    with pytest.raises(NonUniqueSolution):
        solve_unique([], names)


def test_full_rank_reduction_is_substitution():
    # once every unknown is a pivot, every row is {_RHS: value}, so reducing
    # a further equation substitutes the solution into it
    equations, names, solution = random_system(random.Random(20140107))
    ech = Echelon()
    rest = list(equations)
    while len(ech.rows) < len(names):
        coeffs, rhs = rest.pop(0)
        ech.add({**coeffs, _RHS: rhs})
    assert ech.rows == {x: {_RHS: solution[x]} for x in names}
    for coeffs, rhs in rest + [({x: R for x in names}, ONE)]:
        residual = rhs - sum((c * solution[x] for x, c in coeffs.items()), ZERO)
        assert ech.reduce({**coeffs, _RHS: rhs}) == \
            ({} if residual.is_zero() else {_RHS: residual})
