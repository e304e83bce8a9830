import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from qgc.errors import NotDominant, NotInRootLattice, QgcError
from qgc.qgroup import Algebra
from qgc.rootdata import RootSystemB, WeylElement


@pytest.fixture(scope="module")
def b2():
    return RootSystemB(2)


def half_sum_oracle(n):
    """Independent half-sum of the positive roots, enumerated from scratch."""
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                vec = [0] * n
                vec[i], vec[j] = 1, sj
                roots.append(vec)
        vec = [0] * n
        vec[i] = 1
        roots.append(vec)
    total = [sum(r[k] for r in roots) for k in range(n)]
    return tuple(Fraction(t, 2) for t in total)


def reflect(rs, i, lam):
    """sigma_i(lam) = lam - (lam, alpha_i^vee) alpha_i."""
    cp = rs.coroot_pair(lam, i)
    alpha = rs.simple_roots[i - 1]
    out = tuple(x - cp * a for x, a in zip(lam, alpha))
    return tuple(int(x) if Fraction(x).denominator == 1 else x for x in out)


def weyl_identity(n):
    return WeylElement(range(n), (1,) * n)


def weyl_compose(w1, w2):
    """w1 after w2: weyl_compose(w1, w2).act(x) == w1.act(w2.act(x))."""
    perm = tuple(w1.perm[p] for p in w2.perm)
    signs = tuple(w1.signs[w2.perm[k]] * w2.signs[k]
                  for k in range(len(w1.perm)))
    return WeylElement(perm, signs)


def weyl_inverse(w):
    n = len(w.perm)
    perm = [0] * n
    signs = [1] * n
    for k in range(n):
        perm[w.perm[k]] = k
        signs[w.perm[k]] = w.signs[k]
    return WeylElement(perm, signs)


def weyl_group(rs):
    """All 2^n n! signed permutations."""
    return [WeylElement(perm, signs)
            for perm in itertools.permutations(range(rs.n))
            for signs in itertools.product((1, -1), repeat=rs.n)]


def test_simple_root_lengths(b2):
    a1, a2 = b2.simple_roots
    assert b2.inner(a1, a1) == 2
    assert b2.inner(a2, a2) == 1
    assert b2.inner(a1, a2) == -1


def test_fundamental_weights_dual_to_coroots(b2):
    for i, w in enumerate(b2.fundamental_weights, start=1):
        for j in range(1, b2.n + 1):
            assert b2.coroot_pair(w, j) == (1 if i == j else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rho_is_half_sum(n):
    rs = RootSystemB(n)
    expect = half_sum_oracle(n)
    assert tuple(Fraction(x, 2) for x in rs.rho) == expect
    for i in range(1, n + 1):
        assert rs.coroot_pair(rs.rho, i) == 1


def test_rho_values():
    assert RootSystemB(2).rho == (3, 1)
    assert RootSystemB(4).rho == (7, 5, 3, 1)


def test_reflections(b2):
    eps2 = (0, 2)
    assert reflect(b2, 2, eps2) == (0, -2)
    w1 = b2.fundamental_weights[0]
    a1 = b2.simple_roots[0]
    assert reflect(b2, 1, w1) == tuple(x - y for x, y in zip(w1, a1))
    rng = random.Random(3)
    for _ in range(30):
        lam = tuple(rng.randint(-4, 4) * 2 for _ in range(2))
        for i in (1, 2):
            assert reflect(b2, i, reflect(b2, i, lam)) == lam


def test_root_coords_reject_a_vector_off_the_root_lattice(b2):
    assert b2.root_coords((2, 0)) == (1, 1)
    with pytest.raises(NotInRootLattice) as exc:
        b2.root_coords((1, 1))
    assert isinstance(exc.value, QgcError) and isinstance(exc.value, ValueError)


def test_weyl_orbit(b2):
    orbit = b2.weyl_orbit((2, 0))
    assert orbit == {(2, 0), (-2, 0), (0, 2), (0, -2)}
    # orbit of a dominant weight has exactly one dominant element
    for lam in [(2, 0), (2, 2), (3, 1), (4, 2)]:
        orb = b2.weyl_orbit(lam)
        assert sum(1 for w in orb if b2.is_dominant(w)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_group_order(n):
    rs = RootSystemB(n)
    group = weyl_group(rs)
    assert len(set(group)) == 2 ** n * [1, 1, 2, 6][n]
    rng = random.Random(5)
    vec = tuple(rng.randint(-5, 5) for _ in range(n))
    for _ in range(20):
        w1, w2 = rng.choice(group), rng.choice(group)
        assert weyl_compose(w1, w2).act(vec) == w1.act(w2.act(vec))
        assert weyl_inverse(w1).act(w1.act(vec)) == vec
    ident = weyl_identity(n)
    assert ident.act(vec) == vec
    # another type is never equal, and comparing with it raises nothing
    assert ident != None and None not in group  # noqa: E711


def test_coroot_pairs(b2):
    w1 = b2.fundamental_weights[0]
    assert b2.coroot_pair(w1, 1) == 1
    assert b2.coroot_pair(w1, 2) == 0
    # direct dot-product oracle for eps1 + eps2 against the short coroot
    eps_sum = (2, 2)
    alpha2 = b2.simple_roots[1]
    dot = sum(a * b for a, b in zip(eps_sum, alpha2)) / 4
    norm = sum(a * a for a in alpha2) / 4
    assert b2.coroot_pair(eps_sum, 2) == 2 * dot / norm == 2


def test_alpha_coords(b2):
    assert b2.alpha_coords(b2.fundamental_weights[0]) == (1, 1)
    assert b2.alpha_coords(b2.fundamental_weights[1]) == (Fraction(1, 2), 1)
    for i, a in enumerate(b2.simple_roots):
        coords = b2.alpha_coords(a)
        assert coords == tuple(1 if k == i else 0 for k in range(2))
    # round trip and inner-product consistency
    rng = random.Random(9)
    for _ in range(20):
        lam = tuple(rng.randint(-4, 4) * 2 for _ in range(2))
        coords = b2.alpha_coords(lam)
        assert b2.from_alpha(coords) == lam
        for i, a in enumerate(b2.simple_roots):
            via_alpha = sum(c * b2.inner(b2.simple_roots[k], a)
                            for k, c in enumerate(coords))
            assert via_alpha == b2.inner(lam, a)


def test_freudenthal_vector_rep(b2):
    mults = b2.freudenthal_mults((2, 0))
    assert mults == {(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1, (0, 0): 1}
    assert sum(mults.values()) == b2.weyl_dim((2, 0)) == 5


def test_freudenthal_trivial(b2):
    assert b2.freudenthal_mults((0, 0)) == {(0, 0): 1}
    assert b2.weyl_dim((0, 0)) == 1


def test_freudenthal_adjoint(b2):
    mults = b2.freudenthal_mults((2, 2))
    assert mults[(0, 0)] == 2
    assert sum(mults.values()) == b2.weyl_dim((2, 2)) == 10


def test_freudenthal_weyl_invariant_and_totals():
    for n in (2, 3):
        rs = RootSystemB(n)
        fund = rs.fundamental_weights
        sample = [fund[0], fund[-1], tuple(a + b for a, b in zip(fund[0], fund[-1]))]
        if n == 2:
            sample.append((4, 0))
        for lam in sample:
            if rs.weyl_dim(lam) > 200:
                continue
            mults = rs.freudenthal_mults(lam)
            assert sum(mults.values()) == rs.weyl_dim(lam)
            for mu, m in mults.items():
                for i in range(1, n + 1):
                    assert mults[reflect(rs, i, mu)] == m


def test_not_dominant_errors(b2):
    with pytest.raises(NotDominant):
        b2.freudenthal_mults((-2, 0))
    with pytest.raises(NotDominant):
        b2.weyl_dim((0, 2))


def test_kostant_counts(b2):
    assert b2.kostant_count((1, 0)) == 1
    assert b2.kostant_count((1, 1)) == 2
    assert b2.kostant_count((2, 1)) == 2
    assert b2.kostant_count((1, 2)) == 3
    assert b2.kostant_count((2, 2)) == 4


def test_dropped_algebra_frees_its_root_system():
    # Kostant counts are memoized per root system, not process-wide
    alg = Algebra(3)
    assert alg.rs.kostant_count((2, 2, 2)) == alg.graded_basis("+", (2, 2, 2)).dim
    ref = weakref.ref(alg.rs)
    del alg
    gc.collect()
    assert ref() is None


def test_dominance(b2):
    w1 = b2.fundamental_weights[0]
    assert b2.dominance_leq((0, 0), w1)
    assert b2.dominance_leq((0, 2), w1)
    # spin weights are incomparable with integer weights
    assert not b2.dominance_leq((1, 1), w1)
    assert not b2.dominance_leq(w1, (1, 1))


def test_kostant_recursion_memoizes_every_key_it_meets():
    rs = RootSystemB(2)
    assert rs.kostant_count((1, 2)) == 3
    table = rs._memo["kostant"]
    # the first root eps_1 - eps_2 = alpha_1 is taken 0 or 1 times
    assert {((1, 2), 0), ((1, 2), 1), ((0, 2), 1)} <= set(table)
    assert table[((1, 2), 0)] == 3
    size = len(table)
    assert rs.kostant_count((1, 2)) == 3
    assert len(table) == size


def test_weyl_orbit_is_the_reflection_closure():
    for n in (1, 2, 3):
        rs = RootSystemB(n)
        for lam in itertools.product(range(-2, 3), repeat=n):
            seen, frontier = {lam}, [lam]
            while frontier:
                frontier = [img for w in frontier for i in range(1, n + 1)
                            for img in [reflect(rs, i, w)] if img not in seen]
                seen.update(frontier)
            assert rs.weyl_orbit(lam) == seen, lam
