import hashlib
import itertools
import json
import os
import random
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest

from qgc import center, linalg
from qgc.errors import (InternalInconsistency, NoSolution, NonUniqueSolution,
                        NotInRootLattice, NotInUb0)
from qgc.qgroup import Algebra
from qgc.pairing import s2_twist
from qgc.repn import act, char_value, irreducible, theta, verma
from qgc.scalars import ONE, R, ZERO, Scalar, rs_ratio_power
from test_rootdata import reflect, weyl_group, weyl_inverse


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
    for sigma in weyl_group(alg2.rs):
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
                    alg2, lam, mu, center.weyl_act(alg2, weyl_inverse(sigma), u))
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


@pytest.fixture(scope="module")
def failure_cases(alg2, z_vec):
    """{name: (alg, x, tau-fixed, central)}: tau-invariant elements (central
    or not) and ones the ad(f_i) fallback must handle."""
    alg3 = Algebra(3)
    z20 = z_vec.element
    z22 = center.central_from_trace(alg2, (2, 2)).element
    z200 = center.central_from_trace(alg3, (2, 0, 0)).element
    e1, f1 = alg2.e(1), alg2.f(1)
    return {
        "z20": (alg2, z20, True, True),
        "z22": (alg2, z22, True, True),
        "z200": (alg3, z200, True, True),
        "e1 f1": (alg2, e1 * f1, True, False),
        "z + e1 f1": (alg2, z20 + e1 * f1, True, False),
        "r z": (alg2, z20.scale(R), False, True),
        "r f1 e1": (alg2, (f1 * e1).scale(R), False, False),
        "e1": (alg2, e1, False, False),
    }


def test_centrality_failures_match_the_generator_loop(failure_cases):
    # the tau shortcut against the 4n-generator loop
    for name, (alg, x, fixed, central) in failure_cases.items():
        assert (alg.tau(x) == x) == fixed, name
        got = center.centrality_failures(alg, x)
        assert got == reference_centrality_failures(alg, x), name
        assert (got == []) == central, name


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("cores", [2, 3])
def test_forked_checks_give_the_in_process_list(failure_cases, cores):
    # the same failures in the same order from each split, with at most
    # min(tasks, cores) - 1 children per round, every one of them reaped
    for name, (alg, x, fixed, central) in failure_cases.items():
        with mock.patch.object(center, "_cores", return_value=1), \
                mock.patch.object(os, "fork", side_effect=os.fork) as fork:
            expect = center.centrality_failures(alg, x)
        assert fork.call_count == 0, name
        with mock.patch.object(center, "_cores", return_value=cores), \
                mock.patch.object(os, "fork", side_effect=os.fork) as fork:
            assert center.centrality_failures(alg, x) == expect, name
        # ad(e_i), tau and the torals, then ad(f_i) where tau does not fix
        # x (each x here that tau fixes commutes with the torals)
        forks = min(alg.n + 2, cores) - 1 + (0 if fixed else min(alg.n, cores) - 1)
        assert fork.call_count == forks, name
        assert_no_children()


def tau_in_child(parent, child_effect):
    """A patch of Algebra.tau that runs child_effect() in a forked child and
    the real tau in the parent."""
    tau = Algebra.tau

    def effect(alg, x):
        return child_effect() if os.getpid() != parent else tau(alg, x)
    return mock.patch.object(Algebra, "tau", autospec=True, side_effect=effect)


@needs_fork
def test_a_share_that_cannot_be_forked_runs_here(alg2, z_vec):
    z = z_vec.element
    with mock.patch.object(center, "_cores", return_value=2), \
            mock.patch.object(os, "fork", side_effect=BlockingIOError) as fork:
        assert center.centrality_failures(alg2, z.scale(R)) == []
        assert center.centrality_failures(alg2, alg2.e(1)) == \
            reference_centrality_failures(alg2, alg2.e(1))
    assert fork.call_count == 4
    assert_no_children()


def test_a_second_thread_keeps_every_check_here():
    # a fork copies only the calling thread, so none is made beside another
    done = threading.Event()
    worker = threading.Thread(target=done.wait, args=(30,))
    worker.start()
    try:
        assert center._cores() == 1
    finally:
        done.set()
        worker.join(30)
    assert not worker.is_alive()


@needs_fork
def test_a_childs_error_reaches_the_caller(alg2, z_vec):
    # with two workers at rank 2 the child runs ad(e_1) and tau
    z = z_vec.element

    def refuse():
        raise NotInUb0("refused in the child")

    with mock.patch.object(center, "_cores", return_value=2), \
            tau_in_child(os.getpid(), refuse), \
            pytest.raises(NotInUb0, match="^refused in the child$"):
        center.centrality_failures(alg2, z)
    assert_no_children()


@needs_fork
def test_a_child_that_dies_without_an_answer_raises(alg2, z_vec):
    z = z_vec.element
    with mock.patch.object(center, "_cores", return_value=2), \
            tau_in_child(os.getpid(), lambda: os._exit(3)), \
            pytest.raises(InternalInconsistency, match="exit status 3"):
        center.centrality_failures(alg2, z)
    assert_no_children()


@needs_fork
def test_an_interrupt_kills_and_reaps_the_children(alg2, z_vec):
    # the child sleeps in tau while this process is interrupted in ad(e_2)
    z, parent, ad = z_vec.element, os.getpid(), Algebra.ad

    def interrupted(alg, x, y):
        if os.getpid() == parent and x == alg.e(2):
            raise KeyboardInterrupt
        return ad(alg, x, y)

    start = time.perf_counter()
    with mock.patch.object(center, "_cores", return_value=2), \
            tau_in_child(parent, lambda: time.sleep(60)), \
            mock.patch.object(Algebra, "ad", autospec=True, side_effect=interrupted), \
            pytest.raises(KeyboardInterrupt):
        center.centrality_failures(alg2, z)
    assert time.perf_counter() - start < 30
    assert_no_children()


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
    # certificate checks f_1, f_2 of the tau-invariant output through tau;
    # one worker keeps every check in this process, where the spy sees it
    center.central_by_solve(alg2, (2, 2))
    with mock.patch.object(center, "_cores", return_value=1), \
            mock.patch.object(Algebra, "ad", autospec=True,
                              side_effect=Algebra.ad) as ad:
        center.central_by_solve(alg2, (2, 2))
    gens = [call.args[1] for call in ad.call_args_list]
    assert alg2.e(1) in gens and alg2.e(2) in gens
    assert alg2.f(1) not in gens and alg2.f(2) not in gens


def test_solver_reaches_the_lambda_40_element():
    # the independent oracle beyond the ladder: the trace build of the same
    # element has the same sha256 of json.dumps(z.to_json(), sort_keys=True)
    z = center.central_by_solve(Algebra(2), (4, 0)).element
    text = json.dumps(z.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6ace30eef5d980fa6eb5ea515bb0900a49f1bf4827131ae57d83602dc0ac2b4b"


def _solve_with_batches(alg, lam, edit):
    """central_by_solve with each batch k, as solve_unique pulls it,
    replaced by edit(k, batch); returns the candidate and the pulls."""
    pulled, solve_unique = [], linalg.solve_unique

    def solve(batches, variables):
        def edited():
            for k, batch in enumerate(batches):
                pulled.append(k)
                yield edit(k, batch)
        return solve_unique(edited(), variables)

    with mock.patch.object(center.linalg, "solve_unique", side_effect=solve):
        return center.central_by_solve(alg, lam), pulled


def test_solver_bad_row_in_any_block_raises(alg2):
    # a copy of a row of one block's raising batch, its right-hand side
    # moved by one: every block's batch is fed in full, so the copy is met
    nblocks = len(center._blocks(alg2, irreducible(alg2, (2, 0))))
    batches, keys, ad = [], set(), Algebra.ad

    def spy(alg, x, z):
        image = ad(alg, x, z)
        if x in (alg.e(1), alg.e(2)):
            keys.update(image.terms)
        return image

    with mock.patch.object(Algebra, "ad", autospec=True, side_effect=spy):
        _, pulled = _solve_with_batches(alg2, (2, 0),
                                        lambda k, batch: batches.append(batch) or batch)
    assert pulled == list(range(nblocks))  # the raising rows pin every unknown
    # each key of every ad(e_i) image is the row of one batch
    assert sum(len(batch) for batch in batches) == len(keys)
    # block 0 is pinned: its images are right-hand sides of the blocks above
    with_rows = [k for k, batch in enumerate(batches) if any(row[0] for row in batch)]
    assert with_rows == list(range(1, nblocks))
    for bad in with_rows:
        def edit(k, batch):
            if k != bad:
                return batch
            coeffs, rhs = [row for row in batch if row[0]][-1]
            return batch + [(coeffs, rhs + ONE)]

        with pytest.raises(NoSolution):
            _solve_with_batches(alg2, (2, 0), edit)


@pytest.mark.parametrize("dropped", ["top block", "every block"])
def test_solver_refuses_what_the_raising_rows_leave_free(alg2, dropped):
    # with raising rows dropped, their unknowns stay free: the solver has no
    # second feed, so it raises a structured error and never reaches an f_i
    nblocks = len(center._blocks(alg2, irreducible(alg2, (2, 0))))
    first = nblocks - 1 if dropped == "top block" else 0

    def edit(k, batch):
        return [] if first <= k < nblocks else batch

    with mock.patch.object(Algebra, "ad", autospec=True, side_effect=Algebra.ad) as ad:
        with pytest.raises(NonUniqueSolution):
            _solve_with_batches(alg2, (2, 0), edit)
    lowering = [alg2.f(i) for i in (1, 2)]
    assert ad.called
    assert not any(call.args[1] in lowering for call in ad.call_args_list)


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


def reference_weight_blocks(alg, module):
    """The pair scan over weights: each raising content nu joining two
    weights, with the (eta, phi) of every weight w that has w + nu."""
    weights = set(module.weights)
    blocks = set()
    for w1 in weights:
        for w2 in weights:
            diff = tuple(a - b for a, b in zip(w2, w1))
            if alg.rs.in_root_lattice(diff):
                coords = alg.rs.root_coords(diff)
                if all(c >= 0 for c in coords):
                    blocks.add(coords)
    out = {}
    for nu in sorted(blocks):
        out[nu] = set()
        for w in weights:
            if tuple(a + b for a, b in zip(w, alg.rs.from_alpha(nu))) in weights:
                eta = alg.rs.root_coords(w)
                out[nu].add((eta, tuple(-(a + b) for a, b in zip(eta, nu))))
    return out


@pytest.mark.parametrize("lam, count", [
    ((2, 0), None), ((2, 2), None), ((2, 0, 0), None), ((2, 2, 0), None),
    ((2, 0, 0, 0), 21)])
def test_blocks_match_the_weight_pair_scan(lam, count):
    alg = Algebra(len(lam))
    module = irreducible(alg, lam)
    blocks = center._blocks(alg, module)
    expect = reference_weight_blocks(alg, module)
    assert list(blocks) == list(expect)
    assert count is None or len(blocks) == count
    for nu, rows in blocks.items():
        assert {(eta, tuple(-(a + b) for a, b in zip(eta, nu)))
                for _, eta in rows} == expect[nu]
        up = [tuple(a + b for a, b in zip(w, alg.rs.from_alpha(nu)))
              for w in module.weights]
        assert [row for row, _ in rows] == \
            [row for row, w in enumerate(up) if w in module.weights]
        for row, eta in rows:
            assert alg.rs.from_alpha(eta) == module.weights[row]


@pytest.mark.parametrize("lam", [(2, 0), (2, 2), (2, 0, 0)])
def test_one_grading_operator(lam):
    alg = Algebra(len(lam))
    module = irreducible(alg, lam)
    th = theta(module)
    for row, w in enumerate(module.weights):
        assert th[row] == alg.grading(w) == \
            rs_ratio_power(-2 * alg.rs.inner(alg.rs.rho, w))
    for nu in center._blocks(alg, module):
        assert s2_twist(alg, nu) * alg.grading(alg.rs.from_alpha(nu)) == ONE


def test_solver_empty_ansatz(alg2, monkeypatch):
    monkeypatch.setattr(center, "_blocks", lambda a, m: {(0, 0): []})
    with pytest.raises(NoSolution):
        center.central_by_solve(alg2, (2, 0))


def scalar_on_verma(alg, z, lam, mu, depth):
    """The scalar by which z acts on the truncated module of (lam, mu),
    asserting that the action is scalar there."""
    cols = act(z, verma(alg, lam, mu, depth)).cols
    c = cols[0].get(0, ZERO)
    for j, col in enumerate(cols):
        assert set(col) <= {j} and col.get(j, ZERO) == c, "not scalar"
    return c


def test_verma_scalar_and_reflection_invariance(alg2, z_vec):
    z = z_vec.element
    image = center.hc_xi(alg2, z)
    rho = alg2.rs.rho
    samples = [((2, 0), (1, 1)), ((2, 2), (3, 1))]
    for lam, mu in samples:
        scalar = scalar_on_verma(alg2, z, lam, mu, depth=2)
        shifted = tuple(a + b for a, b in zip(lam, rho))
        assert scalar == center.char_eval(alg2, shifted, mu, image)
        for i in (1, 2):
            refl = reflect(alg2.rs, i, shifted)
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


@pytest.mark.parametrize("n, bound", [(1, 3), (2, 2), (3, 1)])
@pytest.mark.parametrize("mode", ["lambda_only", "full"])
def test_parity_kernel_is_where_every_character_is_one(n, bound, mode):
    alg = Algebra(n)
    zero = (0,) * n
    pairs = [(w, zero) for w in alg.rs.fundamental_weights]
    if mode == "full":
        pairs += [(zero, w) for w in alg.rs.fundamental_weights]
    expect = [(v[:n], v[n:]) for v in itertools.product(range(-bound, bound + 1),
                                                         repeat=2 * n)
              if any(v) and all(char_value(alg, lam, mu, v[:n], v[n:]).is_one()
                                for lam, mu in pairs)]
    assert center.parity_kernel(n, bound, mode) == sorted(expect)
