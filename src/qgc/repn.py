"""Weight modules as explicit matrices over the scalar field.

One class, `WeightModule`, serves both kinds of module: its rows are
lowering representative words w (the vectors f_w v) over a down-closed set
of contents.  A truncated highest-weight module takes every content up to a
depth bound; the irreducible V(lam) takes the box {nu <= 2 lam} and drops
the words that the lowering closure of the singular vectors
f_i^((lam, a_i^vee)+1) v pivots on.  Generator actions are sparse column
maps; the grading operator acts on a weight-mu vector by
(r s^-1)^(-2 (rho, mu)).
"""

from __future__ import annotations

import itertools

from .errors import BadArgument, InternalInconsistency, NotDominant, RankMismatch
from .linalg import Echelon
from .qgroup import Algebra, Element, _unit, word_content
from .scalars import ONE, ZERO, Scalar, accumulate, add_scaled, half_exponent, memoized


def char_exponents(alg: Algebra, lam, mu, eta, phi):
    """(a, b) with the character of w'_eta w_phi at (lam, mu) equal to u^a v^b.

    The first index acts through the toral exponent form
    (``Algebra.pair_exponents``) as <w'_eta, w_lam>^-1 <w'_lam, w_phi>,
    with lam in alpha coordinates (half-integers for spin weights); the
    second through (r s^-1) raised to the pairing of eta + phi with mu.
    """
    lam_alpha = alg.rs.alpha_coords(lam)
    a1, b1 = alg.pair_exponents(eta, lam_alpha)
    a2, b2 = alg.pair_exponents(lam_alpha, phi)
    e = 0
    if any(mu):
        shift = alg.rs.from_alpha(tuple(a + b for a, b in zip(eta, phi)))
        e = half_exponent(alg.rs.inner(shift, mu))
    return a2 - a1 + e, b2 - b1 - e


def char_value(alg: Algebra, lam, mu, eta, phi) -> Scalar:
    """Character of the toral monomial w'_eta w_phi at the pair (lam, mu):
    the unit monomial of ``char_exponents``."""
    return Scalar.monomial(*char_exponents(alg, lam, mu, eta, phi))


class ColMatrix:
    """Sparse square matrix stored as columns of {row: Scalar}."""

    __slots__ = ("dim", "cols")

    def __init__(self, dim, cols=None):
        self.dim = dim
        self.cols = cols if cols is not None else [dict() for _ in range(dim)]

    def entry(self, r, c) -> Scalar:
        return self.cols[c].get(r, ZERO)

    def trace_against_diag(self, diag) -> Scalar:
        total = ZERO
        for j, col in enumerate(self.cols):
            v = col.get(j)
            if v is not None:
                total = total + v * diag[j]
        return total


class WeightModule:
    """Weight-graded module given by sparse generator columns.

    Rows are labelled by lowering representative words w, the vectors
    f_w v, over a down-closed list of contents: by height, then content,
    then word.  ``reduction`` writes each word of those contents that is not
    a row over the rows (empty for a Verma module).  Lowering out of the
    contents gives zero.
    """

    def __init__(self, alg: Algebra, lam, mu, contents, reduction):
        self.algebra = alg
        self.lam = tuple(lam)
        self.mu = tuple(mu)
        self._contents = set(contents)
        self.labels = [w for nu in contents
                       for w in alg.graded_basis("-", nu).words
                       if w not in reduction]
        self.index = {w: row for row, w in enumerate(self.labels)}
        # each representative word of the contents, over the rows
        self._coords = {w: {row: ONE} for w, row in self.index.items()}
        self._coords.update((w, {self.index[k]: c for k, c in red.items()})
                            for w, red in reduction.items())
        self.weights = [tuple(a - b for a, b in zip(
            self.lam, alg.rs.from_alpha(word_content(alg.n, w))))
            for w in self.labels]
        self._memo = {}

    @property
    def dim(self):
        return len(self.labels)

    def _in_basis(self, vec):
        """A vector {word: Scalar} over representative words, over the rows."""
        out = {}
        for w, c in vec.items():
            add_scaled(out, self._coords[w], c)
        return out

    # -- generator columns ---------------------------------------------------

    @memoized
    def f_col(self, i, col):
        """f_i f_w v: the word i w, reduced to representatives."""
        alg = self.algebra
        word = (i,) + self.labels[col]
        if word_content(alg.n, word) in self._contents:
            return self._in_basis(alg.reduce_word("-", word))
        return {}

    @memoized
    def e_col(self, i, col):
        """e_i f_w v = [e_i, f_w] v, since e_i v = 0: the entries of the
        commutator table, each toral's character at the top weight as a
        shift, over D(alpha_i)."""
        alg = self.algebra
        vec = {}
        for (fw, eta, phi), c in alg.commutator(i, self.labels[col]).items():
            accumulate(vec, fw, c.shift(*char_exponents(alg, self.lam, self.mu, eta, phi)))
        return self._in_basis(add_scaled({}, vec, alg.inverse_denominator(_unit(alg.n, i))))

    @memoized
    def char_diag(self, eta, phi):
        """The character of w'_eta w_phi at each row, as a list."""
        return [char_value(self.algebra, w, self.mu, eta, phi)
                for w in self.weights]

    # -- the action of a normal-form element ----------------------------------

    def apply(self, x: Element, vec):
        """Image of a coordinate vector {row: Scalar} under x."""
        out = {}
        for (fw, eta, phi, ew), c in x.terms.items():
            cur = vec
            for i in reversed(ew):
                cur = self._apply_cols(self.e_col, i, cur)
                if not cur:
                    break
            if not cur:
                continue
            if any(eta) or any(phi):
                diag = self.char_diag(eta, phi)
                cur = {r: v * diag[r] for r, v in cur.items()}
            for i in reversed(fw):
                cur = self._apply_cols(self.f_col, i, cur)
                if not cur:
                    break
            add_scaled(out, cur, c)
        return out

    def _apply_cols(self, colfun, i, vec):
        """Image of vec under colfun(i, .)."""
        out = {}
        for r, v in vec.items():
            add_scaled(out, colfun(i, r), v)
        return out

    def weight_multiplicities(self):
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out


def verma(alg: Algebra, lam, mu, depth: int) -> WeightModule:
    """Truncated universal module with highest-weight character pair (lam, mu)."""
    if depth < 0:
        raise BadArgument("depth must be nonnegative")
    if len(lam) != alg.n or len(mu) != alg.n:
        raise RankMismatch("weight length mismatch")
    contents = sorted((nu for nu in itertools.product(range(depth + 1), repeat=alg.n)
                       if sum(nu) <= depth), key=sum)
    return WeightModule(alg, lam, mu, contents, {})


def irreducible(alg: Algebra, lam) -> WeightModule:
    """The finite-dimensional irreducible module of a dominant weight.

    Every weight lam - nu of V(lam) has nu <= lam - w0 lam = 2 lam, and the
    lowering closure of the singular vectors f_i^((lam, a_i^vee)+1) v meets
    a content only through contents below it.  So the closure runs on the
    representative words of the box {nu <= 2 lam} alone, dropping images
    that leave it, and the rows are the words of the box it does not pivot
    on.  The result has the multiplicities of the classical recursion and
    total dimension given by the product formula.
    """
    lam = tuple(lam)
    if not alg.rs.in_weight_lattice(lam) or not alg.rs.is_dominant(lam):
        raise NotDominant(f"{lam} is not a dominant lattice weight")
    box = tuple(int(c) for c in alg.rs.alpha_coords(tuple(2 * x for x in lam)))
    contents = sorted(itertools.product(*(range(b + 1) for b in box)), key=sum)
    in_box = set(contents)

    # The lowering-closed span, keyed by words.  Every vector in it has one
    # content, so each pivot is the least representative word of its content.
    span = Echelon()
    work = []
    for i in range(1, alg.n + 1):
        word = (i,) * (int(alg.rs.coroot_pair(lam, i)) + 1)
        if word_content(alg.n, word) in in_box:
            work.append({word: ONE})
    while work:
        lead = span.add(work.pop())
        if lead is None:
            continue
        vec = {lead: ONE, **span.rows[lead]}
        for i in range(1, alg.n + 1):
            if word_content(alg.n, (i,) + lead) not in in_box:
                continue
            img = {}
            for w, c in vec.items():
                add_scaled(img, alg.reduce_word("-", (i,) + w), c)
            if img:
                work.append(img)

    reduction = {w: {k: -c for k, c in row.items()} for w, row in span.rows.items()}
    module = WeightModule(alg, lam, (0,) * alg.n, contents, reduction)
    expect = alg.rs.weyl_dim(lam)
    if module.dim != expect:
        raise InternalInconsistency(
            f"irreducible quotient came out {module.dim}-dimensional, "
            f"product formula gives {expect}")
    return module


def act(x: Element, module: WeightModule) -> ColMatrix:
    """Matrix of x on the module basis, one ``apply`` per column.  Lowerings
    out of a truncation vanish, so the map is multiplicative within it."""
    if x.algebra is not module.algebra:
        raise RankMismatch("element and module belong to different algebras")
    return ColMatrix(module.dim, [module.apply(x, {col: ONE}) for col in range(module.dim)])


def theta(module: WeightModule):
    """Diagonal of the grading operator (``Algebra.grading``) on the rows."""
    return [module.algebra.grading(w) for w in module.weights]


def trace_fn(alg: Algebra, lam, x: Element) -> Scalar:
    """Trace of x composed with the grading operator on the irreducible module."""
    module = irreducible(alg, lam)
    return act(x, module).trace_against_diag(theta(module))


def matrix_coeff(module: WeightModule, f_idx: int, m_idx: int, x: Element) -> Scalar:
    """Coordinate functional f_idx of x acting on basis vector m_idx."""
    return act(x, module).entry(f_idx, m_idx)


def qint_action_identity(alg: Algebra, lam, mu, i: int) -> bool:
    """Check the lowering-string identity on the highest-weight column.

    With m = (lam, alpha_i^vee), applying e_i to f_i^(m+1) v must equal
    [m+1]_i (r_i^-m w_i - s_i^-m w'_i)/(r_i - s_i) evaluated at the highest
    weight, times f_i^m v.
    """
    m = alg.rs.coroot_pair(lam, i)
    if m.denominator != 1 or m < 0:
        raise NotDominant(f"(lam, alpha_{i}^vee) = {m} must be a nonneg integer")
    m = int(m)
    module = verma(alg, lam, mu, depth=m + 1)
    vec = {0: ONE}
    for _ in range(m + 1):
        vec = module.apply(alg.f(i), vec)
    lhs = module.apply(alg.e(i), vec)
    eta = tuple(1 if k == i - 1 else 0 for k in range(alg.n))
    w_val = char_value(alg, lam, mu, (0,) * alg.n, eta)
    wp_val = char_value(alg, lam, mu, eta, (0,) * alg.n)
    scalar = alg.qint(m + 1, i) * \
        (alg.r_i(i) ** (-m) * w_val - alg.s_i(i) ** (-m) * wp_val) / \
        (alg.r_i(i) - alg.s_i(i))
    rhs = {0: ONE}
    for _ in range(m):
        rhs = module.apply(alg.f(i), rhs)
    return lhs == add_scaled({}, rhs, scalar)
