"""The two-parameter quantum group of type B_n.

Elements are kept in triangular normal form: each term is a lowering word, a
toral monomial w'_eta w_phi, a raising word, and a scalar, with both words
drawn from graded-basis representatives of the halves modulo the Serre
ideal.  The graded bases are built by induction on the last letter: a
content is spanned by the representatives one letter lower, each followed
by that letter, and only the Serre relators placed at the end of a word add
relations.  One table serves every product: the commutator [e_i, f_y] per
(i, y), times D(alpha_i) = s_i - r_i, built by peeling y's first letter
(``Algebra.commutator``).  From e_i f_y = f_y e_i + [e_i, f_y] and a unit
monomial for e_i crossing a toral, e_i acts on a normal-form element term
by term (``Algebra._raise_into``), summed per key and denominator
(``scalars.add_product``) and settled once.  A product x*y is the action of
x's generators on y: a term's raising letters act one at a time, its toral
crosses the lowering words as a unit monomial, and its lowering word is
prefixed and the joined word reduced.  ad(e_i) is e_i z less
(w_i z w_i^-1) e_i, whose raising words are reduced as they stand, so it
straightens nothing.  The anti-automorphism tau reduces the reversed words
of each half separately, grouped by the term's lowering word and toral.
Sparse vectors are added through the one vector add, ``scalars.add_scaled``.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    BadArgument,
    NonIntegralSecondArgument,
    NotInPositiveCone,
    NotInRootLattice,
    RankMismatch,
    WrongSide,
)
from .rootdata import RootSystemB
from .scalars import (ONE, ZERO, Scalar, accumulate, add_product, add_scaled, as_scalar,
                      half_exponent, memoized, rs_ratio_power, settle)


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


def _unit(n, i):
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def _word_shift(cross, word):
    """Total crossing exponents of a word, from per-letter (cu, cv)."""
    cu, cv = cross
    return sum(cu[l - 1] for l in word), sum(cv[l - 1] for l in word)


def _check_sign(sign):
    if sign not in ("+", "-"):
        raise WrongSide(f"sign {sign!r} is not '+' (raising) or '-' (lowering)")


def word_content(n, word):
    out = [0] * n
    for i in word:
        if type(i) is not int or not 0 < i <= n:
            raise RankMismatch(f"letter {i} of {tuple(word)} is out of 1..{n}")
        out[i - 1] += 1
    return tuple(out)


class GradedBasis:
    """Basis of one graded slice of a triangular half.

    words: representative words, ascending lex.
    expansion: each word of the spanning set S (a representative of a
    content one letter lower, then that letter) -> {representative: Scalar};
    ``Algebra.reduce_word`` composes these for any other word.
    """

    __slots__ = ("sign", "nu", "words", "expansion")

    def __init__(self, sign, nu, words, expansion):
        self.sign = sign
        self.nu = nu
        self.words = words
        self.expansion = expansion

    @property
    def dim(self):
        return len(self.words)


class Element:
    """Algebra element in triangular normal form.

    terms maps (fword, eta, phi, eword) -> Scalar; no zero scalars are
    stored, so equality is term-map equality.  Instances are immutable.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self.algebra.check_element(other)
        return Element(self.algebra, add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.algebra, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.straighten(self, other)
        # x * 1.5 is a TypeError, as for any operand Python cannot multiply
        c = Scalar._coerce(other)
        return NotImplemented if c is NotImplemented else self.scale(c)

    __rmul__ = __mul__  # scalars commute with everything

    def scale(self, c):
        """c times self, for c an int, a Fraction or a Scalar."""
        c = as_scalar(c)
        if c.is_zero():
            return Element(self.algebra, {})
        return Element(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Element) and self.algebra is other.algebra \
            and self.terms == other.terms

    def letters(self):
        """The generator letters of each term, left to right."""
        for (fw, eta, phi, ew), c in self.terms.items():
            letters = [("F", i) for i in fw]
            if any(eta) or any(phi):
                letters.append(("T", eta, phi))
            letters += [("E", i) for i in ew]
            yield letters, c

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json(self):
        return [{"f": list(fw), "eta": list(eta), "phi": list(phi),
                 "e": list(ew), "coeff": c.to_json()}
                for (fw, eta, phi, ew), c in self.sorted_terms()]

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (fw, eta, phi, ew), c in self.sorted_terms():
            parts = [f"({c})"]
            if fw:
                parts.append("F[" + ",".join(map(str, fw)) + "]")
            if any(eta):
                parts.append("W'[" + ",".join(map(str, eta)) + "]")
            if any(phi):
                parts.append("W[" + ",".join(map(str, phi)) + "]")
            if ew:
                parts.append("E[" + ",".join(map(str, ew)) + "]")
            if len(parts) == 1:
                parts.append("1")
            chunks.append(" ".join(parts))
        return "  +  ".join(chunks)

    def __repr__(self):
        return f"Element({self})"


class Algebra:
    """Presentation-level data and normal-form arithmetic at rank n."""

    def __init__(self, n: int):
        self.n = n
        self.rs = RootSystemB(n)
        # <w'_i, w_j> = r^gr[i][j] s^gs[i][j] over simple roots, read off the
        # doubled coordinates of alpha_i, but <w'_n, w_n> = r s^-1
        roots = self.rs.simple_roots
        self._gr = [list(a) for a in roots]
        self._gs = [list(a[1:]) + [0] for a in roots]
        self._gr[-1][-1], self._gs[-1][-1] = 1, -1
        self._memo = {}
        self._zero = (0,) * n

    def memo(self, name):
        """The table of the ``memoized`` method or function ``name`` (less
        its leading underscore), keyed by its arguments; empty before its
        first call.  Read it, do not write it."""
        return self._memo.get(name) or {}

    # -- scalars of the presentation ---------------------------------------

    def root_norm(self, i: int) -> int:
        self._check_index(i)  # r_i, s_i and qint read their index here
        alpha = self.rs.simple_roots[i - 1]
        return int(self.rs.inner(alpha, alpha))

    def r_i(self, i: int) -> Scalar:
        return Scalar.monomial(2 * self.root_norm(i), 0)

    def s_i(self, i: int) -> Scalar:
        return Scalar.monomial(0, 2 * self.root_norm(i))

    def qint(self, m: int, i: int) -> Scalar:
        """[m]_i = (r_i^m - s_i^m) / (r_i - s_i)."""
        if m < 0:
            raise BadArgument("quantum integer needs m >= 0")
        num = self.r_i(i) ** m - self.s_i(i) ** m
        return num / (self.r_i(i) - self.s_i(i))

    def grading(self, w) -> Scalar:
        """(r s^-1)^(-2 (rho, w)), the grading operator on the weight w."""
        return rs_ratio_power(-2 * self.rs.inner(self.rs.rho, w))

    # -- group-like pairing -------------------------------------------------

    def pair_exponents(self, eta, phi):
        """(a, b) with <w'_eta, w_phi> = u^a v^b: the one toral exponent form.

        Bilinear over alpha coordinates, with <w'_i, w_j> = r^gr[i][j]
        s^gs[i][j] on simple roots.  Either slot may hold half-integers; a
        value off the half powers raises ``BadArgument``.  ``gpair``,
        ``chi``, ``_crossing`` and ``repn.char_exponents`` are read off it.
        """
        pairs = [(x * y, i, j) for i, x in enumerate(eta) if x for j, y in enumerate(phi) if y]
        return (half_exponent(sum(c * self._gr[i][j] for c, i, j in pairs)),
                half_exponent(sum(c * self._gs[i][j] for c, i, j in pairs)))

    def gpair(self, eta, phi) -> Scalar:
        """<w'_eta, w_phi> extended bimultiplicatively over alpha coordinates.

        The second slot must be integral (the toral generator w_phi only
        exists for root-lattice phi); the first may carry half-integers.
        """
        if len(eta) != self.n or len(phi) != self.n:
            raise RankMismatch("alpha-coordinate length mismatch")
        if any(Fraction(p).denominator != 1 for p in phi):
            raise NonIntegralSecondArgument(f"{phi} is not in the root lattice")
        return Scalar.monomial(*self.pair_exponents(eta, phi))

    def chi(self, eta, phi, eta1, phi1) -> Scalar:
        """Toral character value <w'_eta, w_phi1> <w'_eta1, w_phi>."""
        a, b = self.pair_exponents(eta, phi1)
        a1, b1 = self.pair_exponents(eta1, phi)
        return Scalar.monomial(a + a1, b + b1)

    # -- element constructors -----------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {((), self._zero, self._zero, ()): ONE})

    def scalar(self, c) -> Element:
        return Element(self, {((), self._zero, self._zero, ()): as_scalar(c)})

    def e(self, i: int) -> Element:
        self._check_index(i)
        return Element(self, {((), self._zero, self._zero, (i,)): ONE})

    def f(self, i: int) -> Element:
        self._check_index(i)
        return Element(self, {((i,), self._zero, self._zero, ()): ONE})

    def toral(self, eta, phi) -> Element:
        eta, phi = tuple(eta), tuple(phi)
        if len(eta) != self.n or len(phi) != self.n:
            raise RankMismatch("toral exponent length mismatch")
        if not all(isinstance(x, (int, Fraction)) and x == int(x) for x in eta + phi):
            raise NotInRootLattice(f"toral exponents {eta}, {phi} are not all integers")
        eta, phi = tuple(map(int, eta)), tuple(map(int, phi))  # Fraction(2) -> 2
        return Element(self, {((), eta, phi, ()): ONE})

    def omega(self, i: int, power: int = 1) -> Element:
        self._check_index(i)
        phi = [0] * self.n
        phi[i - 1] = power
        return self.toral(self._zero, phi)

    def omega_prime(self, i: int, power: int = 1) -> Element:
        self._check_index(i)
        eta = [0] * self.n
        eta[i - 1] = power
        return self.toral(eta, self._zero)

    def element_from_term(self, key, coeff=ONE) -> Element:
        return Element(self, {key: as_scalar(coeff)})

    def eword_element(self, word, coeff=ONE) -> Element:
        coeff = as_scalar(coeff)
        return Element(self, {((), self._zero, self._zero, rep): c * coeff
                              for rep, c in self.reduce_word("+", word).items()})

    def _check_index(self, i):
        if type(i) is not int or not 1 <= i <= self.n:
            raise RankMismatch(f"generator index {i!r} out of 1..{self.n}")

    def check_element(self, *xs):
        """Raise ``RankMismatch`` unless every x is an element of this algebra."""
        for x in xs:
            if x.algebra is not self:
                raise RankMismatch(f"an element of {x.algebra!r} given to {self!r}")

    # -- Serre relators and graded bases -------------------------------------

    @memoized
    def serre_relators(self, sign):
        """Degree-homogeneous relators of one triangular half, as word maps.

        The lowering relators are the raising ones with each word reversed:
        tau maps e_i to f_i and reverses products, and every coefficient is
        fixed by r <-> s.  Built once per sign; callers must not mutate the
        returned list or its maps.
        """
        _check_sign(sign)  # raises before the memo stores anything
        n = self.n
        rels = []
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                rels.append({(i, j): ONE, (j, i): -ONE})
        for i in range(1, n):
            a = self.r_i(i) + self.s_i(i)
            b = self.r_i(i) * self.s_i(i)
            rels.append({(i, i, i + 1): ONE, (i, i + 1, i): -a, (i + 1, i, i): b})
        for j in range(1, n - 1):
            a = self.r_i(j + 1).inverse() + self.s_i(j + 1).inverse()
            b = (self.r_i(j + 1) * self.s_i(j + 1)).inverse()
            rels.append({(j + 1, j + 1, j): ONE, (j + 1, j, j + 1): -a,
                         (j, j + 1, j + 1): b})
        if n >= 2:
            rn_inv = self.r_i(n).inverse()
            sn_inv = self.s_i(n).inverse()
            big = rn_inv ** 2 + rn_inv * sn_inv + sn_inv ** 2
            prod = rn_inv * sn_inv
            rels.append({
                (n, n, n, n - 1): ONE,
                (n, n, n - 1, n): -big,
                (n, n - 1, n, n): prod * big,
                (n - 1, n, n, n): -(prod ** 3),
            })
        if sign == "-":
            rels = [{w[::-1]: c for w, c in rel.items()} for rel in rels]
        return rels

    def graded_basis(self, sign, nu) -> GradedBasis:
        """The basis of content nu, by induction on the last letter.

        A prefix of a standard word is standard, so U_nu is spanned by the
        words S = {b i : b a representative of nu - alpha_i}.  A relator
        placement u rel w with w nonempty already vanishes on S, so the only
        new relations are b rel, for b a representative of nu - content(rel),
        written over S through ``reduce_word``.  The columns are S sorted
        descending, so each pivot is the lex-greatest word of its relation
        and the representatives are the standard words.
        """
        _check_sign(sign)
        nu = tuple(nu)
        if len(nu) != self.n:
            raise RankMismatch("content length mismatch")
        if any(type(c) is not int for c in nu):
            raise BadArgument(f"content {nu} is not a tuple of integers")
        if any(c < 0 for c in nu):
            raise NotInPositiveCone(f"{nu} is not in the positive cone")
        return self._graded_basis(sign, nu)

    @memoized
    def _graded_basis(self, sign, nu):
        if not any(nu):
            return GradedBasis(sign, nu, [()], {(): {(): ONE}})
        span = []
        for i in range(1, self.n + 1):
            if nu[i - 1]:
                lower = _vec_add(nu, _vec_neg(_unit(self.n, i)))
                span += [b + (i,) for b in self.graded_basis(sign, lower).words]
        span.sort(reverse=True)
        index = {w: k for k, w in enumerate(span)}
        ech = linalg.Echelon()
        for rel in self.serre_relators(sign):
            rest = _vec_add(nu, _vec_neg(word_content(self.n, next(iter(rel)))))
            if any(c < 0 for c in rest):
                continue
            for b in self.graded_basis(sign, rest).words:
                row = {}
                for mid, c in rel.items():
                    for rep, cr in self.reduce_word(sign, b + mid[:-1]).items():
                        accumulate(row, index[rep + mid[-1:]], c * cr)
                ech.add(row)
        reps = sorted(w for k, w in enumerate(span) if k not in ech.rows)
        expansion = {w: {w: ONE} for w in reps}
        for pcol, row in sorted(ech.rows.items()):
            expansion[span[pcol]] = {span[k]: -c for k, c in sorted(row.items())}
        return GradedBasis(sign, nu, reps, expansion)

    def reduce_word(self, sign, word):
        """A word as {representative: Scalar}, representatives descending.

        The prefix word[:-1] is reduced first; each of its representatives b
        followed by the last letter is a word of S, whose expansion the
        basis of the content stores.  Memoized per word met; a bad sign or
        letter raises before anything is stored.
        """
        word = tuple(word)
        if len(word) <= 1:
            _check_sign(sign)  # a longer word reaches this through its prefix
            if word:
                self._check_index(word[0])
            return {word: ONE}
        return self._reduce_word(sign, word)

    @memoized
    def _reduce_word(self, sign, word):
        prefix = self.reduce_word(sign, word[:-1])  # checks its letters
        self._check_index(word[-1])
        expansion = self.graded_basis(sign, word_content(self.n, word)).expansion
        out = {}
        for b, c in prefix.items():
            add_scaled(out, expansion[b + word[-1:]], c)
        return dict(sorted(out.items(), reverse=True))

    # -- straightening --------------------------------------------------------

    def straighten(self, x: Element, y: Element) -> Element:
        """Normal form of x*y, as the action of x's generators on y.

        For a term c1 f1 t1 e1 of x, the letters of e1 act on y right to left
        (``_raise_into``), once per distinct e1, with each step settled; t1
        then crosses each lowering word as a unit monomial and joins the
        toral, and f1 is prefixed to the lowering word, which is reduced.
        """
        self.check_element(x, y)
        raised = {}
        acc = {}
        for (f1, eta1, phi1, e1), c1 in x.terms.items():
            ez = raised.get(e1)
            if ez is None:
                ez = y.terms
                for i in reversed(e1):
                    step = {}
                    self._raise_into(step, i, ez)
                    ez = settle(step)
                raised[e1] = ez
            cross1 = self._crossing(eta1, phi1)
            for (fw, eta, phi, ew), c in ez.items():
                c = c.shift(*_word_shift(cross1, fw))
                eta2, phi2 = _vec_add(eta1, eta), _vec_add(phi1, phi)
                for f_rep, cf in self.reduce_word("-", f1 + fw).items():
                    add_product(acc, (f_rep, eta2, phi2, ew), c1 * cf, c)
        return Element(self, settle(acc))

    def peel(self, ew, j):
        """Each match e_j in the raising word ew, peeled by [e_j, f_j] =
        (w'_j - w_j) / (s_j - r_j): yields (ew less it, a, b) with u^a v^b =
        <w'_j, w_l> over the letters l left of it, read off how w'_j crosses
        them (``_crossing``).  The pairing numerators peel by this step."""
        cu, cv = self._crossing(_unit(self.n, j), self._zero)
        a = b = 0
        for t, letter in enumerate(ew):
            if letter == j:
                yield ew[:t] + ew[t + 1:], a, b
            a += cu[letter - 1]
            b += cv[letter - 1]

    @memoized
    def inverse_denominator(self, mu) -> Scalar:
        """1 / D(mu), D(mu) = prod_j (s_j - r_j)^mu_j: the denominator of the
        pairing numerators of content mu, one per content, and at a simple
        root that of the commutator table."""
        den = ONE
        for j, k in enumerate(mu, 1):
            den = den * (self.s_i(j) - self.r_i(j)) ** k
        return den.inverse()

    @memoized
    def _crossing(self, eta, phi):
        """Exponents of the toral t = w'_eta w_phi crossing one letter.

        Returns (cu, cv) with t f_l = u^cu[l-1] v^cv[l-1] f_l t, which is
        also the scalar in e_l t = u^cu[l-1] v^cv[l-1] t e_l, as tuples:
        per letter l, the exponents of <w'_eta, w_l> <w'_l, w_phi>^-1
        (``pair_exponents``).
        """
        units = (_unit(self.n, l) for l in range(1, self.n + 1))
        cu, cv = zip(*(_vec_add(self.pair_exponents(eta, u),
                                _vec_neg(self.pair_exponents(u, phi))) for u in units))
        return cu, cv

    def _conjugate(self, eta, phi, z: Element) -> Element:
        """t z t^-1 for t = w'_eta w_phi: one unit monomial per term."""
        cross = self._crossing(eta, phi)
        out = {}
        for key, c in z.terms.items():
            af, bf = _word_shift(cross, key[0])
            ae, be = _word_shift(cross, key[3])
            out[key] = c.shift(af - ae, bf - be)
        return Element(self, out)

    def _times_toral(self, z: Element, eta, phi) -> Element:
        """z t for t = w'_eta w_phi: t crosses each raising word as one unit
        monomial and joins the term's toral."""
        cross = self._crossing(eta, phi)
        out = {}
        for (fw, eta1, phi1, ew), c in z.terms.items():
            a, b = _word_shift(cross, ew)
            out[(fw, _vec_add(eta1, eta), _vec_add(phi1, phi), ew)] = c.shift(a, b)
        return Element(self, out)

    # -- Hopf structure --------------------------------------------------------

    def comultiply(self, x: Element):
        """Delta(x) as the term map {(left key, right key): Scalar}, legs in
        normal form: Delta is multiplicative, with Delta(e_i) = e_i (x) 1 +
        w_i (x) e_i, Delta(f_i) = 1 (x) f_i + f_i (x) w'_i and Delta(t) =
        t (x) t, and the terms of x are summed with ``add_scaled``."""
        self.check_element(x)
        one_key = ((), self._zero, self._zero, ())
        total = {}
        for letters, c in x.letters():
            acc = {(one_key, one_key): c}
            for letter in letters:
                if letter[0] == "F":
                    i = letter[1]
                    pieces = [(self.one(), self.f(i)),
                              (self.f(i), self.omega_prime(i))]
                elif letter[0] == "E":
                    i = letter[1]
                    pieces = [(self.e(i), self.one()),
                              (self.omega(i), self.e(i))]
                else:
                    t = self.toral(letter[1], letter[2])
                    pieces = [(t, t)]
                nxt = {}
                for left, right in pieces:
                    for (k1, k2), ck in acc.items():
                        p1 = self.element_from_term(k1) * left
                        p2 = self.element_from_term(k2) * right
                        for kk1, c1 in p1.terms.items():
                            for kk2, c2 in p2.terms.items():
                                accumulate(nxt, (kk1, kk2), ck * c1 * c2)
                acc = nxt
            add_scaled(total, acc)
        return total

    def antipode(self, x: Element) -> Element:
        self.check_element(x)
        out = {}
        for letters, c in x.letters():
            prod = self.one()
            for letter in reversed(letters):
                if letter[0] == "F":
                    i = letter[1]
                    img = Element(self, {((i,), _vec_neg(_unit(self.n, i)),
                                          self._zero, ()): -ONE})
                elif letter[0] == "E":
                    i = letter[1]
                    img = Element(self, {((), self._zero,
                                          _vec_neg(_unit(self.n, i)), (i,)): -ONE})
                else:
                    img = self.toral(_vec_neg(letter[1]), _vec_neg(letter[2]))
                prod = prod * img
            add_scaled(out, prod.terms, c)
        return Element(self, out)

    def tau(self, x: Element) -> Element:
        """The anti-automorphism tau: r <-> s, e_i <-> f_i, w_i <-> w'_i.

        tau (Benkart-Witherspoon; Bergeron-Gao-Hu for types B-D) is
        Q-linear and reverses products, so c f_a w'_eta w_phi e_b maps to
        swap(c) f_(b reversed) w'_phi w_eta e_(a reversed), and no
        straightening.  A reversed representative is not one, so the terms
        are grouped by (a, eta, phi): the reduced reversals of a group's
        raising words are summed into one lowering vector, and the reduced
        reversal of a is expanded against it once.  A d x d block of x then
        takes d^3 products, not d^4.  The content is 0: nothing is divided,
        and the products are summed per denominator (``add_product``).
        """
        self.check_element(x)
        groups = {}
        for (fw, eta, phi, ew), c in x.terms.items():
            add_scaled(groups.setdefault((fw, eta, phi), {}),
                       self.reduce_word("-", ew[::-1]), c.swap())
        acc = {}
        for (fw, eta, phi), lowering in groups.items():
            for e_rep, ce in self.reduce_word("+", fw[::-1]).items():
                for f_rep, cf in lowering.items():
                    add_product(acc, (f_rep, phi, eta, e_rep), cf, ce)
        return Element(self, settle(acc))

    def counit(self, x: Element) -> Scalar:
        return sum((c for (fw, _, _, ew), c in x.terms.items()
                    if not fw and not ew), ZERO)

    # -- adjoint action ----------------------------------------------------------

    def ad(self, x: Element, z: Element) -> Element:
        self.check_element(x, z)
        out = {}
        for letters, c in x.letters():
            w = z
            for letter in reversed(letters):
                w = self._ad_letter(letter, w)
                if w.is_zero():
                    break
            add_scaled(out, w.terms, c)
        return Element(self, out)

    def _ad_letter(self, letter, z: Element) -> Element:
        if letter[0] == "E":
            return self._ad_raising(letter[1], z)
        if letter[0] == "F":
            i = letter[1]
            return self._times_toral(self.f(i) * z - z * self.f(i),
                                     _vec_neg(_unit(self.n, i)), self._zero)
        return self._conjugate(letter[1], letter[2], z)

    def _ad_raising(self, i, z: Element) -> Element:
        """ad(e_i) z = e_i z - (w_i z w_i^-1) e_i, term by term.

        e_i z comes from ``_raise_into``; the second piece is
        chi_c c f_y t (e_x e_i) on a term c f_y t e_x, where chi_c is the
        unit monomial that w_i (.) w_i^-1 puts on the term.  Every piece is
        in normal form already, so the image takes unit shifts and no
        straightening.  The sign and chi_c join c once per term, and all
        pieces go into one ``add_product`` accumulator, summed per
        denominator; each key is settled once: a key whose pieces cancel, as
        every key of a central z does, takes no gcd.
        """
        acc = {}
        self._raise_into(acc, i, z.terms)
        cross_w = self._crossing(self._zero, _unit(self.n, i))
        for (fw, eta, phi, ew), c in z.terms.items():
            af, bf = _word_shift(cross_w, fw)
            ae, be = _word_shift(cross_w, ew)
            c = (-c).shift(af - ae, bf - be)
            for rep, ce in self.reduce_word("+", ew + (i,)).items():
                add_product(acc, (fw, eta, phi, rep), c, ce)
        return Element(self, settle(acc))

    def _raise_into(self, acc, i, terms):
        """Add e_i z, for z the term map ``terms``, into the ``add_product``
        accumulator acc.  From e_i f_y = f_y e_i + [e_i, f_y] and
        e_i t = chi_t t e_i,

            e_i (c f_y t e_x) = chi_t c f_y t (e_i e_x) + c [e_i, f_y] t e_x,

        with the raising word reduced by ``reduce_word`` and the commutator
        read from its table.  chi_t joins c once per term; 1/D(alpha_i) is
        ``add_product``'s third factor, as folding it into c would take a
        gcd per term.
        """
        inv = self.inverse_denominator(_unit(self.n, i))
        for (fw, eta, phi, ew), c in terms.items():
            cu, cv = self._crossing(eta, phi)
            chi = c.shift(cu[i - 1], cv[i - 1])
            for rep, ce in self.reduce_word("+", (i,) + ew).items():
                add_product(acc, (fw, eta, phi, rep), chi, ce)
            for (f_rep, eta1, phi1), cn in self.commutator(i, fw).items():
                add_product(acc, (f_rep, _vec_add(eta, eta1), _vec_add(phi, phi1), ew),
                            c, cn, inv)

    @memoized
    def commutator(self, i, fw):
        """[e_i, f_fw] times D(alpha_i) = s_i - r_i, as
        {(lowering rep, eta, phi): Scalar}, by fw's first letter f_j:

            [e_i, f_j f_rest] = f_j [e_i, f_rest]
                                + delta_ij (w'_i - w_i) f_rest / (s_i - r_i),

        where w'_i and w_i cross f_rest as unit monomials (``_crossing``).
        Every suffix of fw met is memoized."""
        self._check_index(i)
        if not fw:
            return {}
        j, rest = fw[0], fw[1:]
        out = {}
        for (rep, eta, phi), c in self.commutator(i, rest).items():
            for f_rep, cf in self.reduce_word("-", (j,) + rep).items():
                accumulate(out, (f_rep, eta, phi), c * cf)
        if j == i:
            unit = _unit(self.n, i)
            reps = self.reduce_word("-", rest)
            for eta, phi, sign in ((unit, self._zero, 1), (self._zero, unit, -1)):
                a, b = _word_shift(self._crossing(eta, phi), rest)
                add_scaled(out, {(f_rep, eta, phi): cf for f_rep, cf in reps.items()},
                           Scalar.monomial(a, b, sign))
        return out

    def __repr__(self):
        return f"Algebra(B{self.n})"

