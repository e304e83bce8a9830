"""Exact arithmetic in the coefficient field of the deformation parameters.

Scalars are fractions of integer Laurent polynomials in u = r^(1/2) and
v = s^(1/2), so half-integer powers of r and s stay exact.  r and s are
aliases for u^2 and v^2.  Treating u, v as independent formal variables
makes r^k * s^l = 1 hold only for k = l = 0.

No floating point is used anywhere; integer coefficients are arbitrary
precision.

Arithmetic on canonical operands does only the gcd work that can change the
result (Henrici's rules for reduced fractions, Knuth, TAOCP vol. 2, 4.5.1):

- a product of canonical denominators is canonical: minimum exponents add,
  so it has no monomial factor, and graded-lex leads multiply, so its lead
  stays positive.  So is a canonical denominator's cofactor over a gcd
  (LaurentBi.gcd returns both cofactors, so nothing is divided again).  A
  product therefore only cross-reduces each numerator against the other
  denominator, and a denominator of 1 needs no gcd;
- a sum with coprime denominators d1, d2 is already reduced over d1 d2.
  Otherwise, with g = gcd(d1, d2), only gcd(t, g) can cancel, where
  t = n1 (d2/g) + n2 (d1/g);
- a unit numerator +-u^a v^b has nothing to cancel against, so it takes no
  gcd at all.

A sum of many products is taken by one multiply-accumulate primitive,
``add_product``, on raw numerator terms: each product is added in place to
a bucket of its key and of the product of its canonical denominators, and
no partial product or partial sum is made a Scalar.  Two functions read
the buckets off.  ``settle`` gives each key one canonical Scalar over the
product of its buckets' denominators: a sum that cancels there drops out
with no gcd, so the images of a central element, which are all zero, take
none.  ``settle_into`` adds each key's buckets into an existing entry as
Scalars, over the lcm of their denominators, for a row reduction.  No other
module reads the numerator or denominator of a Scalar.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BadArgument


# ---------------------------------------------------------------------------
# raw Laurent-polynomial helpers: dict {(a, b): c} meaning sum of c * u^a v^b
# ---------------------------------------------------------------------------

def _trim(terms):
    return {k: c for k, c in terms.items() if c}


def _add(p, q):
    out = dict(p)
    for k, c in q.items():
        c2 = out.get(k, 0) + c
        if c2:
            out[k] = c2
        else:
            out.pop(k, None)
    return out


def _neg(p):
    return {k: -c for k, c in p.items()}


def _mul(p, q):
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            k = (a1 + a2, b1 + b2)
            c = out.get(k, 0) + c1 * c2
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def _grlex_key(k):
    a, b = k
    return (a + b, a, b)


def _lead(p):
    return max(p, key=_grlex_key)


def _shift(p, da, db):
    if not (da or db):
        return dict(p)
    return {(a + da, b + db): c for (a, b), c in p.items()}


def _min_exps(p):
    return min(a for a, _ in p), min(b for _, b in p)


def _int_content(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# gcd and exact division in ZZ[u^+-1, v^+-1].  Monomials are units, so a
# monomial operand leaves only the common integer content (see LaurentBi.gcd).
# Every structure constant of the algebra is homogeneous in u and v, and a
# homogeneous Laurent polynomial is a monomial times the homogenization of
# its dense dehomogenization at v = 1.  The gcd of two such operands
# therefore runs on dense univariate integer coefficients, as the
# heuristic integer gcd of Char, Geddes and Gonnet (J. Symb. Comput. 1989).
# Other operands, and the rare case where the heuristic gives up, go to
# sympy's sparse polynomial ring ZZ[u, v] (imported on first use).  Every gcd
# comes with its cofactors p/gcd and q/gcd, so Scalar arithmetic divides
# nothing after a gcd, and an exact division is read off the cofactors.
# ---------------------------------------------------------------------------

_SYMPY_RING = None


def _sympy_operands(p, q):
    """p and q in sympy's ZZ[u, v], each shifted by its least exponents."""
    global _SYMPY_RING
    if _SYMPY_RING is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import ring
        _SYMPY_RING = ring("u v", ZZ)[0]
    return [_SYMPY_RING.from_dict(_shift(x, *(-e for e in _min_exps(x)))) for x in (p, q)]


def _sympy_gcd(p, q):
    """(gcd, p/gcd, q/gcd) of Laurent polynomials, the gcd with no monomial
    factor and a positive graded-lex lead."""
    a, b = _sympy_operands(p, q)
    h, cp, cq = ({k: int(c) for k, c in x.items()} for x in a.cofactors(b))
    if h[_lead(h)] < 0:
        h, cp, cq = _neg(h), _neg(cp), _neg(cq)
    return h, _shift(cp, *_min_exps(p)), _shift(cq, *_min_exps(q))


def _dehomogenize(p):
    """(a0, d, f) with p = sum f[k] u^(a0 + k) v^(d - a0 - k), or None.

    f is dense from the least power of u, so its first and last entries are
    nonzero; None when p is not homogeneous.
    """
    keys = iter(p)
    a0, b0 = next(keys)
    d = a0 + b0
    lo = hi = a0
    for a, b in keys:
        if a + b != d:
            return None
        if a < lo:
            lo = a
        elif a > hi:
            hi = a
    f = [0] * (hi - lo + 1)
    for (a, _), c in p.items():
        f[a - lo] = c
    return lo, d, f


def _dense_quotient(f, g):
    """f / g in ZZ[x] on dense ascending coefficients, or None if inexact."""
    m = len(g) - 1
    n = len(f) - 1 - m
    if n < 0:
        return None
    r = list(f)
    lc = g[m]
    quo = [0] * (n + 1)
    for k in range(n, -1, -1):
        if r[k + m]:
            q, rem = divmod(r[k + m], lc)
            if rem:
                return None
            quo[k] = q
            for j in range(m):
                r[k + j] -= q * g[j]
    return None if any(r[:m]) else quo


def _heu_gcd(f, g):
    """(h, f/h, g/h) for the gcd h of primitive f, g in ZZ[x] with positive
    lead, or None on give-up.

    The candidate is read off gcd(f(xi), g(xi)) in symmetric base-xi digits
    and accepted only if it divides both f and g, which for
    xi >= 2 min(|f|, |g|) + 2 proves it is the gcd.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(6):
        h = math.gcd(_horner(f, xi), _horner(g, xi))
        cand = []
        while h:
            c = h % xi
            if c > xi // 2:
                c -= xi
            cand.append(c)
            h = (h - c) // xi
        cont = _int_content(cand)
        cand = [c // cont for c in cand]
        if cand[-1] < 0:
            cand = [-c for c in cand]
        if cand == [1]:  # 1 divides both: no trial division
            return cand, f, g
        qf = _dense_quotient(f, cand)
        qg = None if qf is None else _dense_quotient(g, cand)
        if qg is not None:
            return cand, qf, qg
        # the growth factor of the original method, close to 1 + sqrt(3)
        xi = xi * 73794 // 27011
    return None


def _horner(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _over_content(p, q, g):
    """(g, p/g, q/g) for an integer g that divides every coefficient: the
    operands stand as their own cofactors when g = 1."""
    return [{(0, 0): g}] + [t if g == 1 else {k: c // g for k, c in t.items()}
                            for t in (p, q)]


def _laurent_gcd(p, q):
    """(gcd, p/gcd, q/gcd) of nonzero Laurent polynomials, the gcd with no
    monomial factor and a positive graded-lex leading coefficient.

    LaurentBi.gcd answers a monomial operand before calling this.
    """
    hp, hq = _dehomogenize(p), _dehomogenize(q)
    if hp is not None and hq is not None:
        (ap, dp, f), (aq, dq, g) = hp, hq
        cf, cg = _int_content(f), _int_content(g)
        heu = _heu_gcd([c // cf for c in f], [c // cg for c in g])
        if heu is not None:
            (h, qf, qg), c, m = heu, math.gcd(cf, cg), len(heu[0]) - 1
            if not m:  # coprime primitive parts
                return _over_content(p, q, c)
            return [{(a0 + k, d - a0 - k): s * x for k, x in enumerate(y) if x}
                    for y, a0, d, s in ((h, 0, m, c), (qf, ap, dp - m, cf // c),
                                        (qg, aq, dq - m, cg // c))]
    return _sympy_gcd(p, q)


class LaurentBi:
    """Integer Laurent polynomial in u = r^(1/2), v = s^(1/2).

    Immutable; the zero polynomial is the empty term map and no stored
    coefficient is zero.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = _trim(terms or {})
        self._hash = None

    @staticmethod
    def _of(terms):
        """Wrap a term map that already holds no zero coefficient."""
        p = object.__new__(LaurentBi)
        p.terms = terms
        p._hash = None
        return p

    @staticmethod
    def monomial(coeff, a, b):
        return LaurentBi({(a, b): coeff} if coeff else {})

    @staticmethod
    def const(c):
        return LaurentBi({(0, 0): c} if c else {})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == _ONE_TERMS

    def is_monomial(self):
        return len(self.terms) == 1

    def is_unit(self):
        """Whether self is +-u^a v^b, a unit of the Laurent ring."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def __add__(self, other):
        return LaurentBi._of(_add(self.terms, other.terms))

    def __sub__(self, other):
        return LaurentBi._of(_add(self.terms, _neg(other.terms)))

    def __neg__(self):
        return LaurentBi._of(_neg(self.terms))

    def __mul__(self, other):
        # a factor of 1 returns the other operand as it stands
        if self.is_one():
            return other
        if other.is_one():
            return self
        return LaurentBi._of(_mul(self.terms, other.terms))

    def __pow__(self, k):
        out = LaurentBi.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentBi) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def shift(self, a, b):
        """self * u^a v^b."""
        if not (a or b):
            return self
        return LaurentBi._of(_shift(self.terms, a, b))

    def gcd(self, other):
        """The gcd (normalized unless an operand is zero) as a ``_Gcd``."""
        if self.is_zero():
            return _Gcd(other.terms, {}, _ONE_TERMS)
        if other.is_zero():
            return _Gcd(self.terms, _ONE_TERMS, {})
        p, q = self.terms, other.terms
        if len(p) == 1 or len(q) == 1:
            # a monomial is a unit: only the common integer content remains
            g = math.gcd(_int_content(p.values()), _int_content(q.values()))
            return _Gcd(*_over_content(p, q, g))
        return _Gcd(*_laurent_gcd(p, q))

    def divexact(self, other):
        """self / other; ArithmeticError when the division is inexact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        # other divides self exactly when other / gcd is a unit +-u^a v^b
        quo, unit = self.gcd(other).cofactors
        (a, b), c = next(iter(unit.terms.items()))
        if len(unit.terms) != 1 or abs(c) != 1:
            raise ArithmeticError("inexact polynomial division")
        return (quo if c == 1 else -quo).shift(-a, -b)

    def sorted_terms(self):
        """Terms as (coeff, a, b) triples, graded-lex descending."""
        return [(self.terms[k], k[0], k[1])
                for k in sorted(self.terms, key=_grlex_key, reverse=True)]

    def __str__(self):
        return _render_poly(self)

    def __repr__(self):
        return f"LaurentBi({self.terms!r})"


class _Gcd(LaurentBi):
    """A gcd g of p and q that carries ``cofactors`` = (p/g, q/g)."""

    __slots__ = ("cofactors",)

    def __init__(self, terms, p, q):
        self.terms, self._hash = terms, None
        self.cofactors = (LaurentBi._of(p), LaurentBi._of(q))


_ONE_TERMS = {(0, 0): 1}
_L_ZERO = LaurentBi()
_L_ONE = LaurentBi.const(1)


def _render_power(sym, e):
    # e is the exponent of u (or v); the printed variable is r (or s) = sym^2
    if e == 0:
        return ""
    if e % 2 == 0:
        k = e // 2
        return sym if k == 1 else f"{sym}^{k}"
    return f"{sym}^({Fraction(e, 2)})"


def _render_poly(p: LaurentBi) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for c, a, b in p.sorted_terms():
        mono = "*".join(x for x in (_render_power("r", a), _render_power("s", b)) if x)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


class Scalar:
    """Element of the fraction field of LaurentBi, kept in canonical form.

    Canonical form: gcd(num, den) = 1, the denominator carries no monomial
    factor, and its graded-lex leading coefficient is positive.  Equality is
    plain structural equality of canonical forms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentBi, den: LaurentBi = _L_ONE, _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            num, den = _canon(num, den)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k):
        # int(k): a bool is an int, but True must be stored, and written, as 1
        return Scalar(LaurentBi.const(int(k)), _L_ONE, _canonical=True)

    @staticmethod
    def from_fraction(q: Fraction):
        return Scalar(LaurentBi.const(q.numerator), LaurentBi.const(q.denominator))

    @staticmethod
    def monomial(a, b, coeff=1):
        """coeff * u^a v^b, i.e. coeff * r^(a/2) s^(b/2)."""
        return Scalar(LaurentBi.monomial(coeff, a, b), _L_ONE, _canonical=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_rational(self):
        return self.num.is_monomial() and (0, 0) in self.num.terms \
            and self.den.is_monomial() and (0, 0) in self.den.terms \
            or self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.from_int(x)
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        return NotImplemented

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            num = n1 + n2
            if num.is_zero():
                return ZERO
            if not d1.is_one():
                g = num.gcd(d1)
                if not g.is_one():
                    num, d1 = g.cofactors
            return Scalar(num, d1, _canonical=True)
        # distinct canonical denominators: the sum is not zero, since -other
        # keeps other's denominator; coprime ones give a reduced sum at once
        g = _L_ONE if d1.is_one() or d2.is_one() else d1.gcd(d2)
        if g.is_one():
            return Scalar(n1 * d2 + n2 * d1, d1 * d2, _canonical=True)
        d1, e2 = g.cofactors
        num = n1 * e2 + n2 * d1
        h = num.gcd(g)
        if not h.is_one():
            num, g = h.cofactors
            d2 = e2 * g
        return Scalar(num, d1 * d2, _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Scalar(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        # only n1 against d2 and n2 against d1 can cancel, and a unit
        # numerator cannot; the product of the reduced canonical denominators
        # is canonical (module docstring)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not d2.is_one() and not n1.is_unit():
            g = n1.gcd(d2)
            if not g.is_one():
                n1, d2 = g.cofactors
        if not d1.is_one() and not n2.is_unit():
            g = n2.gcd(d1)
            if not g.is_one():
                n2, d1 = g.cofactors
        return Scalar(n1 * n2, d1 * d2, _canonical=True)

    __rmul__ = __mul__

    def shift(self, a, b):
        """self * u^a v^b; monomials are units, so no gcd is needed."""
        if not (a or b) or self.is_zero():
            return self
        return Scalar(self.num.shift(a, b), self.den, _canonical=True)

    def swap(self):
        """The image under the field automorphism u <-> v (r <-> s).

        Swapping the variables keeps num and den coprime and the den free
        of monomial factors; only its graded-lex lead, and so the sign of
        the canonical form, can change.
        """
        num = LaurentBi._of({(b, a): c for (a, b), c in self.num.terms.items()})
        den = LaurentBi._of({(b, a): c for (a, b), c in self.den.terms.items()})
        num, den = _normalize_unit(num, den)
        return Scalar(num, den, _canonical=True)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        num, den = _normalize_unit(self.den, self.num)
        return Scalar(num, den, _canonical=True)

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        # powers of coprime parts stay coprime, and a power of a canonical
        # denominator is canonical, so no gcd is needed
        if k < 0:
            return self.inverse() ** (-k)
        return Scalar(self.num ** k, self.den ** k, _canonical=True)

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- io -----------------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """The value as a rational number; only valid for constant scalars."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar is not a rational constant")
        return Fraction(self.num.terms[(0, 0)], self.den.terms[(0, 0)])

    def to_json(self):
        return {"num": [list(t) for t in self.num.sorted_terms()],
                "den": [list(t) for t in self.den.sorted_terms()]}

    @staticmethod
    def from_json(obj):
        """The scalar that ``to_json`` wrote.  ``BadArgument`` unless "num"
        and "den" are each a list of [coeff, a, b] int terms (JSON's true is
        not 1) with distinct monomials, and the denominator is not zero."""
        parts = []
        for part in ("num", "den"):
            terms = obj.get(part) if isinstance(obj, dict) else None
            if not isinstance(terms, list) or not all(
                    isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
                    for t in terms):
                raise BadArgument(f"{part} of {obj!r} is not a list of [coeff, a, b] ints")
            parts.append(LaurentBi({(a, b): c for c, a, b in terms}))
            if len({(a, b) for _, a, b in terms}) < len(terms):
                raise BadArgument(f"{part} of {obj!r} repeats a monomial")
        if parts[1].is_zero():
            raise BadArgument(f"scalar {obj!r} has a zero denominator")
        return Scalar(*parts)

    def __str__(self):
        if self.den.is_one():
            return _render_poly(self.num)
        ns = _render_poly(self.num)
        ds = _render_poly(self.den)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"Scalar({self})"


def _normalize_unit(num: LaurentBi, den: LaurentBi):
    """Move the denominator's monomial factor and sign into the numerator."""
    ma, mb = _min_exps(den.terms)
    if ma or mb:
        num = LaurentBi._of(_shift(num.terms, -ma, -mb))
        den = LaurentBi._of(_shift(den.terms, -ma, -mb))
    if den.terms[_lead(den.terms)] < 0:
        num, den = -num, -den
    return num, den


def _canon(num: LaurentBi, den: LaurentBi):
    if num.is_zero():
        return _L_ZERO, _L_ONE
    if not num.is_unit():
        g = num.gcd(den)
        if not g.is_one():
            num, den = g.cofactors
    return _normalize_unit(num, den)


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
R = Scalar.monomial(2, 0)
S = Scalar.monomial(0, 2)


def accumulate(out, key, c):
    """out[key] += c, dropping the key when the sum cancels."""
    acc = out.get(key)
    if acc is not None:
        c = acc + c
    if not c.is_zero():
        out[key] = c
    elif acc is not None:
        del out[key]


def add_scaled(out, vec, c=ONE):
    """out[k] += c * vec[k] for every key of vec, through ``accumulate``;
    returns out.  The one way a sparse vector is added into another."""
    if not c.is_zero():
        for k, v in vec.items():
            accumulate(out, k, c * v)
    return out


def as_scalar(c) -> Scalar:
    """c as a Scalar, for an int, a Fraction or a Scalar; ``BadArgument``
    for anything else, so no float is read as a coefficient."""
    x = Scalar._coerce(c)
    if x is NotImplemented:
        raise BadArgument(f"coefficient {c!r} is not an int, Fraction or Scalar")
    return x


def add_product(acc, key, x, y, sign=1, a=0, b=0, z=None):
    """acc[key] += sign * x * y * u^a v^b (* z), in place on raw terms.

    acc maps each key to its buckets {den: numerator term map}.  The
    numerator x.num * y.num goes to the bucket of den = x.den * y.den (times
    z.den), a product of canonical denominators, so canonical itself.  z,
    when given, has a monomial numerator, as 1/D(alpha_i) does: it joins
    sign and the shift.  A term that cancels is deleted, and so are a bucket
    and a key left empty.  ``settle`` or ``settle_into`` reads the sums off.
    """
    den = x.den * y.den
    if z is not None:
        ((za, zb), zc), = z.num.terms.items()
        sign, a, b, den = sign * zc, a + za, b + zb, den * z.den
    buckets = acc.get(key)
    if buckets is None:
        buckets = acc[key] = {}
    terms = buckets.get(den)
    if terms is None:
        terms = buckets[den] = {}
    yterms = y.num.terms.items()
    for (a1, b1), c1 in x.num.terms.items():
        a1 += a
        b1 += b
        c1 *= sign
        for k, c2 in yterms:
            if a1 or b1:  # else reuse y's exponent tuple, not a new one per term
                k = (a1 + k[0], b1 + k[1])
            c = terms.get(k, 0) + c1 * c2
            if c:
                terms[k] = c
            else:
                del terms[k]
    if not terms:
        del buckets[den]
        if not buckets:
            del acc[key]


def settle(acc):
    """The sums of an ``add_product`` accumulator as {key: Scalar}, emptying
    acc as it goes.  A key's buckets are summed over the product of their
    denominators; a sum that cancels is dropped with no gcd, and any other
    is canonicalized once (over 1, with none)."""
    out = {}
    for key in list(acc):
        buckets = iter(acc.pop(key).items())
        den, terms = next(buckets)
        num = LaurentBi._of(terms)
        for d, terms in buckets:
            num = num * d + LaurentBi._of(terms) * den
            den = den * d
        if not num.is_zero():
            out[key] = Scalar(num, den, _canonical=den.is_one())
    return out


def settle_into(acc, out):
    """Add the sums of an ``add_product`` accumulator into out, {key:
    Scalar}, emptying acc; returns out.  A key's entry in out joins the
    bucket of its denominator; each bucket is canonicalized once and added
    as a Scalar, so the sum lies over the lcm of the denominators, not
    their product as in ``settle``.  A key that cancels leaves out."""
    for key, buckets in acc.items():
        total = out.get(key, ZERO)
        own = buckets.get(total.den)
        if own is not None:
            buckets[total.den] = _add(own, total.num.terms)
            total = ZERO
        for den, terms in buckets.items():
            if terms:
                total = total + Scalar(LaurentBi._of(terms), den, _canonical=den.is_one())
        if not total.is_zero():
            out[key] = total
        elif key in out:
            del out[key]
    acc.clear()
    return out


def memoized(fn):
    """fn(owner, *args), kept in owner._memo[name] under the key args.

    name is fn's name without its leading underscore.  A build that raises
    stores nothing, and a recursive build stores every key it meets.
    """
    name = fn.__name__.lstrip("_")

    @functools.wraps(fn)
    def cached(owner, *args):
        table = owner._memo.get(name)
        if table is None:
            table = owner._memo[name] = {}
        hit = table.get(args)
        if hit is None:
            hit = table[args] = fn(owner, *args)
        return hit

    return cached


def half_exponent(q) -> int:
    """2q as an int: the exponent over u = r^(1/2) (or v = s^(1/2)) of a
    power r^q.  Raises ``BadArgument`` when q is not an int or a Fraction
    in (1/2)Z: no float is read as an exponent."""
    if not isinstance(q, (int, Fraction)):
        raise BadArgument(f"exponent {q!r} is not an int or a Fraction")
    e = 2 * q
    if type(e) is not int:
        if e.denominator != 1:
            raise BadArgument(f"exponent {q} leaves the half-power lattice")
        e = int(e)
    return e


def rs_ratio_power(q) -> Scalar:
    """(r s^-1)^q for q in (1/2)Z, as an exact monomial."""
    e = half_exponent(q)
    return Scalar.monomial(e, -e)
