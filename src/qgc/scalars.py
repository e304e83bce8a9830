"""Exact arithmetic in the coefficient field of the deformation parameters.

Scalars are fractions of integer Laurent polynomials in u = r^(1/2) and
v = s^(1/2), so half-integer powers of r and s stay exact.  r and s are
aliases for u^2 and v^2.  Treating u, v as independent formal variables
makes r^k * s^l = 1 hold only for k = l = 0.

No floating point is used anywhere; integer coefficients are arbitrary
precision.
"""

from __future__ import annotations

import math
from fractions import Fraction


class PoleAtPoint(ZeroDivisionError):
    """Numeric evaluation hit a zero of the denominator."""


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
# its dense dehomogenization at v = 1.  Gcd and exact division of two such
# operands therefore run on dense univariate integer coefficients: the gcd as
# the heuristic integer gcd of Char, Geddes and Gonnet (J. Symb. Comput.
# 1989), the division as long division.  Other operands, and the rare case
# where the heuristic gives up, go to sympy's sparse polynomial rings (gcd,
# imported on first use) and to graded-lex dict division.
# ---------------------------------------------------------------------------

_SYMPY_RING = None


def _sympy_gcd(p, q):
    """Gcd in ZZ[u, v], normalized with a positive graded-lex lead."""
    global _SYMPY_RING
    if _SYMPY_RING is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import ring
        _SYMPY_RING = ring("u v", ZZ)[0]
    g = _SYMPY_RING.from_dict(p).gcd(_SYMPY_RING.from_dict(q))
    out = {k: int(c) for k, c in g.items()}
    return _neg(out) if out[_lead(out)] < 0 else out


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
    """Gcd of primitive f, g in ZZ[x] with positive lead, or None on give-up.

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
        if _dense_quotient(f, cand) is not None \
                and _dense_quotient(g, cand) is not None:
            return cand
        # the growth factor of the original method, close to 1 + sqrt(3)
        xi = xi * 73794 // 27011
    return None


def _horner(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _laurent_gcd(p, q):
    """Gcd of nonzero Laurent polynomials, normalized with no monomial factor
    and a positive graded-lex leading coefficient.

    LaurentBi.gcd answers a monomial operand before calling this.
    """
    hp, hq = _dehomogenize(p), _dehomogenize(q)
    if hp is not None and hq is not None:
        f, g = hp[2], hq[2]
        cf, cg = _int_content(f), _int_content(g)
        h = _heu_gcd([c // cf for c in f], [c // cg for c in g])
        if h is not None:
            m, c = len(h) - 1, math.gcd(cf, cg)
            return {(k, m - k): c * x for k, x in enumerate(h) if x}
    sp, sq = _min_exps(p), _min_exps(q)
    return _sympy_gcd(_shift(p, -sp[0], -sp[1]), _shift(q, -sq[0], -sq[1]))


def _poly_divexact(p, q):
    """Exact division in ZZ[u, v] using graded-lex leading terms."""
    r = dict(p)
    out = {}
    kq = _lead(q)
    cq = q[kq]
    while r:
        kr = _lead(r)
        a, b = kr[0] - kq[0], kr[1] - kq[1]
        cr = r[kr]
        if a < 0 or b < 0 or cr % cq:
            raise ArithmeticError("inexact polynomial division")
        c = cr // cq
        out[(a, b)] = c
        r = _add(r, _mul({(a, b): -c}, q))
    return out


def _laurent_divexact(p, q):
    """Exact division of Laurent polynomials; ArithmeticError if inexact."""
    hp, hq = _dehomogenize(p), _dehomogenize(q)
    if hp is not None and hq is not None:
        quo = _dense_quotient(hp[2], hq[2])
        if quo is None:
            raise ArithmeticError("inexact polynomial division")
        a0, d = hp[0] - hq[0], hp[1] - hq[1]
        return {(a0 + k, d - a0 - k): c for k, c in enumerate(quo) if c}
    sp = _min_exps(p)
    sq = _min_exps(q)
    quo = _poly_divexact(_shift(p, -sp[0], -sp[1]), _shift(q, -sq[0], -sq[1]))
    return _shift(quo, sp[0] - sq[0], sp[1] - sq[1])


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
    def monomial(coeff, a, b):
        return LaurentBi({(a, b): coeff} if coeff else {})

    @staticmethod
    def const(c):
        return LaurentBi({(0, 0): c} if c else {})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def is_monomial(self):
        return len(self.terms) == 1

    def __add__(self, other):
        return LaurentBi(_add(self.terms, other.terms))

    def __sub__(self, other):
        return LaurentBi(_add(self.terms, _neg(other.terms)))

    def __neg__(self):
        return LaurentBi(_neg(self.terms))

    def __mul__(self, other):
        return LaurentBi(_mul(self.terms, other.terms))

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

    def gcd(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        p, q = self.terms, other.terms
        if len(p) == 1 or len(q) == 1:
            # a monomial is a unit: only the common integer content remains
            g = math.gcd(_int_content(p.values()), _int_content(q.values()))
            return _L_ONE if g == 1 else LaurentBi.const(g)
        return LaurentBi(_laurent_gcd(p, q))

    def divexact(self, other):
        if self.is_zero():
            return self
        return LaurentBi(_laurent_divexact(self.terms, other.terms))

    def eval_at(self, u0: Fraction, v0: Fraction) -> Fraction:
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * u0 ** a * v0 ** b
        return total

    def sorted_terms(self):
        """Terms as (coeff, a, b) triples, graded-lex descending."""
        return [(self.terms[k], k[0], k[1])
                for k in sorted(self.terms, key=_grlex_key, reverse=True)]

    def __str__(self):
        return _render_poly(self)

    def __repr__(self):
        return f"LaurentBi({self.terms!r})"


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

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentBi, den: LaurentBi = _L_ONE, _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            num, den = _canon(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k):
        return Scalar(LaurentBi.const(k), _L_ONE, _canonical=True)

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
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        num = self.num * other.den + other.num * self.den
        return Scalar(num, self.den * other.den)

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
        # cross-reduce so the product of canonical inputs is already reduced
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num.divexact(g1) if not g1.is_one() else self.num
        d2 = other.den.divexact(g1) if not g1.is_one() else other.den
        n2 = other.num.divexact(g2) if not g2.is_one() else other.num
        d1 = self.den.divexact(g2) if not g2.is_one() else self.den
        num = n1 * n2
        den = d1 * d2
        num, den = _normalize_unit(num, den)
        return Scalar(num, den, _canonical=True)

    __rmul__ = __mul__

    def shift(self, a, b):
        """self * u^a v^b; monomials are units, so no gcd is needed."""
        if not (a or b) or self.is_zero():
            return self
        return Scalar(LaurentBi(_shift(self.num.terms, a, b)), self.den,
                      _canonical=True)

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
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- evaluation / io ----------------------------------------------------

    def eval_numeric(self, u0, v0) -> Fraction:
        """Exact value at u = u0, v = v0; raises PoleAtPoint at a pole."""
        u0, v0 = Fraction(u0), Fraction(v0)
        d = self.den.eval_at(u0, v0)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at ({u0}, {v0})")
        return self.num.eval_at(u0, v0) / d

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
        num = LaurentBi({(a, b): c for c, a, b in obj["num"]})
        den = LaurentBi({(a, b): c for c, a, b in obj["den"]})
        return Scalar(num, den)

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
        num = LaurentBi(_shift(num.terms, -ma, -mb))
        den = LaurentBi(_shift(den.terms, -ma, -mb))
    if den.terms[_lead(den.terms)] < 0:
        num, den = -num, -den
    return num, den


def _canon(num: LaurentBi, den: LaurentBi):
    if num.is_zero():
        return _L_ZERO, _L_ONE
    g = num.gcd(den)
    if not g.is_one():
        num = num.divexact(g)
        den = den.divexact(g)
    return _normalize_unit(num, den)


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
R = Scalar.monomial(2, 0)
S = Scalar.monomial(0, 2)


def accumulate(out, key, c):
    """out[key] += c, dropping the key when the sum cancels."""
    acc = out.get(key, ZERO) + c
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


def rs_ratio_power(q) -> Scalar:
    """(r s^-1)^q for q in (1/2)Z, as an exact monomial."""
    q = Fraction(q)
    e = 2 * q
    if e.denominator != 1:
        raise ValueError(f"(r/s)^{q} is not representable over half powers")
    return Scalar.monomial(int(e), -int(e))


def rs_product_power(q) -> Scalar:
    """(r s)^q for q in (1/2)Z, as an exact monomial."""
    q = Fraction(q)
    e = 2 * q
    if e.denominator != 1:
        raise ValueError(f"(rs)^{q} is not representable over half powers")
    return Scalar.monomial(int(e), int(e))


def r_power(q) -> Scalar:
    """r^q for q in (1/2)Z."""
    q = Fraction(q)
    e = 2 * q
    if e.denominator != 1:
        raise ValueError(f"r^{q} is not representable over half powers")
    return Scalar.monomial(int(e), 0)
