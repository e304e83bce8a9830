"""Exact arithmetic in the coefficient field of the deformation parameters.

Scalars are fractions of integer Laurent polynomials in u = r^(1/2) and
v = s^(1/2), so half-integer powers of r and s stay exact.  r and s are
aliases for u^2 and v^2.  Treating u, v as independent formal variables
makes r^k * s^l = 1 hold only for k = l = 0.

No floating point is used anywhere; integer coefficients are arbitrary
precision.

A Laurent polynomial is held as its homogeneous components, and each
component as one integer (Kronecker substitution; Harvey, J. Symb. Comput.
2009): sum_k c_k u^(a0+k) v^(d-a0-k) is (d, a0, F), F = sum_k c_k 2^(w k)
in balanced digits, |c_k| < 2^(w-1).  The width w is the least of 64, 128,
256, ... that holds every coefficient, so a value has one form.  A product
of homogeneous values is then one integer product, and a sum or shift one
shift-and-add.  The width comes from a proved bound, never from a check
after the fact: |pq| <= |p| |q| min(len p, len q), where |.| is the largest
|coefficient|, and the bounds of a sum add.  A result whose bound reaches
2^63 is made in a wider slot and read back at its own width.  The gcd of
homogeneous operands runs on the packed integers at xi = 2^w (see
``_heu_gcd``).  Only two inhomogeneous operands, which no build of the
benchmark or of tools/long_runs.py forms, and a heuristic that proves no
candidate reach sympy.

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
``add_product``: each product of numerators is added, by LaurentBi's own
arithmetic, to a bucket of its key and of the product of its canonical
denominators, and no partial product or partial sum is made a Scalar.  Two
functions read the buckets off.  ``settle`` gives each key one canonical
Scalar over the product of its buckets' denominators: a sum that cancels
there drops out with no gcd, so the images of a central element, which are
all zero, take none.  ``settle_into`` adds each key's buckets into an
existing entry as Scalars, over the lcm of their denominators, for a row
reduction.  No other module reads the numerator or denominator of a
Scalar.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction

from .errors import BadArgument


# ---------------------------------------------------------------------------
# packed components: sum_k c_k u^(a0+k) v^(d-a0-k), with c_0 and the last
# c_k nonzero, is (d, a0, F) with F = sum_k c_k 2^(w k), |c_k| < 2^(w-1)
# ---------------------------------------------------------------------------

_OFFSETS = {}


def _width(m):
    """The least slot width w of 64, 128, 256, ... with m < 2^(w-1)."""
    w = 64
    while m >> (w - 1):
        w *= 2
    return w


def _slots(x, w):
    """The unsigned base-2^w slots of x + sum_k 2^(w-1) 2^(w k): the
    balanced digits of the int x, least first, each plus 2^(w-1)."""
    n = x.bit_length() // w + 1
    off, unpack = _OFFSETS.get((w, n)) or _offset(w, n)
    if (x + off) >> (w * n):  # a top digit is 2^(w-1) or more
        n += 1
        off, unpack = _OFFSETS.get((w, n)) or _offset(w, n)
    raw = (x + off).to_bytes(w * n // 8, "little")
    if w == 64:
        return unpack(raw)
    return [int.from_bytes(raw[i:i + w // 8], "little") for i in range(0, len(raw), w // 8)]


def _offset(w, n):
    """sum_k 2^(w-1) 2^(w k) over n slots, and the reader of n 64-bit slots."""
    out = _OFFSETS[w, n] = (((1 << w * n) - 1) // ((1 << w) - 1) << (w - 1),
                            struct.Struct(f"<{n}Q").unpack)
    return out


def _digits(x, w):
    """The balanced base-2^w digits of the int x, least first, each in
    [-2^(w-1), 2^(w-1))."""
    half = 1 << (w - 1)
    return [c - half for c in _slots(x, w)]


def _pack(digits, w):
    x = 0
    for c in reversed(digits):
        x = (x << w) + c
    return x


def _aligned(a, f, a2, g, w):
    """(a0, F) of the sum of the slots (a, f) and (a2, g) at width w."""
    if a2 >= a:
        return a, f + (g << w * (a2 - a))
    return a2, (f << w * (a - a2)) + g


def _join(parts, w):
    """Components from (d, a0, F) parts at width w: the parts of one degree
    are added, a sum that cancels is dropped, and low slots that cancelled
    are shifted out."""
    sums = {}
    for d, a, f in parts:
        sums[d] = (a, f) if d not in sums else _aligned(*sums[d], a, f, w)
    out = []
    for d, (a, f) in sorted(sums.items()):
        if f:
            z = ((f & -f).bit_length() - 1) // w
            out.append((d, a + z, f >> w * z))
    return tuple(out)


def _new(comps, w, b, k=None):
    p = object.__new__(LaurentBi)
    p._c, p._w, p._b, p._k = comps, w, b, k
    return p


def _make(comps, w, b, k=None):
    """The LaurentBi of components at width w with every |c_k| <= b.  Past
    width 64 the digits are read for the exact bound and repacked at the
    width it gives, so that a value has one form."""
    if not comps:
        return _L_ZERO
    if w > 64:
        digits = [_digits(f, w) for _, _, f in comps]
        b = max(abs(c) for x in digits for c in x)
        if _width(b) < w:
            w = _width(b)
            comps = tuple((d, a, _pack(x, w)) for (d, a, _), x in zip(comps, digits))
    return _new(comps, w, b, k)


def _at(p, w):
    """p's components repacked at width w >= p's."""
    if p._w == w:
        return p._c
    return tuple((d, a, _pack(_digits(f, p._w), w)) for d, a, f in p._c)


def _content(p):
    """The integer content of p, read off its digits once."""
    if p._k is None:
        p._k = math.gcd(*[c for _, _, f in p._c for c in _digits(f, p._w)])
    return p._k


def _least(p):
    """The least exponents of u and of v in p."""
    return min(a for _, a, _ in p._c), min(d - a - f.bit_length() // p._w for d, a, f in p._c)


def _over(p, k):
    """p divided by an integer k that divides its content."""
    if k == 1:
        return p
    return _make(tuple((d, a, f // k) for d, a, f in p._c), p._w, p._b // k, _content(p) // k)


# ---------------------------------------------------------------------------
# gcd and exact division in ZZ[u^+-1, v^+-1].  Monomials are units, so a
# monomial operand leaves only the common integer content.  Every divisor of
# a nonzero homogeneous polynomial is homogeneous, so for h homogeneous,
# gcd(p, h) = gcd(h, each homogeneous component of p).  Every gcd comes with
# its cofactors p/gcd and q/gcd, so Scalar arithmetic divides nothing after
# a gcd, and an exact division is read off the cofactors.
# ---------------------------------------------------------------------------

_SYMPY_RING = None


def _sympy_operands(p, q):
    """p and q in sympy's ZZ[u, v], each shifted by its least exponents."""
    global _SYMPY_RING
    if _SYMPY_RING is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import ring
        _SYMPY_RING = ring("u v", ZZ)[0]
    return [_SYMPY_RING.from_dict(x.shift(*(-e for e in _least(x))).terms) for x in (p, q)]


def _sympy_gcd(p, q):
    """(gcd, p/gcd, q/gcd) of Laurent polynomials, the gcd with no monomial
    factor and a positive graded-lex lead."""
    a, b = _sympy_operands(p, q)
    h, cp, cq = (LaurentBi({k: int(c) for k, c in x.items()}) for x in a.cofactors(b))
    if h._c[-1][2] < 0:
        h, cp, cq = -h, -cp, -cq
    return h, cp.shift(*_least(p)), cq.shift(*_least(q))


def _heu_gcd(f, g, w, bf, bg):
    """(h, |h|, f/h, |f/h|, g/h, |g/h|), packed at width w with |x| a bound
    of every |digit|, for the gcd h of primitive f and g packed at w, whose
    digits are at most bf and bg; None when no candidate is proved.

    The candidate h is the primitive part of gcd(f(xi), g(xi)) read in
    balanced digits; as xi = 2^w >= 2 min(|f|, |g|) + 2, it is the gcd once
    it divides both.  It does when each q = F / H is exact and |q| |h|
    min(len q, len h) < 2^(w-1): then q h has balanced digits too, and it
    agrees with f at xi.  A constant candidate is 1.
    """
    y, half = math.gcd(f, g), 1 << (w - 1)
    if y < half:
        return 1, 1, f, bf, g, bg
    if y in (f, -f, g, -g):  # one operand divides the other: h is it
        h, mh = y, bf if y in (f, -f) else bg
        lh = y.bit_length() // w + 1
    else:
        hd = [c - half for c in _slots(y, w)]
        c, lh = math.gcd(*hd), len(hd)
        h, mh = y // c, max(max(hd), -min(hd)) // c
    out = [h, mh]
    for x in (f, g):
        q, r = divmod(x, h)
        if -half < q < half:
            m, lq = abs(q), 1
        else:
            qs = _slots(q, w)
            m, lq = max(max(qs) - half, half - min(qs)), len(qs)
        if r or mh * m * min(lh, lq) >= half:
            return None
        out += [q, m]
    return out


def _scaled(d, a, x, w, s, m, k):
    """The homogeneous s * (d, a, x), for x packed at width w, with content
    k and every |digit| at most m (exactly, when m is 2^63 or more)."""
    if w == 64 > m.bit_length() or _width(m) == w:
        return _new(((d, a, x * s),), w, m, k)
    return _new(((d, a, _pack([s * c for c in _digits(x, w)], _width(m))),), _width(m), m, k)


def _hom_gcd(p, q):
    """(gcd, p/gcd, q/gcd) of nonzero homogeneous p, q; None when GCDHEU
    proves no candidate at widths w, 2w and 4w."""
    (dp, ap, f), (dq, aq, g) = p._c[0], q._c[0]
    kp, kq, w = p._k or _content(p), q._k or _content(q), max(p._w, q._w)
    if p._w != q._w:
        f, g = _at(p, w)[0][2], _at(q, w)[0][2]
    k, f, g, bf, bg = math.gcd(kp, kq), f // kp, g // kq, p._b // kp, q._b // kq
    for _ in range(3):
        heu = _heu_gcd(f, g, w, bf, bg)
        if heu is not None:
            break
        f, g, w = _pack(_digits(f, w), 2 * w), _pack(_digits(g, w), 2 * w), 2 * w
    else:
        return None
    h, mh, f, mf, g, mg = heu
    if h == 1:  # coprime primitive parts
        return LaurentBi.const(k), _over(p, k), _over(q, k)
    m, kp, kq = h.bit_length() // w, kp // k, kq // k
    return (_scaled(m, 0, h, w, k, k * mh, k), _scaled(dp - m, ap, f, w, kp, kp * mf, kp),
            _scaled(dq - m, aq, g, w, kq, kq * mg, kq))


def _laurent_gcd(p, q):
    """(gcd, p/gcd, q/gcd) of nonzero Laurent polynomials, the gcd with no
    monomial factor and a positive graded-lex leading coefficient.

    LaurentBi.gcd answers a monomial operand before calling this.
    """
    if len(p._c) == 1 == len(q._c):
        return _hom_gcd(p, q) or _sympy_gcd(p, q)
    if len(p._c) > 1 < len(q._c):
        return _sympy_gcd(p, q)
    # the gcd of all components, then each component divided by it
    parts = [[_make((c,), x._w, x._b) for c in x._c] for x in (p, q)]
    out = [parts[0][0]]
    for x in parts[0][1:] + parts[1]:
        out = _hom_gcd(out[0], x)
        if out is None:
            return _sympy_gcd(p, q)
    quo = [[_hom_gcd(x, out[0]) for x in xs] for xs in parts]
    if None in quo[0] + quo[1]:
        return _sympy_gcd(p, q)
    return [out[0]] + [sum((r[1] for r in rs), _L_ZERO) for rs in quo]


class LaurentBi:
    """Integer Laurent polynomial in u = r^(1/2), v = s^(1/2).

    Immutable.  ``_c`` holds its homogeneous components in ascending degree
    as packed (d, a0, F), at the width ``_w``, the least that holds every
    coefficient: so a value has one form, and equality and hashing compare
    tuples.  ``_b`` bounds every |c_k|: below 2^63 at width 64, and exactly
    past it.  ``_k`` is the integer content, or None until it is read.
    """

    __slots__ = ("_c", "_w", "_b", "_k")

    def __init__(self, terms=None):
        parts = {}
        for (a, b), c in (terms or {}).items():
            if c:
                parts.setdefault(a + b, {})[a] = c
        coeffs = [c for x in parts.values() for c in x.values()]
        self._b, self._k = max(map(abs, coeffs), default=0), math.gcd(*coeffs)
        self._w = w = _width(self._b)
        self._c = tuple((d, min(x), _pack([x.get(a, 0) for a in range(min(x), max(x) + 1)], w))
                        for d, x in sorted(parts.items()))

    @property
    def terms(self):
        """The term map {(a, b): c}, built on demand."""
        return {(a + k, d - a - k): c for d, a, f in self._c
                for k, c in enumerate(_digits(f, self._w)) if c}

    @staticmethod
    def monomial(coeff, a, b):
        m = abs(coeff)
        return _new(((a + b, a, coeff),), _width(m), m, m) if coeff else _L_ZERO

    @staticmethod
    def const(c):
        return LaurentBi.monomial(c, 0, 0)

    def is_zero(self):
        return not self._c

    def is_one(self):
        return self._c == _ONE_C

    def is_monomial(self):
        return len(self._c) == 1 and self._c[0][2].bit_length() < self._w

    def is_unit(self):
        """Whether self is +-u^a v^b, a unit of the Laurent ring."""
        return len(self._c) == 1 and self._c[0][2] in (1, -1)

    def __add__(self, other):
        # the bound of a sum is the sum of the bounds
        if len(self._c) == 1 == len(other._c) and self._w == 64 == other._w:
            (d, a, f), (e, a2, g) = self._c[0], other._c[0]
            b = self._b + other._b
            if d == e and not b >> 63:
                a, f = _aligned(a, f, a2, g, 64)
                z = ((f & -f).bit_length() - 1) >> 6
                return _new(((d, a + z, f >> 64 * z),), 64, b) if f else _L_ZERO
        b = self._b + other._b
        w = max(self._w, other._w, _width(b))
        return _make(_join(_at(self, w) + _at(other, w), w), w, b)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _new(tuple((d, a, -f) for d, a, f in self._c), self._w, self._b, self._k)

    def __mul__(self, other):
        # a factor of 1 returns the other operand as it stands;
        # |pq| <= |p| |q| min(len p, len q), and Gauss's lemma gives the content
        p, q = self._c, other._c
        if p == _ONE_C:
            return other
        if q == _ONE_C:
            return self
        k = None if self._k is None or other._k is None else self._k * other._k
        if len(p) == 1 == len(q) and self._w == 64 == other._w:
            (d1, a1, f), (d2, a2, g) = p[0], q[0]
            b = self._b * other._b * (min(f.bit_length(), g.bit_length()) // 64 + 1)
            if not b >> 63:
                return _new(((d1 + d2, a1 + a2, f * g),), 64, b, k)
        b = self._b * other._b * min(sum(f.bit_length() // x._w + 1 for _, _, f in x._c)
                                     for x in (self, other))
        w = max(self._w, other._w, _width(b))
        return _make(_join([(d1 + d2, a1 + a2, f * g) for d1, a1, f in _at(self, w)
                            for d2, a2, g in _at(other, w)], w), w, b, k)

    def __pow__(self, k):
        if k < 0:  # Scalar.__pow__ inverts first; a LaurentBi has no inverse
            raise BadArgument(f"negative power {k} of a Laurent polynomial")
        out = LaurentBi.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentBi) and self._w == other._w and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def shift(self, a, b):
        """self * u^a v^b."""
        if not (a or b):
            return self
        return _new(tuple((d + a + b, a0 + a, f) for d, a0, f in self._c),
                    self._w, self._b, self._k)

    def gcd(self, other):
        """The gcd (normalized unless an operand is zero) as a ``_Gcd``."""
        if self.is_zero():
            return _Gcd(other, _L_ZERO, _L_ONE)
        if other.is_zero():
            return _Gcd(self, _L_ONE, _L_ZERO)
        if self.is_monomial() or other.is_monomial():
            # a monomial is a unit: only the common integer content remains
            k = math.gcd(_content(self), _content(other))
            return _Gcd(LaurentBi.const(k), _over(self, k), _over(other, k))
        return _Gcd(*_laurent_gcd(self, other))

    def divexact(self, other):
        """self / other; ArithmeticError when the division is inexact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        # other divides self exactly when other / gcd is a unit +-u^a v^b
        quo, unit = self.gcd(other).cofactors
        if not unit.is_unit():
            raise ArithmeticError("inexact polynomial division")
        (d, a, f), = unit._c
        return (quo if f == 1 else -quo).shift(-a, a - d)

    def sorted_terms(self):
        """Terms as (coeff, a, b) triples, graded-lex descending."""
        return sorted(((c, a, b) for (a, b), c in self.terms.items()),
                      key=lambda t: (t[1] + t[2], t[1]), reverse=True)

    def __str__(self):
        return _render_poly(self)

    def __repr__(self):
        return f"LaurentBi({self.terms!r})"


class _Gcd(LaurentBi):
    """A gcd g of p and q that carries ``cofactors`` = (p/g, q/g)."""

    __slots__ = ("cofactors",)

    def __init__(self, g, p, q):
        self._c, self._w, self._b, self._k = g._c, g._w, g._b, g._k
        self.cofactors = (p, q)


_ONE_C = ((0, 0, 1),)
_L_ZERO = _new((), 64, 0, 0)
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
        return not self.num._c

    def is_one(self):
        return self.num._c == _ONE_C == self.den._c

    def is_rational(self):
        return all(p.terms.keys() <= {(0, 0)} for p in (self.num, self.den))

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
        num, den = _normalize_unit(_swapped(self.num), _swapped(self.den))
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
        if not self.num.is_monomial():
            ns = f"({ns})"
        if not self.den.is_monomial():
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"Scalar({self})"


def _swapped(p):
    """p with u and v exchanged: each component's digits reversed."""
    comps = []
    for d, a, f in p._c:
        x = _digits(f, p._w)[::-1]
        comps.append((d, d - a - len(x) + 1, _pack(x, p._w)))
    return _new(tuple(comps), p._w, p._b, p._k)


def _normalize_unit(num: LaurentBi, den: LaurentBi):
    """Move the denominator's monomial factor and sign into the numerator."""
    ma, mb = _least(den)
    num, den = num.shift(-ma, -mb), den.shift(-ma, -mb)
    if den._c[-1][2] < 0:
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


def add_product(acc, key, x, y, z=None):
    """acc[key] += x * y (* z), summed as numerators over denominators.

    acc maps each key to its buckets {den: num}: x.num * y.num (* z.num),
    a LaurentBi, is added to the bucket of den = x.den * y.den (* z.den), a
    product of canonical denominators, so canonical itself, and no product
    or partial sum is made a Scalar.  A bucket or key that cancels is
    deleted.  ``settle`` or ``settle_into`` reads the sums off.
    """
    num, den = x.num * y.num, x.den * y.den
    if z is not None:
        num, den = num * z.num, den * z.den
    buckets = acc.get(key)
    if buckets is None:
        buckets = acc[key] = {}
    s = buckets.get(den)
    num = num if s is None else s + num
    if not num.is_zero():
        buckets[den] = num
        return
    buckets.pop(den, None)
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
        den, num = next(buckets)
        for d, s in buckets:
            num = num * d + s * den
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
            buckets[total.den] = own + total.num
            total = ZERO
        for den, num in buckets.items():
            if not num.is_zero():
                total = total + Scalar(num, den, _canonical=den.is_one())
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
