"""Skew-dual pairing of the triangular halves and the Rosso form.

The pairing of a lowering word against a raising word is computed by
peeling lowering letters through the coproduct.  The leg conventions are

    <a, x y> = sum <a_(2), x> <a_(1), y>
    <a b, x> = sum <a, x_(1)> <b, x_(2)>

with the generator values <f_i, e_j> = delta_ij / (s_i - r_i) and the
group-like table, and pairings of mismatched content vanishing.  This is
the unique leg choice under which the two extension rules are mutually
consistent and the pairing is antipode-invariant; the naive un-flipped
variant already fails on two-letter words.  On monomials the recursion
collapses to an inversion-weighted matching sum whose toral factors split
off as group-like pairing values.

Every factor of that sum but the generator values 1/(s_j - r_j) is a unit
monomial u^a v^b, so a pure-word pairing is a numerator over D(nu) =
prod_j (s_j - r_j)^nu_j.  The numerators are Scalars over 1, which shift,
add and multiply with no gcd, and each value is canonicalized once; all
entries of a Gram block share the one D(nu) of their content.  The forms
skew_pair and rosso sum c N per content and divide each sum by its D(nu)
once.  The peeling step, each match of f_j in the raising word with its
crossing factor, is the algebra's (Algebra.peel), and so is the table of
1/D(nu) (Algebra.inverse_denominator).  <f, e> is the lone w'_nu
coefficient of the product e f, which the tests check.
"""

from __future__ import annotations

from .errors import SingularGram, WrongSide
from .linalg import invert
from .qgroup import Algebra, Element, word_content
from .scalars import ONE, ZERO, Scalar, accumulate, add_scaled, memoized


def word_pair(alg: Algebra, fw, ew) -> Scalar:
    """Pairing of the pure words f_{fw} and e_{ew}; zero unless contents match.

    Peeling the leftmost lowering letter f_j matches it against each raising
    letter e_j; crossing the raising letters to its right costs
    <w'_j, w_i>^-1 each, and the consumed letter contributes
    <w'_j, w_(rest)> / (s_j - r_j).  The crossing and toral factors are unit
    monomials that together leave <w'_j, w_l> for each letter l left of the
    match, so the value is N(fw, ew) / D(nu) with D(nu) = prod_j
    (s_j - r_j)^nu_j.  The numerator N, a Scalar over 1, is built by shifts
    and sums alone and canonicalized once, against the D(nu) that a whole
    Gram block shares.
    """
    fw, ew = tuple(fw), tuple(ew)
    nu = word_content(alg.n, fw)
    if nu != word_content(alg.n, ew):
        return ZERO
    return _numerator(alg, fw, ew) * alg.inverse_denominator(nu)


@memoized
def _numerator(alg: Algebra, fw, ew) -> Scalar:
    """N(fw, ew) over 1, for words of one content, peeling f_j off fw by
    ``peel``."""
    if not fw:
        return ONE
    tail = fw[1:]
    total = ZERO
    for sub, a, b in alg.peel(ew, fw[0]):
        total = total + _numerator(alg, tail, sub).shift(a, b)
    return total


def skew_pair(alg: Algebra, y: Element, x: Element) -> Scalar:
    """<y, x> for y in the lowering Hopf half and x in the raising one.

    The terms c N(fw, ew) are summed per content nu, and
    ``_over_denominators`` divides each sum by D(nu) once.
    """
    sums = {}
    for (fw_y, eta_y, phi_y, ew_y), cy in y.terms.items():
        if ew_y or any(phi_y):
            raise WrongSide("first argument must avoid raising letters and w")
        nu = word_content(alg.n, fw_y)
        for (fw_x, eta_x, phi_x, ew_x), cx in x.terms.items():
            if fw_x or any(eta_x):
                raise WrongSide("second argument must avoid lowering letters and w'")
            if word_content(alg.n, ew_x) != nu:
                continue
            toral = alg.gpair(eta_y, phi_x) * alg.gpair(nu, phi_x)
            accumulate(sums.setdefault(nu, {}), None,
                       cy * cx * toral * _numerator(alg, fw_y, ew_x))
    return _over_denominators(alg, sums).get(None, ZERO)


def _over_denominators(alg: Algebra, grouped):
    """{nu: {key: c}} as {key: the sum over nu of c / D(nu)}: each sum is
    divided once, by one vector add per content."""
    out = {}
    for nu, sums in grouped.items():
        add_scaled(out, sums, alg.inverse_denominator(nu))
    return out


def gram(alg: Algebra, nu):
    """Gram matrix of the graded slice: rows lowering words, columns raising."""
    nu = tuple(nu)
    fbasis = alg.graded_basis("-", nu).words
    ebasis = alg.graded_basis("+", nu).words
    return [[word_pair(alg, fw, ew) for ew in ebasis] for fw in fbasis]


class DualBasisPair:
    """Raising-word basis together with its pairing-dual lowering vectors."""

    __slots__ = ("nu", "e_words", "f_words", "coeffs")

    def __init__(self, nu, e_words, f_words, coeffs):
        self.nu = nu
        self.e_words = e_words
        self.f_words = f_words
        self.coeffs = coeffs

    @property
    def dim(self):
        return len(self.e_words)

    def dual_vector(self, alg: Algebra, i: int) -> Element:
        """The i-th dual vector, sum_k coeffs[i][k] f_(f_words[k])."""
        zero = (0,) * alg.n
        return Element(alg, {(fw, zero, zero, ()): c
                             for fw, c in zip(self.f_words, self.coeffs[i])})


def dual_basis(alg: Algebra, nu) -> DualBasisPair:
    return _dual_basis(alg, tuple(nu))


@memoized
def _dual_basis(alg: Algebra, nu) -> DualBasisPair:
    g = gram(alg, nu)
    try:
        inv = invert(g)
    except ArithmeticError as exc:
        raise SingularGram(f"graded Gram matrix at {nu} is singular") from exc
    fbasis = alg.graded_basis("-", nu).words
    ebasis = alg.graded_basis("+", nu).words
    return DualBasisPair(nu, ebasis, fbasis, inv)


def s2_twist(alg: Algebra, nu) -> Scalar:
    """(r s^-1)^(2 (rho, nu)), the square of the antipode on depth nu: the
    inverse of the grading operator on the weight of nu."""
    return alg.grading(alg.rs.from_alpha(nu)).inverse()


def rosso(alg: Algebra, x: Element, y: Element) -> Scalar:
    """Ad-invariant bilinear form assembled from opposite Borel pairings.

    On triangular terms x = F_a w'_mu w_nu E_b and y = F_t w'_s w_d E_g the
    value is

        <F_t w'_s, w_nu E_b> * twist(|F_a|) * <F_a w'_mu, w_d E_g>

    with twist the square of the antipode on the lowering depth of F_a.
    Each factor is the skew pairing of a full lowering Borel element against
    a full raising one, so the toral exponents of either argument also meet
    the raising/lowering content of the other; dropping those two crossing
    factors (pairing only the pure parts) breaks ad-invariance of the form.
    """
    sums = {}
    for (fa, eta_x, phi_x, eb), cx in x.terms.items():
        nu_a = word_content(alg.n, fa)
        nu_b = word_content(alg.n, eb)
        # D(nu_a) D(nu_b) = D(nu_a + nu_b)
        nu = tuple(a + b for a, b in zip(nu_a, nu_b))
        for (ft, eta_y, phi_y, eg), cy in y.terms.items():
            if word_content(alg.n, ft) != nu_b or word_content(alg.n, eg) != nu_a:
                continue
            num = _numerator(alg, ft, eb) * _numerator(alg, fa, eg)
            if num.is_zero():
                continue
            val = alg.gpair(eta_y, phi_x) * alg.gpair(nu_b, phi_x) \
                * alg.gpair(eta_x, phi_y) * alg.gpair(nu_a, phi_y) \
                * s2_twist(alg, nu_a)
            accumulate(sums.setdefault(nu, {}), None, cx * cy * val * num)
    return _over_denominators(alg, sums).get(None, ZERO)


def check_ad_invariance(alg: Algebra, a: Element, b: Element, c: Element) -> bool:
    """Whether <ad(a) b, c> = <b, ad(S(a)) c> holds exactly."""
    lhs = rosso(alg, alg.ad(a, b), c)
    rhs = rosso(alg, b, alg.ad(alg.antipode(a), c))
    return lhs == rhs
