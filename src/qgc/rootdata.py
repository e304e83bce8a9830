"""Root system of type B_n: lattices, Weyl group, weight multiplicities.

Weights live in doubled epsilon coordinates: a weight is a tuple of n
integers whose actual coordinates are half the stored values.  A tuple is a
lattice weight exactly when all entries share one parity (all even are the
integer weights, all odd the spin weights).  Root-lattice vectors are also
handled in alpha coordinates, as tuples of integers or Fractions over the
simple-root basis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (BadArgument, IndexOutOfRange, InternalInconsistency,
                     NotDominant, NotInPositiveCone, NotInRootLattice, RankMismatch)
from .scalars import memoized


class WeylElement:
    """Signed permutation; acts on doubled epsilon coordinates."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        self.perm = tuple(perm)
        self.signs = tuple(signs)

    def act(self, vec):
        out = [0] * len(vec)
        for k, x in enumerate(vec):
            out[self.perm[k]] = self.signs[k] * x
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return f"WeylElement(perm={self.perm}, signs={self.signs})"


class RootSystemB:
    """Type B_n data: simple roots eps_i - eps_(i+1) and the short root eps_n."""

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise BadArgument(f"rank {n!r} is not an integer of at least 1")
        self.n = n
        self.simple_roots = []
        for i in range(n - 1):
            a = [0] * n
            a[i], a[i + 1] = 2, -2
            self.simple_roots.append(tuple(a))
        short = [0] * n
        short[n - 1] = 2
        self.simple_roots.append(tuple(short))
        self.positive_roots = self._positive_roots()
        self.rho = tuple(sum(r[k] for r in self.positive_roots) // 2
                         for k in range(n))
        self.fundamental_weights = []
        for i in range(1, n):
            self.fundamental_weights.append(tuple([2] * i + [0] * (n - i)))
        self.fundamental_weights.append((1,) * n)
        self._pos_alpha = [self.root_coords(r) for r in self.positive_roots]
        self._memo = {}

    def _positive_roots(self):
        n = self.n
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                a = [0] * n
                a[i], a[j] = 2, -2
                roots.append(tuple(a))
                a = [0] * n
                a[i], a[j] = 2, 2
                roots.append(tuple(a))
        for i in range(n):
            a = [0] * n
            a[i] = 2
            roots.append(tuple(a))
        return roots

    # -- basic bilinear data --------------------------------------------------

    def _check(self, vec):
        if len(vec) != self.n:
            raise RankMismatch(f"expected length {self.n}, got {len(vec)}")

    def inner(self, x, y) -> Fraction:
        """Inner product of two vectors in doubled epsilon coordinates."""
        self._check(x)
        self._check(y)
        return Fraction(sum(a * b for a, b in zip(x, y)), 4)

    def coroot_pair(self, lam, i: int) -> Fraction:
        """2 (lam, alpha_i) / (alpha_i, alpha_i)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"simple-root index {i} out of 1..{self.n}")
        alpha = self.simple_roots[i - 1]
        return 2 * self.inner(lam, alpha) / self.inner(alpha, alpha)

    # -- coordinates ----------------------------------------------------------

    def alpha_coords(self, vec):
        """Coefficients over the simple-root basis, as Fractions."""
        self._check(vec)
        out = []
        acc = 0
        for x in vec:
            acc += x
            out.append(Fraction(acc, 2))
        return tuple(out)

    def from_alpha(self, coords):
        """Doubled epsilon coordinates of sum coords_i * alpha_i.

        Accepts rational coefficients; the result may have Fraction entries
        when the vector is not in the doubled lattice.
        """
        self._check(coords)
        out = []
        prev = Fraction(0)
        for c in coords:
            c = Fraction(c)
            out.append(2 * (c - prev))
            prev = c
        return tuple(int(x) if x.denominator == 1 else x for x in out)

    def root_coords(self, vec):
        """Alpha coordinates of a root-lattice vector, as plain integers."""
        coords = self.alpha_coords(vec)
        if any(c.denominator != 1 for c in coords):
            raise NotInRootLattice(f"{vec} is not in the root lattice")
        return tuple(int(c) for c in coords)

    def from_fund(self, coeffs):
        """Doubled epsilon coordinates of sum coeffs_i * fundamental_i."""
        self._check(coeffs)
        return tuple(sum(c * w[k] for c, w in zip(coeffs, self.fundamental_weights))
                     for k in range(self.n))

    # -- lattice predicates ----------------------------------------------------

    def in_weight_lattice(self, vec):
        self._check(vec)
        if any(not isinstance(x, int) and Fraction(x).denominator != 1 for x in vec):
            return False
        parities = {int(x) % 2 for x in vec}
        return len(parities) == 1

    def in_root_lattice(self, vec):
        self._check(vec)
        return all(isinstance(x, int) or Fraction(x).denominator == 1 for x in vec) \
            and all(int(x) % 2 == 0 for x in vec)

    def is_dominant(self, vec):
        self._check(vec)
        return all(vec[k] >= vec[k + 1] for k in range(self.n - 1)) and vec[-1] >= 0

    def dominance_leq(self, mu, lam):
        """mu <= lam: the difference is a nonnegative root-lattice vector."""
        diff = tuple(a - b for a, b in zip(lam, mu))
        if not self.in_root_lattice(diff):
            return False
        return all(c >= 0 for c in self.alpha_coords(diff))

    # -- Weyl group -------------------------------------------------------------

    def simple_reflection(self, i: int) -> WeylElement:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"simple-root index {i} out of 1..{self.n}")
        n = self.n
        if i < n:
            perm = list(range(n))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            return WeylElement(perm, (1,) * n)
        signs = [1] * n
        signs[n - 1] = -1
        return WeylElement(range(n), signs)

    def weyl_orbit(self, lam):
        """W lam: W(B_n) acts on epsilon coordinates by signed permutations."""
        self._check(lam)
        return {tuple(s * x for s, x in zip(signs, perm))
                for perm in itertools.permutations(lam)
                for signs in itertools.product((1, -1), repeat=self.n)}

    def dominant_representative(self, vec):
        return tuple(sorted((abs(x) for x in vec), reverse=True))

    # -- representation-theoretic data -------------------------------------------

    def dominant_weights_below(self, lam):
        """Dominant lattice weights mu with mu <= lam, highest first."""
        if not self.in_weight_lattice(lam):
            raise NotDominant(f"{lam} is not a lattice weight")
        if not self.is_dominant(lam):
            raise NotDominant(f"{lam} is not dominant")
        top = lam[0]
        parity = lam[0] % 2
        cands = []
        rng = range(parity, top + 1, 2)
        for tup in itertools.product(rng, repeat=self.n):
            if all(tup[k] >= tup[k + 1] for k in range(self.n - 1)):
                mu = tuple(tup)
                if self.dominance_leq(mu, lam):
                    cands.append(mu)
        cands.sort(key=lambda mu: sum(self.alpha_coords(tuple(a - b for a, b in zip(lam, mu)))))
        return cands

    def freudenthal_mults(self, lam):
        """Weight multiplicities of the irreducible highest-weight module.

        Freudenthal recursion over dominant weights, expanded to the full
        Weyl-invariant multiplicity map {weight: multiplicity}.
        """
        doms = self.dominant_weights_below(lam)
        rho = self.rho
        lam_rho = tuple(a + b for a, b in zip(lam, rho))
        c_top = self.inner(lam_rho, lam_rho)
        mults = {lam: 1}
        for mu in doms[1:]:
            acc = Fraction(0)
            for alpha in self.positive_roots:
                k = 1
                while True:
                    nu = tuple(m + k * a for m, a in zip(mu, alpha))
                    if not self.dominance_leq(nu, lam):
                        break
                    m = mults.get(self.dominant_representative(nu), 0)
                    if m:
                        acc += m * self.inner(nu, alpha)
                    k += 1
            mu_rho = tuple(a + b for a, b in zip(mu, rho))
            denom = c_top - self.inner(mu_rho, mu_rho)
            val = 2 * acc / denom
            if val.denominator != 1 or val < 0:
                raise InternalInconsistency(f"non-integral multiplicity at {mu}")
            if val:
                mults[mu] = int(val)
        full = {}
        for mu, m in mults.items():
            for w in self.weyl_orbit(mu):
                full[w] = m
        return full

    def weyl_dim(self, lam) -> int:
        """Dimension by the product over positive roots of (lam+rho, a)/(rho, a)."""
        if not self.in_weight_lattice(lam) or not self.is_dominant(lam):
            raise NotDominant(f"{lam} is not a dominant lattice weight")
        rho = self.rho
        lam_rho = tuple(a + b for a, b in zip(lam, rho))
        out = Fraction(1)
        for alpha in self.positive_roots:
            out *= self.inner(lam_rho, alpha) / self.inner(rho, alpha)
        if out.denominator != 1:
            raise InternalInconsistency(f"non-integral dimension {out} at {lam}")
        return int(out)

    def kostant_count(self, nu_alpha) -> int:
        """Number of ways to write nu as a multiset of positive roots."""
        self._check(nu_alpha)
        if any(c < 0 for c in nu_alpha):
            raise NotInPositiveCone(f"{nu_alpha} has negative coefficients")
        return self._kostant(tuple(nu_alpha), 0)

    @memoized
    def _kostant(self, nu, idx):
        if all(c == 0 for c in nu):
            return 1
        if idx == len(self._pos_alpha):
            return 0
        root = self._pos_alpha[idx]
        total = 0
        cur = nu
        while True:
            total += self._kostant(cur, idx + 1)
            nxt = tuple(c - r for c, r in zip(cur, root))
            if any(c < 0 for c in nxt):
                break
            cur = nxt
        return total

    def __repr__(self):
        return f"RootSystemB({self.n})"
