"""Small exact linear algebra over the scalar field.

One sparse Gauss-Jordan elimination, `Echelon`, serves the relations of
the graded bases (fed as sparse rows), ranks, Gram inversion (on [G | I])
and the parity-kernel probe through `rref`, the centrality solver and the
irreducible quotients; row updates touch only nonzero entries.  Over
canonical scalars it never forms the large leading minors that a
fraction-free elimination of a Gram block builds, while the inverse entries
themselves stay small.  A row reduction canonicalizes once per column and
denominator: the products it subtracts are summed as raw numerators over
their (already canonical) product denominators, so the gcd work follows the
small final entries rather than every partial sum.  The solver feeds its
equations in batches, each sparsest first, and stops once every unknown
is a pivot.
"""

from __future__ import annotations

from .errors import NoSolution, NonUniqueSolution
from .scalars import ONE, ZERO, Scalar, _times, accumulate


class Echelon:
    """Sparse rows in fully reduced row echelon form.

    Columns are any mutually comparable keys.  ``rows`` maps each pivot
    column to its row without the (unit) pivot entry; no row has an entry in
    any pivot column, and every entry of a row lies right of its pivot.
    """

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        """A new row: ``row`` with the current pivots eliminated.

        Each product c * cp of a row entry and a pivot-row entry is kept as
        its raw numerator over the product of the two canonical denominators,
        which is canonical itself.  The numerators are summed per (column,
        denominator), with the row's own entry joining the sum of its
        denominator; each sum is canonicalized once (over 1 with no gcd),
        and a column adds its few sums.  Reduced echelon form and canonical
        form are both unique, so the row is the one that adding the products
        one at a time gives.
        """
        rows = self.rows
        out = {}
        sums = {}  # column -> {denominator: summed numerator}
        for p, c in row.items():
            if c.is_zero():
                continue
            prow = rows.get(p)
            if prow is None:
                out[p] = c
                continue
            for k, cp in prow.items():
                col = sums.get(k)
                if col is None:
                    col = sums[k] = {}
                den = _times(c.den, cp.den)
                num = _times(c.num, cp.num)
                acc = col.get(den)
                col[den] = num if acc is None else acc + num
        for k, col in sums.items():
            total = out.get(k, ZERO)
            if total.den in col:  # fold the row's own entry into its bucket
                col[total.den] = col[total.den] - total.num
                total = ZERO
            for den, num in col.items():
                if not num.is_zero():
                    total = total + (Scalar.from_laurent(-num) if den.is_one()
                                     else Scalar(-num, den))
            if not total.is_zero():
                out[k] = total
            elif k in out:
                del out[k]
        return out

    def add(self, row):
        """Add ``row`` to the span; its new pivot, or None if it reduces to 0.

        The pivot is the least column of the reduced row, scaled to one and
        cleared from every other row.
        """
        row = self.reduce(row)
        if not row:
            return None
        pivot = min(row)
        inv = row.pop(pivot).inverse()
        row = {k: c * inv for k, c in row.items()}
        for other in self.rows.values():
            c = other.pop(pivot, None)
            if c is not None:
                for k, ck in row.items():
                    accumulate(other, k, -(c * ck))
        self.rows[pivot] = row
        return pivot


def rref(rows):
    """Reduced row echelon form over the scalar field.

    rows: list of lists of Scalar (modified copies are returned).
    Returns (reduced_rows, pivot_columns).
    """
    ech = Echelon()
    for row in rows:
        ech.add(dict(enumerate(row)))
    ncols = len(rows[0]) if rows else 0
    pivots = sorted(ech.rows)
    return [[ONE if k == p else ech.rows[p].get(k, ZERO) for k in range(ncols)]
            for p in pivots], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def invert(mat):
    """Inverse of a square Scalar matrix by Gauss-Jordan on [mat | I].

    Raises ArithmeticError when the matrix is singular.
    """
    d = len(mat)
    aug = [list(row) + [ONE if c == i else ZERO for c in range(d)]
           for i, row in enumerate(mat)]
    reduced, pivots = rref(aug)
    if pivots[:d] != list(range(d)):
        raise ArithmeticError("singular matrix")
    return [row[d:] for row in reduced]


class _Last:
    """A column key that sorts after every other key."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_RHS = _Last()


def solve_unique(batches, variables):
    """Solve a linear system expecting exactly one solution.

    batches: iterable of lists of (coeffs: dict[var, Scalar], rhs: Scalar).
    Each batch is fed in full, fewest coefficients first, so a bad row
    anywhere in it raises.  None is pulled once every unknown is a pivot:
    the caller checks the unused rows itself.
    variables: all unknowns that must be determined.
    Raises NoSolution / NonUniqueSolution accordingly.
    """
    ech = Echelon()
    missing = list(variables)
    for batch in batches:
        for coeffs, rhs in sorted(batch, key=lambda eq: len(eq[0])):
            if ech.add({**coeffs, _RHS: rhs}) is _RHS:
                raise NoSolution("inconsistent linear system")
        missing = [v for v in missing if v not in ech.rows]
        if not missing:
            break
    if missing:
        raise NonUniqueSolution(f"{len(missing)} free unknowns remain")
    # each listed unknown is a pivot, and its row's right-hand side its value
    return {v: row.get(_RHS, ZERO) for v, row in ech.rows.items()}
