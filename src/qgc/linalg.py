"""Small exact linear algebra over the scalar field.

One sparse Gauss-Jordan elimination, `Echelon`, serves graded-basis
reduction, ranks, Gram inversion (on [G | I]) and the parity-kernel probe
through `rref`, the centrality solver and the irreducible quotients; row
updates touch only nonzero entries.  Over canonical scalars it never forms
the large leading minors that a fraction-free elimination of a Gram block
builds, while the inverse entries themselves stay small.  The solver feeds
its equations sparsest first, so the many redundant dense rows of the
centrality system reduce against short pivot rows.
"""

from __future__ import annotations

from .errors import NoSolution, NonUniqueSolution
from .scalars import ONE, ZERO, accumulate


class Echelon:
    """Sparse rows in fully reduced row echelon form.

    Columns are any mutually comparable keys.  ``rows`` maps each pivot
    column to its row without the (unit) pivot entry; no row has an entry in
    any pivot column, and every entry of a row lies right of its pivot.
    """

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        """A new row: ``row`` with the current pivots eliminated."""
        rows = self.rows
        out = {k: c for k, c in row.items() if k not in rows and not c.is_zero()}
        for p, c in row.items():
            if p in rows and not c.is_zero():
                for k, cp in rows[p].items():
                    accumulate(out, k, -(c * cp))
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


def solve_unique(equations, variables):
    """Solve a linear system expecting exactly one solution.

    equations: iterable of (coeffs: dict[var, Scalar], rhs: Scalar), fed
    to the elimination in a stable order of fewest coefficients first.
    variables: all unknowns that must be determined.
    Raises NoSolution / NonUniqueSolution accordingly.
    """
    ech = Echelon()
    for coeffs, rhs in sorted(equations, key=lambda eq: len(eq[0])):
        if ech.add({**coeffs, _RHS: rhs}) is _RHS:
            raise NoSolution("inconsistent linear system")
    missing = [v for v in variables if v not in ech.rows]
    if missing:
        raise NonUniqueSolution(f"{len(missing)} free unknowns remain")
    # each listed unknown is a pivot, and its row's right-hand side its value
    return {v: row.get(_RHS, ZERO) for v, row in ech.rows.items()}
