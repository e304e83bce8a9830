"""Small exact linear algebra over the scalar field.

One sparse Gauss-Jordan elimination, `Echelon`, serves the relations of
the graded bases (fed as sparse rows), ranks, Gram inversion (on [G | I])
and the parity-kernel probe through `rref`, the centrality solver and the
irreducible quotients; row updates touch only nonzero entries.  Over
canonical scalars it never forms the large leading minors that a
fraction-free elimination of a Gram block builds, while the inverse entries
themselves stay small.  A row reduction sums the products it subtracts
through ``scalars.add_product`` and canonicalizes once per column and
denominator (``scalars.settle_into``), so the gcd work follows the small
final entries rather than every partial sum.  The solver feeds its
equations in batches, each sparsest first, and stops once every unknown
is a pivot.  After each batch, an unknown whose row holds only its value
is settled: later rows still reduce against it, but no new pivot is
cleared from its row, so a batch's elimination probes only the rows still
open.
"""

from __future__ import annotations

from .errors import NoSolution, NonUniqueSolution
from .scalars import ONE, ZERO, add_product, add_scaled, settle_into


class Echelon:
    """Sparse rows in fully reduced row echelon form.

    Columns are any mutually comparable keys.  ``rows`` maps each pivot
    column to its row without the (unit) pivot entry; no row has an entry in
    any pivot column, and every entry of a row lies right of its pivot.
    """

    def __init__(self):
        self.rows = {}
        self._open = {}  # the rows that a new pivot is cleared from

    def reduce(self, row):
        """A new row: ``row`` with the current pivots eliminated.

        Each product -c * cp of a row entry and a pivot-row entry, with c
        negated once per pivot row, goes into one ``add_product``
        accumulator per column, and ``settle_into`` adds each column's sums
        to the row's own entry, canonicalizing once per column and
        denominator.  Reduced echelon form and canonical form are both
        unique, so the row is the one that adding the products one at a time
        gives.
        """
        rows = self.rows
        out = {}
        sums = {}
        for p, c in row.items():
            if c.is_zero():
                continue
            prow = rows.get(p)
            if prow is None:
                out[p] = c
                continue
            c = -c
            for k, cp in prow.items():
                add_product(sums, k, c, cp)
        return settle_into(sums, out)

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
        for other in self._open.values():
            c = other.pop(pivot, None)
            if c is not None:
                add_scaled(other, row, -c)
        self.rows[pivot] = self._open[pivot] = row
        return pivot

    def settle(self, done):
        """Stop clearing new pivots from the rows of the pivots for which
        ``done(row)`` holds: the caller knows no later pivot enters them.
        They still reduce the rows that come after."""
        for p in [p for p, row in self._open.items() if done(row)]:
            del self._open[p]


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
    anywhere in it raises, and then the unknowns it solved are settled
    (``Echelon.settle``).  None is pulled once every unknown is a pivot:
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
        # an unknown whose row holds only its value is settled: a later
        # pivot is another unknown, or the right-hand side of a bad row,
        # after which the rows are never read
        ech.settle(lambda row: row.keys() <= {_RHS})
        missing = [v for v in missing if v not in ech.rows]
        if not missing:
            break
    if missing:
        raise NonUniqueSolution(f"{len(missing)} free unknowns remain")
    # each listed unknown is a pivot, and its row's right-hand side its value
    return {v: row.get(_RHS, ZERO) for v, row in ech.rows.items()}
