"""Small exact linear algebra over the scalar field.

One dense Gauss-Jordan routine, `rref`, serves graded-basis reduction, ranks,
Gram inversion (on [G | I]) and the parity-kernel probe; sizes stay in the
dozens, and row updates touch only the nonzero columns of the pivot row.
Over canonical scalars it never forms the large leading minors that a
fraction-free elimination of a Gram block builds, while the inverse entries
themselves stay small.  A sparse Gauss-Jordan backs the centrality solver.
"""

from __future__ import annotations

from .errors import NoSolution, NonUniqueSolution
from .scalars import ONE, ZERO, accumulate


def rref(rows):
    """Reduced row echelon form over the scalar field.

    rows: list of lists of Scalar (modified copies are returned).
    Returns (reduced_rows, pivot_columns).
    """
    mat = [list(r) for r in rows]
    pivots = []
    lead = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for r in range(lead, len(mat)):
            if not mat[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        inv = mat[lead][col].inverse()
        prow = mat[lead] = [x * inv for x in mat[lead]]
        support = [k for k, b in enumerate(prow) if not b.is_zero()]
        for r in range(len(mat)):
            c = mat[r][col]
            if r != lead and not c.is_zero():
                row = mat[r]
                for k in support:
                    row[k] = row[k] - c * prow[k]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


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


def solve_unique(equations, variables):
    """Solve a linear system expecting exactly one solution.

    equations: iterable of (coeffs: dict[var, Scalar], rhs: Scalar).
    variables: all unknowns that must be determined.
    Raises NoSolution / NonUniqueSolution accordingly.
    """
    pivots = {}
    for coeffs, rhs in equations:
        row = {v: c for v, c in coeffs.items() if not c.is_zero()}
        for v in [v for v in row if v in pivots]:
            c = row.pop(v)
            prow, prhs = pivots[v]
            for w, cw in prow.items():
                accumulate(row, w, -(c * cw))
            rhs = rhs - c * prhs
        if not row:
            if not rhs.is_zero():
                raise NoSolution("inconsistent linear system")
            continue
        pv = min(row)
        c = row.pop(pv)
        inv = c.inverse()
        row = {w: cw * inv for w, cw in row.items()}
        rhs = rhs * inv
        for v, (prow, prhs) in pivots.items():
            if pv in prow:
                c2 = prow.pop(pv)
                for w, cw in row.items():
                    accumulate(prow, w, -(c2 * cw))
                pivots[v] = (prow, prhs - c2 * rhs)
        pivots[pv] = (row, rhs)
    missing = [v for v in variables if v not in pivots]
    if missing:
        raise NonUniqueSolution(f"{len(missing)} free unknowns remain")
    # fully reduced: every pivot row only references pivot variables with
    # zero coefficient, so the right-hand sides are the values
    return {v: prhs for v, (prow, prhs) in pivots.items()}
