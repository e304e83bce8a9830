"""Exception types shared across the kernel."""


class QgcError(Exception):
    """Base class for all structured errors raised by the kernel."""


class BadArgument(QgcError, ValueError):
    """A rank, depth, bound, count, mode or exponent outside the values it
    accepts."""


class RankMismatch(QgcError, ValueError):
    pass


class IndexOutOfRange(QgcError, IndexError):
    pass


class NotDominant(QgcError, ValueError):
    pass


class NotInPositiveCone(QgcError, ValueError):
    pass


class NonIntegralSecondArgument(QgcError, ValueError):
    """The second pairing slot only exists for root-lattice exponents."""


class WrongSide(QgcError, ValueError):
    """A skew-pairing argument contains letters from the other triangular
    half, or a sign names neither half."""


class InternalInconsistency(QgcError, ArithmeticError):
    """Two constructions that must agree did not; signals an implementation bug."""


class SingularGram(QgcError, ArithmeticError):
    """A graded Gram matrix came out singular; signals an implementation bug."""


class NotInUb0(QgcError, ValueError):
    """Operand is not supported on balanced toral monomials."""


class NotInRootLattice(QgcError, ValueError):
    pass


class CentralityCheckFailed(QgcError, ArithmeticError):
    """A constructed candidate failed the adjoint-action centrality test."""


class NoSolution(QgcError, ArithmeticError):
    pass


class NonUniqueSolution(QgcError, ArithmeticError):
    pass
