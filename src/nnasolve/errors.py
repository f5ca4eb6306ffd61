"""Typed exceptions raised across the library.

Every error subclasses :class:`NnaSolveError`; most also subclass the closest
builtin (ValueError / IndexError) so generic handlers keep working.
"""


class NnaSolveError(Exception):
    """Base class for all nnasolve errors."""


class DimensionMismatch(NnaSolveError, ValueError):
    """Operands have incompatible shapes."""


class IndexOutOfRange(NnaSolveError, IndexError):
    """A row or column index falls outside the matrix dimensions."""


class NonFiniteValue(NnaSolveError, ValueError):
    """NaN or infinity where finite data is required."""


class NegativeInput(NnaSolveError, ValueError):
    """Negative entries where a nonnegative vector is required."""


class InfiniteDivergence(NnaSolveError, ValueError):
    """A finite divergence value is required."""


class ZeroColumn(NnaSolveError, ValueError):
    """A matrix column sums to zero and cannot be rescaled."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has zero sum")


class NonPositiveRhs(NnaSolveError, ValueError):
    """The right-hand side has a nonpositive entry where positivity is required."""

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        msg = f"right-hand side entry {row} is not positive"
        super().__init__(msg + (f": {detail}" if detail else ""))


class NegativeEntry(NnaSolveError, ValueError):
    """A matrix entry is negative where a nonnegative matrix is required."""


class UnshiftableRow(NnaSolveError, ValueError):
    """No positivity shift exists: a row of A sums to zero while b is nonpositive there."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row}: (A 1)_i = 0 with b_i <= 0, no shift t can make b_t positive")


class ZeroDenominator(NnaSolveError, ValueError):
    """A ratio b_i / (A x)_i hits a zero denominator with a positive numerator."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} of the iteration matrix is zero while b is positive there")


class SingularMatrix(NnaSolveError, ValueError):
    """The matrix is numerically singular."""


class TooLargeForDense(NnaSolveError, ValueError):
    """The matrix exceeds the configured dense-oracle size limit."""


class ZeroDiagonal(NnaSolveError, ValueError):
    """A diagonal entry needed by a stationary method is zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"diagonal entry {index} is zero")


class NotSymmetric(NnaSolveError, ValueError):
    """The solver requires a symmetric matrix."""


class NotSquare(NnaSolveError, ValueError):
    """The operation requires a square matrix."""


class IndefiniteBreakdown(NnaSolveError, ArithmeticError):
    """Conjugate-gradient breakdown: p^T A p <= 0 signals a non-SPD operator."""


class ParseError(NnaSolveError, ValueError):
    """Malformed input file."""

    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class UnsupportedFormat(NnaSolveError, ValueError):
    """The file declares a format variant outside the supported subset."""


class TooManyNonzeros(NnaSolveError, ValueError):
    """Requested more off-diagonal nonzeros than positions available."""
