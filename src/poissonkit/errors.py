"""Exception hierarchy shared by all poissonkit modules.

The CLI maps these onto process exit codes: parse problems exit 2,
violated mathematical preconditions exit 3, exhausted resource budgets
exit 4.
"""

from __future__ import annotations


class ChartMismatchError(ValueError):
    """Operands live on different coordinate charts."""


class ParseError(ValueError):
    """Syntax error in a polynomial expression or structure file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None and column is not None:
            where = f" (line {line}, column {column})"
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)


class UnknownIdentifierError(ParseError):
    """An identifier in an expression is not a variable of the chart."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


class JacobiFailure(PreconditionError):
    """A candidate bivector is not Poisson; carries the nonzero jacobiator."""

    def __init__(self, trivector):
        self.trivector = trivector
        super().__init__(f"bivector fails the Jacobi identity: [pi,pi] = {trivector}")


class DegenerateEverywhereError(PreconditionError):
    """The top wedge power vanishes identically: no open dense symplectic leaf."""


class NonReducedCurveError(PreconditionError):
    """The degeneracy curve is non-reduced, so a log-symplectic hypothesis fails."""


class BudgetExceededError(RuntimeError):
    """A configured resource cap was hit; results were not silently truncated."""


class BasisSizeExceededError(BudgetExceededError):
    """A graded basis grew past the configured size cap."""
