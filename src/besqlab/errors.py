"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ConvergenceError(RuntimeError):
    """A numerical method exhausted its budget or has no accurate branch for its input."""


class UnreliableRatioError(ArithmeticError):
    """A density ratio whose denominator is too small to divide through."""


class BudgetExhaustedError(RuntimeError):
    """Rejection sampling fell below the feasible acceptance-rate floor."""
