"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ConvergenceError(RuntimeError):
    """A numerical method exhausted its budget or has no accurate branch for its input.

    The one numeric failure (exit 3): for a kernel integral, a quadrature row
    that did not converge, on the axis the message names.
    """


class BudgetExhaustedError(RuntimeError):
    """Rejection sampling fell below the feasible acceptance-rate floor."""
