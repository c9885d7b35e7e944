"""Numerical laboratory for squared Bessel laws and 2x2 Dyson-type eigenvalue processes.

Modules
-------
specfun
    Log-gamma and the log of the scaled modified Bessel function (scipy-backed).
quadrature
    Tanh-sinh quadrature with endpoint-singularity support and nesting.
besq
    Squared Bessel transition densities and exact transition sampling.
dyson
    The 2x2 matrix eigenvalue process: closed-form eigenvalues and the SDE form.
nonmarkov
    Joint-law integrals and asymptotics behind the Markov-property dichotomy.
stattest
    Monte Carlo conditional-law comparisons and the running-maximum analogue.
cli
    Command line front end.

Importing the package imports every submodule but not ``scipy.special``,
which loads on first use: the path commands (``simulate``, ``eigen``) never
need it, and it was about 0.35 s of a ~0.45 s start.
"""

__version__ = "0.1.0"

from . import besq, cli, dyson, nonmarkov, quadrature, specfun, stattest
from .errors import (
    BudgetExhaustedError,
    ConvergenceError,
    DomainError,
    UnreliableRatioError,
)

__all__ = [
    "__version__",
    "besq",
    "cli",
    "dyson",
    "nonmarkov",
    "quadrature",
    "specfun",
    "stattest",
    "BudgetExhaustedError",
    "ConvergenceError",
    "DomainError",
    "UnreliableRatioError",
]
