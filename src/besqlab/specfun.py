"""Log-gamma and the log of the scaled modified Bessel function of the first kind.

Every density downstream is assembled in log space, so the modified Bessel
function is needed as ``log(exp(-x) I_nu(x))``: :func:`log_ive` is its one
home.  It takes ``scipy.special.ive`` (Amos's algorithm, ACM TOMS 644, which
covers the uniform large-order regime of DLMF 10.41) wherever that value is
a normal double, the Hankel expansion (DLMF 10.40.1) past the argument cap
of Amos's routines, and the small-argument power series summed in log space
where ``ive`` underflows.  All public functions are pure, accept scalars or
arrays, and raise :class:`~besqlab.errors.DomainError` outside their
mathematical domain and :class:`~besqlab.errors.ConvergenceError` where no
branch reaches double precision.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError

_TINY = np.finfo(float).tiny
_LOG_TWO = np.log(2.0)
_LOG_EPS = np.log(np.finfo(float).eps)
# scipy's ive is NaN for every order at arguments above 2^30
_AMOS_CAP = 2.0**30
# the first term the Hankel sum leaves out is about (nu^2/x)^3/48, below
# double epsilon while nu^2 <= 2e-5 x
_HANKEL_NU2_PER_X = 2e-5
_SERIES_MAX_TERMS = 100_000


def ln_gamma(x):
    """Natural log of the Gamma function on the positive half line.

    Parameters
    ----------
    x : float or array_like
        Strictly positive argument(s).

    Returns
    -------
    float or ndarray
        ``log(Gamma(x))``, elementwise.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise DomainError("ln_gamma requires x > 0")
    out = special.gammaln(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _log_series(nu: float, x: np.ndarray) -> np.ndarray:
    # nu (log x - log 2) - log Gamma(nu+1) - x + log sum_k (x^2/4)^k / (k! (nu+1)_k).
    # log x - log 2 rather than log(x/2): the halving can underflow to zero
    # for subnormal x.  The sum is kept in log space because for large nu its
    # terms rise by many orders before they fall; the ratio of consecutive
    # terms decreases in k, so once a term is below eps of the running sum
    # every later term is too.
    log_q = 2.0 * (np.log(x) - _LOG_TWO)
    log_term = np.zeros_like(x)
    log_sum = np.zeros_like(x)
    k = 0
    while np.max(log_term - log_sum) >= _LOG_EPS:
        if k == _SERIES_MAX_TERMS:
            raise ConvergenceError(
                f"Bessel series of order {nu} at x={np.max(x):g} "
                f"needs more than {_SERIES_MAX_TERMS} terms"
            )
        k += 1
        log_term = log_term + log_q - np.log(k * (nu + k))
        log_sum = np.logaddexp(log_sum, log_term)
    return nu * (np.log(x) - _LOG_TWO) - special.gammaln(nu + 1.0) - x + log_sum


def _log_hankel(nu: float, x: np.ndarray) -> np.ndarray:
    # DLMF 10.40.1 to three terms:
    # exp(-x) I_nu(x) ~ (2 pi x)^{-1/2} (1 - a1/x + a2/x^2), with
    # a1 = (4 nu^2 - 1)/8 and a2 = (4 nu^2 - 1)(4 nu^2 - 9)/128
    if nu * nu > _HANKEL_NU2_PER_X * np.min(x):
        raise ConvergenceError(
            f"Bessel order {nu} too large for the Hankel expansion at x={np.min(x):g}"
        )
    mu = 4.0 * nu * nu
    a1 = (mu - 1.0) / 8.0
    a2 = a1 * (mu - 9.0) / 16.0
    return -0.5 * (np.log(2.0 * np.pi) + np.log(x)) + np.log1p((a2 / x - a1) / x)


def log_ive(nu: float, x):
    """Log of the scaled modified Bessel function, ``log(exp(-x) I_nu(x))``.

    Finite for every positive representable ``x`` and every order, including
    subnormal ``x`` and orders far beyond the point where ``exp(-x) I_nu(x)``
    itself underflows.

    Parameters
    ----------
    nu : float
        Order, must satisfy ``nu > -1``.
    x : float or array_like
        Nonnegative argument(s).

    Returns
    -------
    float or ndarray
        ``log(exp(-x) I_nu(x))`` elementwise.  At ``x = 0`` the value is 0
        for ``nu = 0``, ``-inf`` for ``nu > 0`` and ``inf`` for
        ``-1 < nu < 0``; at ``x = inf`` it is ``-inf``.
    """
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError("the Bessel order nu must exceed -1")
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr >= 0.0):
        raise DomainError("the Bessel argument x must be nonnegative")

    flat = np.atleast_1d(arr).ravel()
    v = special.ive(nu, flat)
    # NaN, which scipy returns for negative orders at subnormal x, must take
    # the series too, hence a test for normal values rather than for small ones
    normal = v >= _TINY
    out = np.log(v, out=np.empty_like(flat), where=normal)
    out[flat == 0.0] = 0.0 if nu == 0.0 else (-np.inf if nu > 0.0 else np.inf)
    # the limit of -log(2 pi x) / 2; scipy gives NaN there
    out[flat == np.inf] = -np.inf
    rest = ~normal & (flat > 0.0) & (flat < np.inf)
    if np.any(rest):
        # past the argument cap ive is NaN for every order: the Hankel
        # expansion; below it the series
        hankel = rest & (flat > _AMOS_CAP)
        series = rest & ~hankel
        if np.any(hankel):
            out[hankel] = _log_hankel(nu, flat[hankel])
        if np.any(series):
            out[series] = _log_series(nu, flat[series])

    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def bessel_i_scaled(nu: float, x):
    """Scaled modified Bessel function ``exp(-x) I_nu(x)`` for ``x >= 0``.

    The exponential of :func:`log_ive`.  The scaling keeps the value
    representable for arguments far beyond the overflow point of the bare
    ``I_nu``; it underflows to 0 where :func:`log_ive` is below the log of
    the smallest double.

    Parameters
    ----------
    nu : float
        Order, must satisfy ``nu > -1``.
    x : float or array_like
        Nonnegative argument(s).

    Returns
    -------
    float or ndarray
        ``exp(-x) I_nu(x)`` elementwise.  At ``x = 0`` the value is 1 for
        ``nu = 0``, 0 for ``nu > 0`` and ``inf`` for ``-1 < nu < 0``.
    """
    out = np.exp(log_ive(nu, x))
    if np.ndim(x) == 0:
        return float(out)
    return out
