"""Log-gamma and the log of the scaled modified Bessel function of the first kind.

Every density downstream is assembled in log space, so the modified Bessel
function is needed as ``log(exp(-x) I_nu(x))``: :func:`log_ive` is its one
home.  It takes ``scipy.special.ive`` (Amos's algorithm, ACM TOMS 644, which
covers the uniform large-order regime of DLMF 10.41) wherever that value is
a normal double, and the small-argument power series summed in log space
where ``ive`` underflows or gives up.  All public functions are pure, accept
scalars or arrays, and raise :class:`~besqlab.errors.DomainError` outside
their mathematical domain.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError

_TINY = np.finfo(float).tiny
_LOG_TWO = np.log(2.0)
_LOG_EPS = np.log(np.finfo(float).eps)


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
        k += 1
        log_term = log_term + log_q - np.log(k * (nu + k))
        log_sum = np.logaddexp(log_sum, log_term)
    return nu * (np.log(x) - _LOG_TWO) - special.gammaln(nu + 1.0) - x + log_sum


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
    series = ~normal & (flat > 0.0) & (flat < np.inf)
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
