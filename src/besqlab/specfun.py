"""Log-gamma and the log of the scaled modified Bessel function of the first kind.

Every density downstream is assembled in log space, so the modified Bessel
function is needed as ``log(exp(-x) I_nu(x))``: :func:`log_ive` is its one
home.  It takes the cheapest exact form the order allows:

- ``nu = +-1/2`` (BESQ dimensions 3 and 1) has the elementary closed form
  ``(1 -+ exp(-2x)) / sqrt(2 pi x)`` (DLMF 10.39.1), taken in log space so
  that it holds at every ``x >= 0``, subnormal and huge arguments included;
- ``nu = 0`` (dimension 2) takes ``scipy.special.i0e`` (Cephes), which has
  no argument cap and costs under a third of ``ive``;
- every other order takes ``scipy.special.ive`` (Amos's algorithm, ACM TOMS
  644) wherever that value is a normal double.  Elsewhere it takes the
  uniform large-order expansion (DLMF 10.41.3) at ``|nu|`` wherever
  ``x >= 1`` and ``nu`` or ``x`` is large enough for its truncation to be
  exact in double precision, past the argument cap of Amos's routines
  included, and the small-argument power series summed in log space for
  the rest, which below ``x = 1`` needs only a few terms at such orders.

All public functions are pure, accept scalars or arrays, and raise
:class:`~besqlab.errors.DomainError` outside their mathematical domain and
:class:`~besqlab.errors.ConvergenceError` where no branch reaches double
precision.

The module imports ``scipy``, not ``scipy.special``: SciPy loads that
submodule on first attribute access, here the first call that needs it.  No
path command (``simulate``, ``eigen``) ever does, and loading it was about
0.35 s of a ~0.45 s process start.  ``besq``, ``nonmarkov`` and ``stattest``
follow the same rule.
"""

from __future__ import annotations

import numpy as np
import scipy

from .errors import ConvergenceError, DomainError

_TINY = np.finfo(float).tiny
_LOG_TWO = np.log(2.0)
_LOG_TWO_PI = np.log(2.0 * np.pi)
_LOG_EPS = np.log(np.finfo(float).eps)
# the first term the uniform sum leaves out is at most 0.11 hypot(nu, x)^-4,
# below double epsilon from here on; past 2^30, where scipy's ive is NaN for
# every order, that always holds
_UNIFORM_MIN_HYPOT = 2.0**13
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
    out = scipy.special.gammaln(arr)
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
    return nu * (np.log(x) - _LOG_TWO) - scipy.special.gammaln(nu + 1.0) - x + log_sum


def _log_uniform(nu: float, x: np.ndarray) -> np.ndarray:
    # DLMF 10.41.3 at z = x/nu, for nu > 0, to the U3 term:
    # exp(-x) I_nu(nu z) ~ exp(nu (eta - z)) (2 pi nu)^{-1/2} s^{-1/2} sum U_k(p)/nu^k
    # with s = sqrt(1 + z^2), p = 1/s and eta = s + log(z / (1 + s)).  With
    # d = s - z = 1/(s + z), nu (eta - z) = nu d - nu log1p((1 + d)/z): the
    # naive log(z / (1 + s)) loses about 1e-11 at x = 1e12.  Everything is
    # taken through h = nu s = hypot(nu, x), so that z itself, which
    # overflows for a small order at the largest x, is never formed.  The
    # first term left out, U4(p)/nu^4, is at most 0.11 h^-4.
    h = np.hypot(nu, x)
    p = nu / h
    d = p / (1.0 + x / h)
    p2 = p * p
    u1 = p * (3.0 - 5.0 * p2) / 24.0
    u2 = p2 * (81.0 + p2 * (-462.0 + 385.0 * p2)) / 1152.0
    u3 = p * p2 * (30375.0 + p2 * (-369603.0 + p2 * (765765.0 - 425425.0 * p2))) / 414720.0
    return (
        nu * d
        - nu * np.log1p((1.0 + d) * (nu / x))
        - 0.5 * (_LOG_TWO_PI + np.log(h))
        + np.log1p((u1 + (u2 + u3 / nu) / nu) / nu)
    )


def _log_half_order(nu: float, x: np.ndarray) -> np.ndarray:
    # DLMF 10.39.1: exp(-x) I_{+-1/2}(x) = (1 -+ exp(-2x)) / sqrt(2 pi x), in
    # log space.  The linear form loses subnormal x, where 2 pi x rounds; the
    # logs are exact there, past any argument cap and at x = inf.
    zero = x == 0.0
    if zero.any():
        # the x = 0 limit, set below; 1.0 keeps the logs finite meanwhile
        x = np.where(zero, 1.0, x)
    # exp(-2x) is 0 long before x = 1e300; the cap keeps -2x from overflowing
    neg_two_x = np.minimum(x, 1e300)
    neg_two_x *= -2.0
    if nu > 0.0:
        head = np.log(-np.expm1(neg_two_x))
    else:
        head = np.log1p(np.exp(neg_two_x))
    out = head - 0.5 * (_LOG_TWO_PI + np.log(x))
    out[zero] = -np.inf if nu > 0.0 else np.inf
    return out


def log_ive(nu: float, x):
    """Log of the scaled modified Bessel function, ``log(exp(-x) I_nu(x))``.

    Finite for every positive representable ``x`` and every order, including
    subnormal ``x`` and orders far beyond the point where ``exp(-x) I_nu(x)``
    itself underflows.  The form is chosen by order, the cheapest exact one
    first: the closed form for ``nu = +-1/2``, ``scipy.special.i0e`` for
    ``nu = 0`` (neither needs another branch at any ``x``), and for every
    other order ``scipy.special.ive`` with the uniform and series branches
    where its value is not a normal double.

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
    if arr.size and not arr.min() >= 0.0:
        raise DomainError("the Bessel argument x must be nonnegative")
    out = _log_ive(nu, np.atleast_1d(arr).ravel())
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _log_ive(nu: float, x: np.ndarray) -> np.ndarray:
    # the body of log_ive, without its checks: nu is a float above -1 and x a
    # float array of one dimension or more, nonnegative (inf included, NaN
    # not); the result has the shape of x.  The transition density calls it
    # on the argument it has already checked
    if abs(nu) == 0.5:
        return _log_half_order(nu, x)
    v = scipy.special.i0e(x) if nu == 0.0 else scipy.special.ive(nu, x)
    # NaN (ive's value for negative orders at 0 and subnormal x, at inf
    # and past its argument cap) fails this test as underflow zeros do
    normal = v >= _TINY
    out = np.log(v, out=np.empty_like(x), where=normal)
    if not normal.all():
        out[x == 0.0] = 0.0 if nu == 0.0 else (-np.inf if nu > 0.0 else np.inf)
        # the limit of -log(2 pi x) / 2
        out[x == np.inf] = -np.inf
        rest = ~normal & (x > 0.0) & (x < np.inf)
        # the uniform expansion wherever it is exact and x >= 1, and the
        # series for the rest.  Below x = 1 the series needs a term or two at
        # any order the uniform form would take, while that form's nu / x
        # overflows at large orders near the bottom of the double range.
        # For -1 < nu < 0, I_nu = I_|nu| + (2/pi) sin(|nu| pi) K_|nu|, and
        # the K share, about exp(-2x), is below double epsilon wherever the
        # uniform form is taken for a negative order: past x = 2^30
        uniform = rest & (x >= 1.0) & (np.hypot(nu, x) >= _UNIFORM_MIN_HYPOT)
        if uniform.any():
            out[uniform] = _log_uniform(abs(nu), x[uniform])
        series = rest & ~uniform
        if series.any():
            out[series] = _log_series(nu, x[series])
    return out


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
