"""Squared Bessel process laws: transition densities and exact transition sampling.

A squared Bessel process of dimension ``delta > 0`` solves
``dX_t = delta dt + 2 sqrt(X_t) dB_t``.  Its transition kernel is known in
closed form through the modified Bessel function of order
``nu = delta/2 - 1``; this module evaluates that kernel in log space in four
regimes (interior, started at zero, weighted zero-target limit, far field)
and samples transitions exactly through the Poisson-Gamma mixture
representation of the noncentral chi-square law.

Paths are sampled on an observation grid checked by :func:`time_grid`, the
one grid check of the package.  :func:`sample_path` is the one grid loop: a
scalar start gives one path, ``values`` of shape ``(T,)``, and a start of
shape ``(n,)`` gives ``n`` independent paths, ``values`` of shape ``(n, T)``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfun
from .errors import DomainError

_DOUBLE_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class BesqParams:
    """Dimension parameter of a squared Bessel process."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise DomainError("delta must be positive and finite")

    @property
    def nu(self) -> float:
        """Bessel index delta/2 - 1; lies in (-1, inf)."""
        return 0.5 * self.delta - 1.0


def time_grid(times) -> tuple[np.ndarray, np.ndarray]:
    """Check an observation grid and return it with its step lengths.

    The grid must be 1-D, finite, strictly increasing and positive; the first
    step runs from time 0.  An empty grid passes, with no steps.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a 1-D grid")
    # the steps of np.diff(times, prepend=0.0), without its per-call overhead
    steps = times.copy()
    steps[1:] -= times[:-1]
    if not (np.isfinite(times).all() and (steps > 0.0).all()):
        raise DomainError("times must be finite, strictly increasing and positive")
    return times, steps


@dataclass
class PathSample:
    """Paths observed on a :func:`time_grid`: ``values`` of shape ``(T,)`` or ``(n, T)``."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times, _ = time_grid(self.times)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.times.size:
            raise DomainError("values must have shape (T,) or (n, T) for T times")


def _validate_t(t: float) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError("time step must be positive and finite")
    return t


def log_zero_start(p: BesqParams, t: float, y, weighted: bool = False):
    """Log of the started-at-zero kernel ``p_t(0, y)``, a Gamma density.

    ``p_t(0, y) = y^{nu} exp(-y/(2t)) / ((2t)^{delta/2} Gamma(delta/2))``, the
    law of shape ``delta/2`` and scale ``2t``.  With ``weighted`` the power
    ``y^{nu}`` is divided out, which leaves the log of
    :func:`weighted_zero_limit` at the start ``y``.  No checks: callers pass
    a valid ``t`` and ``y`` (positive unless ``weighted``).
    """
    head = 0.0 if weighted else p.nu * np.log(y)
    return (
        head
        - 0.5 * p.delta * np.log(2.0 * t)
        - special.gammaln(0.5 * p.delta)
        - y / (2.0 * t)
    )


def log_transition_density(p: BesqParams, t: float, x, y):
    """Log of the transition density of a BESQ(delta) over time ``t``.

    For ``x > 0`` the kernel is

        (1/(2t)) (y/x)^{nu/2} exp(-(x+y)/(2t)) I_nu(sqrt(xy)/t),

    assembled here as ``-(sqrt x - sqrt y)^2 / (2t)`` plus
    :func:`~besqlab.specfun.log_ive`, the log of the scaled Bessel function,
    which keeps the exponential terms from overflowing and the Bessel factor
    from underflowing for any representable ``x, y`` and any dimension.  At
    the paper's dimensions 1, 2 and 3 (``nu = -1/2, 0, 1/2``) that factor is
    a closed form or Cephes's ``i0e``, not Amos's ``ive``.  At ``x = 0``, or
    where ``sqrt(xy)/t`` underflows to 0, the kernel is the Gamma density of
    :func:`log_zero_start`.

    ``x`` and ``y`` broadcast; ``y`` must be strictly positive.  The formula
    runs on the operands as given, so a ``(rows, 1)`` by ``(cols,)`` grid
    takes its logs and square roots once per row and once per column.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.size and not np.all(x_arr >= 0.0):
        raise DomainError("x must be nonnegative")
    if y_arr.size and not np.all(y_arr > 0.0):
        raise DomainError("y must be strictly positive")

    sx = np.sqrt(x_arr)
    sy = np.sqrt(y_arr)
    z = sx * sy
    # where a tiny step t makes sqrt(x) sqrt(y) / t overflow, z = 1 holds the
    # place of the Bessel factor's large-argument form, taken from log z below
    over = z > t * _DOUBLE_MAX
    any_over = bool(over.any())
    z = (np.where(over, t, z) if any_over else z) / t
    # x so small that sqrt(x) sqrt(y) / t underflows is indistinguishable, at
    # working precision, from a start at zero; routing it through the Bessel
    # factorization would send a spurious infinity through the logs instead
    at_zero = z == 0.0
    n_zero = np.count_nonzero(at_zero)
    if n_zero == at_zero.size:
        out = log_zero_start(p, t, np.broadcast_to(y_arr, z.shape))
    else:
        # a placeholder start keeps log(x) finite at x = 0; the formula's
        # value there is replaced below
        start = np.where(x_arr == 0.0, 1.0, x_arr)
        log_bessel = specfun.log_ive(p.nu, z)
        if any_over:
            # the leading Hankel term -log(2 pi z) / 2 at the finite log z
            log_z = np.log(sx) + np.log(sy) - math.log(t)
            log_bessel = np.where(over, -0.5 * (math.log(2.0 * math.pi) + log_z), log_bessel)
        # (sqrt x - sqrt y)^2 <= max(x, y), so the quotient overflows, to its
        # right limit -inf, only at a step t < 1/2
        with np.errstate(over="ignore") if t < 0.5 else contextlib.nullcontext():
            out = (
                -np.log(2.0 * t)
                + 0.5 * p.nu * (np.log(y_arr) - np.log(start))
                - (sx - sy) ** 2 / (2.0 * t)
                + log_bessel
            )
        if n_zero:
            out[at_zero] = log_zero_start(p, t, np.broadcast_to(y_arr, z.shape)[at_zero])
    # scalar operands give a 0-d result, returned as a Python float
    return float(out) if np.ndim(out) == 0 else out


def transition_density(p: BesqParams, t: float, x, y):
    """Transition density ``p_t(x, y)``; exp of :func:`log_transition_density`."""
    return np.exp(log_transition_density(p, t, x, y))


def weighted_zero_limit(p: BesqParams, t: float, x):
    """Limit of ``p_t(x, y) / y^{delta/2 - 1}`` as the target ``y`` drops to 0.

    Equals ``(2t)^{-delta/2} exp(-x/(2t)) / Gamma(delta/2)``, the exp of
    :func:`log_zero_start` with ``weighted``; this is the natural weight for
    conditioning a BESQ bridge to approach the origin.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.size and not np.all(x_arr >= 0.0):
        raise DomainError("x must be nonnegative")
    out = np.exp(log_zero_start(p, t, x_arr, weighted=True))
    if np.ndim(x) == 0:
        return float(out)
    return out


def far_field_density(p: BesqParams, t: float, x, y):
    """Leading large-argument form of the transition density.

    Replaces the Bessel factor by its first asymptotic term:

        (2t)^{-1} (2 pi)^{-1/2} t^{1/2} y^{(delta-3)/4} x^{-(delta-1)/4}
            exp(-(sqrt x - sqrt y)^2 / (2t)).

    Accurate when ``sqrt(xy)/t`` is large; both arguments must be positive.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.size and not np.all(x_arr > 0.0):
        raise DomainError("far_field_density requires x > 0")
    if y_arr.size and not np.all(y_arr > 0.0):
        raise DomainError("far_field_density requires y > 0")
    sx = np.sqrt(x_arr)
    sy = np.sqrt(y_arr)
    log_val = (
        -np.log(2.0 * t)
        - 0.5 * np.log(2.0 * np.pi / t)
        + 0.25 * (p.delta - 3.0) * np.log(y_arr)
        - 0.25 * (p.delta - 1.0) * np.log(x_arr)
        - (sx - sy) ** 2 / (2.0 * t)
    )
    out = np.exp(log_val)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


# numpy's Poisson sampler refuses means above about 9.2e18; the cap a
# decade lower leaves room for a path's growth from its start
_POISSON_MEAN_MAX = 1e18


def _check_starts(x: np.ndarray, step: float, name: str) -> None:
    # starts are checked once, against the shortest step, so that the grid
    # loop in sample_path carries no per-step check
    if not np.all(x >= 0.0):
        raise DomainError(f"{name} must be nonnegative")
    if not np.max(x, initial=0.0) < _POISSON_MEAN_MAX * 2.0 * step:
        raise DomainError(
            f"{name} must be finite, with {name} / (2 step) below {_POISSON_MEAN_MAX:g}"
        )


def _step(rng: np.random.Generator, delta: float, t: float, x: np.ndarray) -> np.ndarray:
    # X_t | X_0 = x is 2t * W with W noncentral chi-square: Poisson-mixed Gamma.
    n = rng.poisson(x / (2.0 * t))
    return rng.gamma(0.5 * delta + n, 2.0 * t)


def sample_transitions(rng: np.random.Generator, p: BesqParams, t: float, x) -> np.ndarray:
    """Vectorized exact transitions: one draw per entry of ``x``."""
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    _check_starts(x_arr, t, "x")
    return _step(rng, p.delta, t, x_arr)


def sample_path(
    rng: np.random.Generator, p: BesqParams, x0, times
) -> PathSample:
    """Sample BESQ paths exactly on a :func:`time_grid`.

    A scalar ``x0`` gives one path, ``values`` of shape ``(T,)``; an ``x0``
    of shape ``(n,)`` gives one independent path per start, ``values`` of
    shape ``(n, T)``.
    """
    times, steps = time_grid(times)
    starts = np.asarray(x0, dtype=float)
    if starts.ndim > 1:
        raise DomainError("x0 must be a scalar or a 1-D array of starts")
    _check_starts(starts, steps.min(initial=np.inf), "x0")
    values = np.empty(starts.shape + times.shape)
    # one path steps as a Python float, which takes numpy's scalar draws
    current = starts if starts.ndim else float(starts)
    for i, t in enumerate(steps.tolist()):
        current = _step(rng, p.delta, t, current)
        values[..., i] = current
    return PathSample(times, values)


def bessel_path(
    rng: np.random.Generator, p: BesqParams, xi0, times
) -> PathSample:
    """Sample Bessel paths: square roots of BESQ paths started at ``xi0**2``.

    ``xi0`` broadcasts like the start of :func:`sample_path`.
    """
    xi0 = np.asarray(xi0, dtype=float)
    if not np.all(xi0 >= 0.0):
        raise DomainError("xi0 must be nonnegative")
    squared = sample_path(rng, p, xi0 * xi0, times)
    return PathSample(squared.times, np.sqrt(squared.values))
