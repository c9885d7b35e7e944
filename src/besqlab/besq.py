"""Squared Bessel process laws: transition densities and exact transition sampling.

A squared Bessel process of dimension ``delta > 0`` solves
``dX_t = delta dt + 2 sqrt(X_t) dB_t``.  Its transition kernel is known in
closed form through the modified Bessel function of order
``nu = delta/2 - 1``; this module evaluates that kernel in log space in three
regimes (interior, started at zero, weighted zero-target limit) and samples
transitions exactly from the noncentral chi-square law, in one of two forms.
For ``delta >= 1`` it is the Gaussian split: a BESQ(delta) is a BESQ(1), a
squared Brownian motion, plus an independent BESQ(delta - 1) from zero
(Shiga & Watanabe 1973; Revuz & Yor, ch. XI), so no draw depends on the
state.  Below dimension 1 it is the Poisson mixture of Gammas.  Both forms
refuse the same range, set out at :func:`sample_transitions` and
:func:`sample_path`.

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
import scipy

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
    if t < 0.5:
        # y <= the largest double, so the quotient overflows, to its right
        # limit -inf, only at a step t < 1/2
        with np.errstate(over="ignore"):
            quotient = y / (2.0 * t)
    else:
        quotient = y / (2.0 * t)
    return head - 0.5 * p.delta * np.log(2.0 * t) - scipy.special.gammaln(0.5 * p.delta) - quotient


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

    ``x`` and ``y`` broadcast; they must be finite, ``x`` nonnegative and
    ``y`` strictly positive, or :class:`~besqlab.errors.DomainError` is
    raised (an infinite ``x`` or ``y`` has no density to give, and NaN is
    refused as well).  The formula runs on the operands as given, so a
    ``(rows, 1)`` by ``(cols,)`` grid takes its logs and square roots once
    per row and once per column.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    # the range of each operand checks it (NaN fails every comparison) and
    # bounds the Bessel argument sqrt(x) sqrt(y) / t, so that its overflow
    # and zero masks are built only where the bounds say they can be needed;
    # an empty operand leaves an empty grid, which takes the zero-start form
    x_lo = x_hi = y_lo = y_hi = 0.0
    if x_arr.size:
        x_lo, x_hi = x_arr.min(), x_arr.max()
        if not 0.0 <= x_lo <= x_hi < math.inf:
            raise DomainError("x must be nonnegative and finite")
    if y_arr.size:
        y_lo, y_hi = y_arr.min(), y_arr.max()
        if not 0.0 < y_lo <= y_hi < math.inf:
            raise DomainError("y must be strictly positive and finite")
    scalar = x_arr.ndim == y_arr.ndim == 0
    if scalar:
        # the Bessel body takes arrays of one dimension or more
        y_arr = y_arr.reshape(1)

    sx = np.sqrt(x_arr)
    sy = np.sqrt(y_arr)
    z = sx * sy
    # where a tiny step t makes sqrt(x) sqrt(y) / t overflow, z = 1 holds the
    # place of the Bessel factor's large-argument form, taken from log z below
    any_over = False
    if math.sqrt(x_hi) * math.sqrt(y_hi) > t * _DOUBLE_MAX:
        over = z > t * _DOUBLE_MAX
        any_over = bool(over.any())
    z = (np.where(over, t, z) if any_over else z) / t
    # x so small that sqrt(x) sqrt(y) / t underflows is indistinguishable, at
    # working precision, from a start at zero; routing it through the Bessel
    # factorization would send a spurious infinity through the logs instead.
    # Rounding is monotone, so no entry of z is below the bound taken here
    n_zero = 0
    if math.sqrt(x_lo) * math.sqrt(y_lo) / t == 0.0:
        at_zero = z == 0.0
        n_zero = np.count_nonzero(at_zero)
    if n_zero == z.size:
        out = log_zero_start(p, t, np.broadcast_to(y_arr, z.shape))
    else:
        # a placeholder start keeps log(x) finite at x = 0; the formula's
        # value there is replaced below
        start = np.where(x_arr == 0.0, 1.0, x_arr) if x_lo == 0.0 else x_arr
        log_bessel = specfun._log_ive(p.nu, z)
        if any_over:
            # the leading Hankel term -log(2 pi z) / 2 at the finite log z
            # (the placeholder start keeps the log finite at x = 0, where z
            # is 0 and so off the overflow mask)
            log_z = np.log(np.sqrt(start)) + np.log(sy) - math.log(t)
            log_bessel = np.where(over, -0.5 * (math.log(2.0 * math.pi) + log_z), log_bessel)
        # (sqrt x - sqrt y)^2 <= max(x, y), so the quotient overflows, to its
        # right limit -inf, only at a step t < 1/2; at an x = 0 entry below
        # dimension 2 it meets a Bessel term of +inf, and the NaN sum is
        # replaced below, while every other entry's Bessel term is finite
        with (
            np.errstate(over="ignore", invalid="ignore") if t < 0.5 else contextlib.nullcontext()
        ):
            out = (
                -np.log(2.0 * t)
                + 0.5 * p.nu * (np.log(y_arr) - np.log(start))
                - (sx - sy) ** 2 / (2.0 * t)
                + log_bessel
            )
        if n_zero:
            out[at_zero] = log_zero_start(p, t, np.broadcast_to(y_arr, z.shape)[at_zero])
    return float(out[0]) if scalar else out


def transition_density(p: BesqParams, t: float, x, y):
    """Transition density ``p_t(x, y)``; exp of :func:`log_transition_density`,
    and inf, without a warning, where that log is past the double range."""
    log_p = log_transition_density(p, t, x, y)
    with np.errstate(over="ignore"):
        return np.exp(log_p)


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
    log_w = log_zero_start(p, t, x_arr, weighted=True)
    with np.errstate(over="ignore"):  # a tiny t overflows (2t)^{-delta/2} to inf
        out = np.exp(log_w)
    if np.ndim(x) == 0:
        return float(out)
    return out


# numpy's Poisson sampler refuses means above 2**63 less ten of its square
# roots, about 9.2e18; starts are held a decade lower, which leaves room for
# a path's growth from its start
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_POISSON_MEAN_MAX = 1e18


def _check_starts(x: np.ndarray, shortest: float, longest: float, name: str) -> None:
    # starts and steps are checked once, before any draw, so that the grid
    # loops in sample_path carry no per-step check.  Both exact forms keep
    # the range of the Poisson-Gamma one: a start below _POISSON_MEAN_MAX
    # times 2 step at the shortest step (the quotient cannot overflow where
    # the product with a huge step would), and a Gamma scale 2 step that is
    # finite at the longest
    if not np.all(x >= 0.0):
        raise DomainError(f"{name} must be nonnegative")
    if not 0.5 * np.max(x, initial=0.0) / _POISSON_MEAN_MAX < shortest:
        raise DomainError(
            f"{name} must be finite, with {name} / (2 step) below {_POISSON_MEAN_MAX:g}"
        )
    if not longest <= 0.5 * _DOUBLE_MAX:
        raise DomainError("a step above half the largest double is past the sampler's range")


def _check_draws(values) -> None:
    # a draw at a dimension or step near the float limit overflows to inf
    # without a warning; at any step of a path but the last, the next step's
    # Poisson cap refuses it, so only the last value needs this check
    if not np.isfinite(values).all():
        raise DomainError("path grew past the sampler's range (a draw overflowed)")


def sample_transitions(rng: np.random.Generator, p: BesqParams, t: float, x) -> np.ndarray:
    """Vectorized exact transitions over a step ``t``: one draw per entry of ``x``.

    ``X_t | X_0 = x`` is ``t`` times a noncentral chi-square of ``delta``
    degrees of freedom and noncentrality ``x / t``, drawn in one of two exact
    forms.  For ``delta >= 1`` it is the Gaussian split ``(sqrt x + sqrt t
    Z)^2 + t G``, with ``Z`` standard normal and ``G`` chi-square of ``delta
    - 1`` degrees of freedom (absent at ``delta = 1``): a BESQ(1) plus an
    independent BESQ(delta - 1) from zero (Shiga-Watanabe additivity).
    Below 1 it is the Poisson mixture of Gammas: ``N`` Poisson of mean ``x /
    (2t)``, then a Gamma of shape ``delta/2 + N`` and scale ``2t``.

    Both forms refuse, with :class:`~besqlab.errors.DomainError`, a start
    with ``x / (2t)`` not below 1e18, a step with ``2t`` past the largest
    double, and a draw that overflows.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    _check_starts(x_arr, t, t, "x")
    if p.delta >= 1.0:
        with np.errstate(over="ignore"):
            out = np.square(np.sqrt(x_arr) + math.sqrt(t) * rng.standard_normal(x_arr.shape))
            if p.delta > 1.0:
                out += t * rng.chisquare(p.delta - 1.0, x_arr.shape)
    else:
        out = rng.gamma(0.5 * p.delta + rng.poisson(x_arr / (2.0 * t)), 2.0 * t)
    _check_draws(out)
    return out


def _split_path(rng: np.random.Generator, p: BesqParams, starts: np.ndarray, steps: np.ndarray):
    # the Gaussian split of sample_transitions on the root r = sqrt(X):
    # r_k = hypot(r_{k-1} + sqrt(h_k) Z_k, sqrt(h_k G_k)), with every step's
    # Z drawn in one call and every step's G in one more; at delta = 1 there
    # is no G, and hypot(u, 0) is |u| exactly.  Rows are steps
    shape = steps.shape + starts.shape
    column = steps.reshape(steps.shape + (1,) * starts.ndim)
    kicks = np.sqrt(column) * rng.standard_normal(shape)
    with np.errstate(over="ignore"):
        if p.delta > 1.0:
            spreads = np.sqrt(column * rng.chisquare(p.delta - 1.0, shape))
        else:
            spreads = np.zeros(shape)
        # one path steps as a Python float, many as rows of arrays
        if starts.ndim:
            hypot, root, pairs = np.hypot, np.sqrt(starts), zip(kicks, spreads)
        else:
            hypot, root = math.hypot, math.sqrt(starts)
            pairs = zip(kicks.tolist(), spreads.tolist())
        roots = []
        for kick, spread in pairs:
            root = hypot(root + kick, spread)
            roots.append(root)
        values = np.square(np.array(roots, dtype=float).reshape(shape))
        # the range of the Poisson-Gamma form, checked on the whole path: each
        # step's start stays below numpy's Poisson cap, and NaN fails too
        in_range = (values[:-1] / (2.0 * column[1:]) <= _POISSON_LAM_MAX).all()
    if not in_range:
        raise DomainError("path grew past the sampler's range (x / (2 step) above the Poisson cap)")
    return values


def _poisson_gamma_path(
    rng: np.random.Generator, p: BesqParams, starts: np.ndarray, steps: np.ndarray
):
    # the draws of sample_transitions below dimension 1, with its arguments
    # and order, on bound methods; one path steps as a Python float, which
    # takes numpy's scalar draws.  Rows are steps
    poisson, gamma, half = rng.poisson, rng.gamma, 0.5 * p.delta
    current = starts if starts.ndim else float(starts)
    draws = []
    try:
        for t in steps.tolist():
            scale = 2.0 * t
            current = gamma(half + poisson(current / scale), scale)
            draws.append(current)
    except ValueError as exc:
        raise DomainError(f"path grew past the Poisson sampler's range ({exc})") from exc
    return np.array(draws, dtype=float).reshape(steps.shape + starts.shape)


def sample_path(
    rng: np.random.Generator, p: BesqParams, x0, times
) -> PathSample:
    """Sample BESQ paths exactly on a :func:`time_grid`.

    A scalar ``x0`` gives one path, ``values`` of shape ``(T,)``; an ``x0``
    of shape ``(n,)`` gives one independent path per start, ``values`` of
    shape ``(n, T)``.  Each step is an exact transition in the form of
    :func:`sample_transitions`.  For ``delta >= 1`` the normal draws of the
    whole grid come in one call and its chi-square draws in one more, so the
    grid loop keeps only the square-root recursion; below 1 the loop draws a
    Poisson and a Gamma per step.  A path refuses what
    :func:`sample_transitions` refuses, at the grid's shortest and longest
    step, and a path whose ``x / (2 step)`` passes numpy's Poisson cap (about
    9.2e18) at some step.
    """
    times, steps = time_grid(times)
    starts = np.asarray(x0, dtype=float)
    if starts.ndim > 1:
        raise DomainError("x0 must be a scalar or a 1-D array of starts")
    _check_starts(starts, steps.min(initial=np.inf), steps.max(initial=0.0), "x0")
    form = _split_path if p.delta >= 1.0 else _poisson_gamma_path
    values = form(rng, p, starts, steps)
    _check_draws(values[-1:])
    # the transpose puts time last, as shape (T,) or (n, T), in C order
    return PathSample(times, np.ascontiguousarray(values.T))


def bessel_path(
    rng: np.random.Generator, p: BesqParams, xi0, times
) -> PathSample:
    """Sample Bessel paths: square roots of BESQ paths started at ``xi0**2``.

    ``xi0`` broadcasts like the start of :func:`sample_path`.
    """
    xi0 = np.asarray(xi0, dtype=float)
    if not np.all(xi0 >= 0.0):
        raise DomainError("xi0 must be nonnegative")
    # the bound of _check_starts on the squared start, checked before squaring;
    # a Python float squares the largest start to inf without a warning
    top = float(np.max(xi0, initial=0.0))
    if not 0.5 * top * top / _POISSON_MEAN_MAX < time_grid(times)[1].min(initial=np.inf):
        raise DomainError(
            f"xi0 must be finite, with xi0**2 / (2 step) below {_POISSON_MEAN_MAX:g}"
        )
    squared = sample_path(rng, p, xi0 * xi0, times)
    return PathSample(squared.times, np.sqrt(squared.values))
