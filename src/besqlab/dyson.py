"""Eigenvalues of a 2x2 symmetric Dyson-type matrix process.

The matrix ``[[B1, sqrt(c/2) xi], [sqrt(c/2) xi, B2]]`` is driven by two
independent Brownian motions on the diagonal and an independent Bessel
process ``xi`` of dimension ``delta`` off the diagonal, scaled by the
coupling ``c >= 0``.  Everything observable about the ordered eigenvalues
flows through two closed-form identities:

    lambda1 + lambda2 = B1 + B2
    (lambda1 - lambda2)^2 = (B1 - B2)^2 + 2 c xi^2

Half the squared gap, ``c xi^2 + ((B1 - B2)/sqrt(2))^2``, is the weighted
sum ``Z = c X + Y`` of :mod:`besqlab.nonmarkov` with ``(delta1, delta2) =
(delta, 1)``: ``xi^2`` is a BESQ(delta) and ``((B1 - B2)/sqrt(2))^2`` a
BESQ(1), both from zero and independent of the trace.  The pair is Markov
exactly when that ``Z`` is.  For ``c = 1``, by Shiga-Watanabe additivity, the
gap is ``sqrt(2)`` times a Bessel process of dimension ``1 + delta``, which
is what the SDE integrator below exploits: the ordered pair solves the
Dyson-type system

    d lambda_i = d beta_i + delta / (2 (lambda_i - lambda_j)) dt

and in rotated coordinates (sum, gap) that system decouples into a Brownian
motion and a rescaled Bessel process, both of which we can sample exactly.

Results are plain tuples: :func:`eigenvalues` gives ``(lambda1, lambda2)``
arrays, :func:`simulate_drivers` gives ``(b1, b2, xi)``, and
:func:`eigen_paths` and :func:`integrate_dyson_sde` give a
``(lambda1, lambda2)`` pair of :class:`~besqlab.besq.PathSample`.  The two
path functions take the same arguments apart from the coupling and batch by
``n``: with ``n`` omitted they give one path, ``values`` of shape ``(T,)``,
and with ``n`` they give ``n`` independent paths, ``values`` of shape
``(n, T)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import besq
from .besq import BesqParams, PathSample
from .errors import DomainError

_SQRT2 = np.sqrt(2.0)


def _check_coupling(c: float) -> None:
    if not (c >= 0.0 and math.isfinite(c)):
        raise DomainError("c must be finite and nonnegative")


def _check_grid(delta: float, times) -> tuple[np.ndarray, np.ndarray]:
    # the one check of delta and the grid, made before any draw
    BesqParams(delta)
    times, steps = besq.time_grid(times)
    if not times.size:
        raise DomainError("times must be nonempty")
    return times, steps


def eigenvalues(b1, b2, xi, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ordered eigenvalues ``(lambda1, lambda2)`` from the driver values.

    The drivers are scalars or arrays that broadcast (a whole path at once);
    they must be finite, with ``xi >= 0``.  Elementwise ``lambda1 >= lambda2``.
    """
    _check_coupling(c)
    b1, b2, xi = (np.asarray(v, dtype=float) for v in (b1, b2, xi))
    if not np.all(xi >= 0.0):
        raise DomainError("xi must be nonnegative")
    if not (np.isfinite(b1).all() and np.isfinite(b2).all() and np.isfinite(xi).all()):
        raise DomainError("drivers must be finite")
    trace = b1 + b2
    # 2 c overflows for c > DOUBLE_MAX/2, where sqrt(c) sqrt(2) does not
    two_c = 2.0 * float(c)
    scale = math.sqrt(two_c) if two_c < math.inf else math.sqrt(c) * _SQRT2
    gap = np.hypot(b1 - b2, scale * xi)
    return 0.5 * (trace + gap), 0.5 * (trace - gap)


def eigenvalues_from_vector_offdiag(
    b1: float, b2: float, v, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues when the off-diagonal entry is a vector of length 1, 2 or 4.

    The matrix with vector off-diagonal is unitarily equivalent to the scalar
    one with ``xi = |v|``, so the eigenvalues agree exactly.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size not in (1, 2, 4):
        raise DomainError("v must be a vector of length 1, 2 or 4")
    norm = float(np.sqrt(np.dot(v, v)))
    return eigenvalues(float(b1), float(b2), norm, c)


def _brownian_path(rng: np.random.Generator, shape: tuple, steps: np.ndarray) -> np.ndarray:
    # Brownian motions from 0 over the grid's steps, shape + (T,)
    return np.cumsum(rng.normal(0.0, np.sqrt(steps), shape + steps.shape), axis=-1)


def simulate_drivers(
    rng: np.random.Generator, delta: float, times, n: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact joint draw ``(b1, b2, xi)`` of the three independent drivers on ``times``.

    ``b1`` and ``b2`` are Brownian motions and ``xi`` a Bessel process of
    dimension ``delta``, all from zero.  With ``n`` omitted each is one path
    of shape ``(T,)``; with ``n`` they are ``n`` independent paths, of shape
    ``(n, T)``.
    """
    times, steps = _check_grid(delta, times)
    shape, xi0 = ((), 0.0) if n is None else ((n,), np.zeros(n))
    s1, s2, s3 = rng.spawn(3)
    b1 = _brownian_path(s1, shape, steps)
    b2 = _brownian_path(s2, shape, steps)
    xi = besq.bessel_path(s3, BesqParams(delta), xi0, times).values
    return b1, b2, xi


def eigen_paths(
    rng: np.random.Generator, c: float, delta: float, times, n: int | None = None
) -> tuple[PathSample, PathSample]:
    """Eigenvalue paths obtained from simulated drivers via the closed form.

    ``n`` shapes the paths as in :func:`simulate_drivers`.
    """
    _check_coupling(c)
    lam1, lam2 = eigenvalues(*simulate_drivers(rng, delta, times, n), c)
    return PathSample(times, lam1), PathSample(times, lam2)


def integrate_dyson_sde(
    rng: np.random.Generator,
    delta: float,
    times,
    n: int | None = None,
) -> tuple[PathSample, PathSample]:
    """Integrate the c = 1 Dyson-type SDE exactly in rotated coordinates.

    The sum of the pair is a Brownian motion of variance 2t and the gap is
    ``sqrt(2)`` times a Bessel process of dimension ``1 + delta``; both
    transitions are sampled exactly, so there is no time-discretization
    error.  Paths start from the double-zero entrance state, and ``n``
    shapes them as in :func:`simulate_drivers`.
    """
    times, steps = _check_grid(delta, times)
    shape, w0 = ((), 0.0) if n is None else ((n,), np.zeros(n))
    s_sum, s_gap = rng.spawn(2)
    total = _SQRT2 * _brownian_path(s_sum, shape, steps)
    # gap/sqrt(2) is Bessel(1+delta); sample its square exactly
    w = besq.sample_path(s_gap, BesqParams(1.0 + delta), w0, times)
    gap = np.sqrt(2.0 * w.values)
    return (
        PathSample(times, 0.5 * (total + gap)),
        PathSample(times, 0.5 * (total - gap)),
    )
