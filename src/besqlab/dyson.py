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
Like :func:`eigen_paths`, the integrator batches by ``n``: with ``n``
omitted it gives one path, ``values`` of shape ``(T,)``, and with ``n`` it
gives ``n`` independent paths, ``values`` of shape ``(n, T)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import besq
from .besq import BesqParams, PathSample
from .errors import DomainError

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class MatrixProcessConfig:
    """Coupling, off-diagonal Bessel dimension and output time grid."""

    c: float
    delta: float
    times: tuple

    def __post_init__(self):
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise DomainError("c must be finite and nonnegative")
        if not self.delta > 0.0:
            raise DomainError("delta must be positive")
        times, _ = besq.time_grid(self.times)
        if not times.size:
            raise DomainError("times must be nonempty")
        object.__setattr__(self, "times", tuple(times.tolist()))


@dataclass
class DriverState:
    """Diagonal Brownian values and off-diagonal Bessel value(s).

    Fields are scalars or arrays of a common shape (a whole path at once).
    """

    b1: np.ndarray
    b2: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.b1, self.b2, self.xi = np.broadcast_arrays(
            np.asarray(self.b1, dtype=float),
            np.asarray(self.b2, dtype=float),
            np.asarray(self.xi, dtype=float),
        )
        if self.xi.size and not np.all(self.xi >= 0.0):
            raise DomainError("xi must be nonnegative")


@dataclass
class EigenPair:
    """Ordered eigenvalues, elementwise ``lambda1 >= lambda2``."""

    lambda1: np.ndarray
    lambda2: np.ndarray

    def __post_init__(self):
        self.lambda1, self.lambda2 = np.broadcast_arrays(
            np.asarray(self.lambda1, dtype=float),
            np.asarray(self.lambda2, dtype=float),
        )
        if self.lambda1.size and not np.all(self.lambda1 >= self.lambda2):
            raise DomainError("eigenvalues must be ordered")


def eigenvalues(state: DriverState, c: float) -> EigenPair:
    """Closed-form ordered eigenvalues from the driver values."""
    if not (c >= 0.0 and math.isfinite(c)):
        raise DomainError("c must be finite and nonnegative")
    trace = state.b1 + state.b2
    gap = np.hypot(state.b1 - state.b2, np.sqrt(2.0 * c) * state.xi)
    return EigenPair(0.5 * (trace + gap), 0.5 * (trace - gap))


def decompose(pair: EigenPair) -> tuple[np.ndarray, np.ndarray]:
    """Rotated coordinates (sum, gap) of an eigenvalue pair."""
    return pair.lambda1 + pair.lambda2, pair.lambda1 - pair.lambda2


def eigenvalues_from_vector_offdiag(b1: float, b2: float, v, c: float) -> EigenPair:
    """Eigenvalues when the off-diagonal entry is a vector of length 1, 2 or 4.

    The matrix with vector off-diagonal is unitarily equivalent to the scalar
    one with ``xi = |v|``, so the eigenvalues agree exactly.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size not in (1, 2, 4):
        raise DomainError("v must be a vector of length 1, 2 or 4")
    norm = float(np.sqrt(np.dot(v, v)))
    return eigenvalues(DriverState(float(b1), float(b2), norm), c)


def _brownian_path(rng: np.random.Generator, shape: tuple, steps: np.ndarray) -> np.ndarray:
    # Brownian motions from 0 over the grid's steps, shape + (T,)
    return np.cumsum(rng.normal(0.0, np.sqrt(steps), shape + steps.shape), axis=-1)


def simulate_drivers(
    rng: np.random.Generator, config: MatrixProcessConfig, n: int | None = None
) -> DriverState:
    """Exact joint draw of the three independent drivers on the time grid.

    With ``n`` omitted the fields are one path of shape ``(T,)``; with ``n``
    they are ``n`` independent paths, of shape ``(n, T)``.
    """
    times, steps = besq.time_grid(config.times)
    shape, xi0 = ((), 0.0) if n is None else ((n,), np.zeros(n))
    s1, s2, s3 = rng.spawn(3)
    b1 = _brownian_path(s1, shape, steps)
    b2 = _brownian_path(s2, shape, steps)
    xi = besq.bessel_path(s3, BesqParams(config.delta), xi0, times).values
    return DriverState(b1, b2, xi)


def eigen_paths(
    rng: np.random.Generator, config: MatrixProcessConfig, n: int | None = None
) -> tuple[PathSample, PathSample]:
    """Eigenvalue paths obtained from simulated drivers via the closed form.

    ``n`` shapes the paths as in :func:`simulate_drivers`.
    """
    pair = eigenvalues(simulate_drivers(rng, config, n), config.c)
    return PathSample(config.times, pair.lambda1), PathSample(config.times, pair.lambda2)


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
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    times, steps = besq.time_grid(times)
    if not times.size:
        raise DomainError("times must be nonempty")
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
