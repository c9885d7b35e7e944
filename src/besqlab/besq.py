"""Squared Bessel process laws: transition densities and exact transition sampling.

A squared Bessel process of dimension ``delta > 0`` solves
``dX_t = delta dt + 2 sqrt(X_t) dB_t``.  Its transition kernel is known in
closed form through the modified Bessel function of order
``nu = delta/2 - 1``; this module evaluates that kernel in log space in four
regimes (interior, started at zero, weighted zero-target limit, far field)
and samples transitions exactly through the Poisson-Gamma mixture
representation of the noncentral chi-square law.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError


@dataclass(frozen=True)
class BesqParams:
    """Dimension parameter of a squared Bessel process."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise DomainError("delta must be positive")

    @property
    def nu(self) -> float:
        """Bessel index delta/2 - 1; lies in (-1, inf)."""
        return 0.5 * self.delta - 1.0


@dataclass
class PathSample:
    """A discretely observed path: strictly increasing times and values."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise DomainError("times and values must be 1-D arrays of equal length")
        if self.times.size and not np.all(np.diff(self.times) > 0.0):
            raise DomainError("times must be strictly increasing")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value"])
            for t, v in zip(self.times, self.values):
                writer.writerow([repr(float(t)), repr(float(v))])

    @classmethod
    def from_csv(cls, path) -> "PathSample":
        times, values = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["t", "value"]:
                raise DomainError("expected header 't,value'")
            for row in reader:
                times.append(float(row[0]))
                values.append(float(row[1]))
        return cls(np.array(times), np.array(values))


def _validate_t(t: float) -> float:
    t = float(t)
    if not t > 0.0:
        raise DomainError("time step must be positive")
    return t


def log_transition_density(p: BesqParams, t: float, x, y):
    """Log of the transition density of a BESQ(delta) over time ``t``.

    For ``x > 0`` the kernel is

        (1/(2t)) (y/x)^{nu/2} exp(-(x+y)/(2t)) I_nu(sqrt(xy)/t),

    assembled here as ``-(sqrt x - sqrt y)^2 / (2t)`` plus
    :func:`~besqlab.specfun.log_ive`, the log of the scaled Bessel function,
    which keeps the exponential terms from overflowing and the Bessel factor
    from underflowing for any representable ``x, y`` and any dimension.  At
    ``x = 0``, or where ``sqrt(xy)/t`` underflows to 0, the kernel is the
    Gamma density with shape ``delta/2`` and scale ``2t``.

    ``x`` and ``y`` broadcast; ``y`` must be strictly positive.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.size and not np.all(x_arr >= 0.0):
        raise DomainError("x must be nonnegative")
    if y_arr.size and not np.all(y_arr > 0.0):
        raise DomainError("y must be strictly positive")
    x_b, y_b = np.broadcast_arrays(x_arr, y_arr)
    x_b = x_b.astype(float)
    y_b = y_b.astype(float)

    out = np.empty(x_b.shape, dtype=float)
    delta = p.delta
    nu = p.nu

    # x so small that sqrt(x) sqrt(y) / t underflows is indistinguishable, at
    # working precision, from a start at zero; routing it through the Bessel
    # factorization would send a spurious infinity through the logs instead
    at_zero = (x_b == 0.0) | (np.sqrt(x_b) * np.sqrt(y_b) / t == 0.0)
    if np.any(at_zero):
        yz = y_b[at_zero]
        out[at_zero] = (
            (0.5 * delta - 1.0) * np.log(yz)
            - 0.5 * delta * np.log(2.0 * t)
            - specfun.ln_gamma(0.5 * delta)
            - yz / (2.0 * t)
        )
    interior = ~at_zero
    if np.any(interior):
        xi = x_b[interior]
        yi = y_b[interior]
        sx = np.sqrt(xi)
        sy = np.sqrt(yi)
        out[interior] = (
            -np.log(2.0 * t)
            + 0.5 * nu * (np.log(yi) - np.log(xi))
            - (sx - sy) ** 2 / (2.0 * t)
            + specfun.log_ive(nu, sx * sy / t)
        )

    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def transition_density(p: BesqParams, t: float, x, y):
    """Transition density ``p_t(x, y)``; exp of :func:`log_transition_density`."""
    return np.exp(log_transition_density(p, t, x, y))


def weighted_zero_limit(p: BesqParams, t: float, x):
    """Limit of ``p_t(x, y) / y^{delta/2 - 1}`` as the target ``y`` drops to 0.

    Equals ``(2t)^{-delta/2} exp(-x/(2t)) / Gamma(delta/2)``; this is the
    natural weight for conditioning a BESQ bridge to approach the origin.
    """
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.size and not np.all(x_arr >= 0.0):
        raise DomainError("x must be nonnegative")
    out = np.exp(
        -0.5 * p.delta * np.log(2.0 * t)
        - specfun.ln_gamma(0.5 * p.delta)
        - x_arr / (2.0 * t)
    )
    if np.ndim(x) == 0:
        return float(out)
    return out


def far_field_density(p: BesqParams, t: float, x, y):
    """Leading large-argument form of the transition density.

    Replaces the Bessel factor by its first asymptotic term:

        (2t)^{-1} (2 pi)^{-1/2} y^{(delta-3)/4} x^{-(delta-1)/4}
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
        - 0.5 * np.log(2.0 * np.pi)
        + 0.25 * (p.delta - 3.0) * np.log(y_arr)
        - 0.25 * (p.delta - 1.0) * np.log(x_arr)
        - (sx - sy) ** 2 / (2.0 * t)
    )
    out = np.exp(log_val)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def _step(rng: np.random.Generator, delta: float, t: float, x: np.ndarray) -> np.ndarray:
    # X_t | X_0 = x is 2t * W with W noncentral chi-square: Poisson-mixed Gamma.
    n = rng.poisson(x / (2.0 * t))
    return rng.gamma(0.5 * delta + n, 2.0 * t)


def sample_transition(rng: np.random.Generator, p: BesqParams, t: float, x: float) -> float:
    """Draw one exact transition of length ``t`` started from ``x >= 0``."""
    t = _validate_t(t)
    x = float(x)
    if not x >= 0.0:
        raise DomainError("x must be nonnegative")
    return float(_step(rng, p.delta, t, np.asarray([x]))[0])


def sample_transitions(rng: np.random.Generator, p: BesqParams, t: float, x) -> np.ndarray:
    """Vectorized exact transitions: one draw per entry of ``x``."""
    t = _validate_t(t)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.size and not np.all(x_arr >= 0.0):
        raise DomainError("x must be nonnegative")
    return _step(rng, p.delta, t, x_arr)


def sample_path(
    rng: np.random.Generator, p: BesqParams, x0: float, times
) -> PathSample:
    """Sample a BESQ path exactly on a strictly increasing positive time grid."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return PathSample(times, np.empty(0))
    if not (times[0] > 0.0 and np.all(np.diff(times) > 0.0)):
        raise DomainError("times must be strictly increasing and positive")
    x0 = float(x0)
    if not x0 >= 0.0:
        raise DomainError("x0 must be nonnegative")
    values = np.empty(times.size)
    current = np.asarray([x0])
    previous_t = 0.0
    for i, ti in enumerate(times):
        current = _step(rng, p.delta, ti - previous_t, current)
        values[i] = current[0]
        previous_t = ti
    return PathSample(times, values)


def bessel_path(
    rng: np.random.Generator, p: BesqParams, xi0: float, times
) -> PathSample:
    """Sample a Bessel path (square root of a BESQ started at ``xi0**2``)."""
    xi0 = float(xi0)
    if not xi0 >= 0.0:
        raise DomainError("xi0 must be nonnegative")
    squared = sample_path(rng, p, xi0 * xi0, times)
    return PathSample(squared.times, np.sqrt(squared.values))
