"""Closed forms that the tests hold the library to, kept out of ``src``."""

from __future__ import annotations

import numpy as np
from scipy import special, stats


def far_field_density(delta: float, t: float, x, y):
    """Leading large-argument form of the BESQ(delta) transition density.

    Replaces the Bessel factor by its first asymptotic term:

        (2t)^{-1} (2 pi)^{-1/2} t^{1/2} y^{(delta-3)/4} x^{-(delta-1)/4}
            exp(-(sqrt x - sqrt y)^2 / (2t)).

    Accurate when ``sqrt(xy)/t`` is large; ``t``, ``x`` and ``y`` must be
    positive.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    log_val = (
        -np.log(2.0 * t)
        - 0.5 * np.log(2.0 * np.pi / t)
        + 0.25 * (delta - 3.0) * np.log(y_arr)
        - 0.25 * (delta - 1.0) * np.log(x_arr)
        - (np.sqrt(x_arr) - np.sqrt(y_arr)) ** 2 / (2.0 * t)
    )
    out = np.exp(log_val)
    return float(out) if out.ndim == 0 else out


def window_pair_probability(delta: float, eps: float, w1, w2, nodes: int = 16) -> float:
    """``P(Z(eps) in w1, Z(1) in w2)`` for a BESQ(delta) ``Z`` started at 0.

    ``Z(eps)`` is Gamma(delta / 2) with scale ``2 eps``, and given ``Z(eps) =
    z``, ``Z(1) / tau`` is a noncentral chi-square of ``delta`` degrees and
    noncentrality ``z / tau``, with ``tau = 1 - eps``.  So the probability is

        int_w1 gamma(z) [chndtr(b2 / tau, delta, z / tau)
                         - chndtr(a2 / tau, delta, z / tau)] dz,

    here by Gauss-Legendre on ``nodes`` nodes over ``w1 = (a1, b1)``, which
    must lie in ``[0, inf)``; ``w2 = (a2, b2)``.
    """
    (a1, b1), (a2, b2) = w1, w2
    tau = 1.0 - eps
    x, weights = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b1 - a1)
    z = a1 + half * (x + 1.0)
    moved = special.chndtr(b2 / tau, delta, z / tau) - special.chndtr(a2 / tau, delta, z / tau)
    density = stats.gamma.pdf(z, 0.5 * delta, scale=2.0 * eps)
    return float(half * np.sum(weights * density * moved))
