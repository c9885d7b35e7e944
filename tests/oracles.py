"""Closed forms that the tests hold the library to, kept out of ``src``."""

from __future__ import annotations

import numpy as np


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
