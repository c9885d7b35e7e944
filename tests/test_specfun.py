"""Scaled Bessel function and log-gamma against closed forms and scipy."""

import numpy as np
import pytest
from scipy import special

from besqlab import specfun
from besqlab.errors import ConvergenceError

# Closed form for half-integer order: sqrt(2/(pi x)) sinh(x) e^{-x} at x=1,
# and the cosh variant for nu=-1/2 at x=2.  Frozen from a 30-digit mpmath
# evaluation of those expressions.
IVE_HALF_AT_1 = 0.34495131388824463
IVE_MINUS_HALF_AT_2 = 0.28726153811240116

LN_GAMMA_HALF = 0.5723649429247001  # log sqrt(pi)

# log(exp(-x) I_nu(x)) at nu = 5e4, x = 3e5, from a 30-digit mpmath evaluation
LOG_IVE_5E4_3E5 = -4164.33255531516027248643369054


def test_ln_gamma_known_points():
    assert specfun.ln_gamma(0.5) == pytest.approx(LN_GAMMA_HALF, rel=1e-14)
    assert specfun.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert specfun.ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert specfun.ln_gamma(4.7) == pytest.approx(2.736405146315567, rel=1e-13)


def test_ln_gamma_vectorized_matches_scipy():
    x = np.linspace(0.05, 40.0, 311)
    assert np.allclose(specfun.ln_gamma(x), special.gammaln(x), rtol=1e-12, atol=0)


def test_half_order_closed_forms():
    assert specfun.bessel_i_scaled(0.5, 1.0) == pytest.approx(IVE_HALF_AT_1, rel=1e-10)
    assert specfun.bessel_i_scaled(-0.5, 2.0) == pytest.approx(IVE_MINUS_HALF_AT_2, rel=1e-10)


def test_small_argument_leading_term():
    # (x/2)^nu / Gamma(nu+1) * e^{-x} dominates at x=1e-6
    x = 1e-6
    for nu in (-0.5, 0.0, 0.5, 1.0, 2.0):
        lead = (0.5 * x) ** nu / np.exp(specfun.ln_gamma(nu + 1.0)) * np.exp(-x)
        assert abs(specfun.bessel_i_scaled(nu, x) / lead - 1.0) < 1e-6


def test_large_argument_flattens():
    # the 1/(8x) correction carries 4 nu^2 - 1, so keep nu modest here
    x = 1e4
    for nu in (-0.5, 0.0, 0.5, 1.0, 2.0):
        assert abs(np.sqrt(2 * np.pi * x) * specfun.bessel_i_scaled(nu, x) - 1.0) < 1e-3


def test_three_term_recurrence():
    # I_{nu-1} - I_{nu+1} = (2 nu / x) I_nu, unchanged by the e^{-x} scaling
    x = np.geomspace(0.1, 100.0, 41)
    for nu in (0.5, 1.0, 1.7, 3.0):
        lhs = specfun.bessel_i_scaled(nu - 1.0, x) - specfun.bessel_i_scaled(nu + 1.0, x)
        rhs = 2.0 * nu / x * specfun.bessel_i_scaled(nu, x)
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=0)


def test_log_ive_continuous_where_ive_leaves_normal_range():
    # log_ive switches from log(scipy ive) to its series where ive stops
    # returning a normal double: ive's own cutoffs at small x for small
    # orders, underflow of the scaled value for large ones.  Bisect on log x
    # down to adjacent doubles and compare the two sides.
    # (orders +-1/2 and 0 take one form at every x and never switch)
    tiny = np.finfo(float).tiny
    brackets = ((1.0, 1e-310, 1e-300), (40.0, 1e-10, 1.0), (1000.0, 1.0, 1e4))
    for nu, lo, hi in brackets:
        a, b = np.log(lo), np.log(hi)
        normal_at_a = special.ive(nu, lo) >= tiny
        assert normal_at_a != (special.ive(nu, hi) >= tiny)
        for _ in range(200):
            m = 0.5 * (a + b)
            if (special.ive(nu, np.exp(m)) >= tiny) == normal_at_a:
                a = m
            else:
                b = m
        below = specfun.log_ive(nu, np.exp(a))
        above = specfun.log_ive(nu, np.exp(b))
        assert np.isfinite(below) and np.isfinite(above)
        assert abs(below - above) <= 1e-12 * abs(above)


def test_log_ive_past_scipy_argument_cap():
    # scipy's ive is NaN for every order above x = 2^30; past it log_ive takes
    # the uniform expansion (DLMF 10.41.3) at |nu| for every order but +-1/2
    # and 0, negative ones included: for -1 < nu < 0 the gap I_nu - I_|nu|
    # is about exp(-2x) I_|nu|.  It must agree with mpmath on both sides of
    # the cap, and at the largest double, where x / nu overflows for |nu| < 1
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    orders = (-0.9, -0.5, -0.25, 0.0, 0.1, 0.5, 1.5, 3.0, 40.0, 140.0, 147.0, 1000.0, 1e4)
    for nu in orders:
        for x in (0.999 * 2.0**30, 1.001 * 2.0**30, 2e9, 1e15, 1e300, np.finfo(float).max):
            want = float(mpmath.log(mpmath.besseli(nu, x) * mpmath.exp(-x)))
            assert specfun.log_ive(nu, x) == pytest.approx(want, rel=1e-15)


def test_log_ive_large_orders_below_the_cap_take_the_uniform_expansion():
    # where ive underflows at a large order, the series at nu = 5e4, x = 3e5
    # would need over 1e5 terms; the uniform expansion is exact to double
    # precision wherever hypot(nu, x) >= 2^13 and x >= 1.  mpmath's own
    # series takes about 80 s at that point, so its 30-digit value is frozen.
    # Below x = 1 the series takes a term or two, down to the subnormal x
    # where the uniform form's nu / x overflowed to a value of -inf
    assert specfun.log_ive(5e4, 3e5) == pytest.approx(LOG_IVE_5E4_3E5, rel=1e-15)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for nu, xs in (
        (8192.0, (1e-3, 1.0)), (9000.0, (1e-320, 0.5, 8e3, 2e4)), (2e4, (1e-310, 10.0, 3e4)),
        (1e4, (5e-324,)),
    ):
        for x, got in zip(xs, specfun.log_ive(nu, np.array(xs)).tolist()):
            want = float(mpmath.log(mpmath.besseli(nu, x, maxterms=10**5) * mpmath.exp(-x)))
            assert got == pytest.approx(want, rel=1e-15), (nu, x)
    # adjacent doubles on the two sides of the switch from the series at nu = 8000
    lo, hi = 1700.0, 1800.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if np.hypot(8000.0, mid) >= specfun._UNIFORM_MIN_HYPOT:
            hi = mid
        else:
            lo = mid
    below, above = specfun.log_ive(8000.0, np.array([lo, hi]))
    assert abs(below - above) <= 1e-12 * abs(above)


def test_log_ive_raises_where_no_branch_is_accurate(monkeypatch):
    # a series that would need more than its term budget ends in a typed error
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 10)
    with pytest.raises(ConvergenceError, match="series"):
        specfun.log_ive(1000.0, 500.0)


def test_log_ive_exact_at_the_paper_orders():
    # nu = -1/2, 0, 1/2 (BESQ dimensions 1, 2, 3) take the log-space closed
    # form and i0e at every argument: subnormal, past scipy's 2^30 cap, 0, inf
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    # every decade up to 1e100, every tenth above: mpmath's cost grows with x
    decades = list(range(-300, 100)) + list(range(100, 301, 10))
    # past DOUBLE_MAX / 2 the closed form's 2x would overflow with a warning
    top = [1e308, np.finfo(float).max]
    x = np.array([5e-324, 1e-320, 1e-310] + [10.0**k for k in decades] + top)
    for nu in (-0.5, 0.0, 0.5):
        got = specfun.log_ive(nu, x)
        for xi, g in zip(x.tolist(), got.tolist()):
            xm = mpmath.mpf(xi)
            want = float(mpmath.log(mpmath.besseli(nu, xm) * mpmath.exp(-xm)))
            assert abs(g - want) <= 1e-15 * max(1.0, abs(want)), (nu, xi)
    assert specfun.log_ive(-0.5, 0.0) == np.inf
    assert specfun.log_ive(0.0, 0.0) == 0.0
    assert specfun.log_ive(0.5, 0.0) == -np.inf
    for nu in (-0.5, 0.0, 0.5):
        assert specfun.log_ive(nu, np.inf) == -np.inf
        assert np.array_equal(
            specfun.log_ive(nu, np.array([0.0, 1.0, np.inf])),
            [specfun.log_ive(nu, 0.0), specfun.log_ive(nu, 1.0), -np.inf],
        )


def test_against_scipy_ive_broadly():
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e4, 400)])
    for nu in (-0.5, 0.0, 0.5, 1.0, 1.35, 2.0, 4.5, 9.0, 40.0):
        ours = specfun.bessel_i_scaled(nu, x)
        ref = special.ive(nu, x)
        ok = (ref != 0.0) & np.isfinite(ref)
        assert np.all(np.abs(ours[ok] / ref[ok] - 1.0) < 1e-10)
        # scipy yields nan at the x=0 blowup for negative order where we
        # return inf.  Its zeros are either x=0 (exact zeros, checked in
        # test_zero_argument) or a flush of values below about exp(-700.9),
        # which log_ive keeps: there the true value must lie below the flush
        zeros = ref == 0.0
        assert np.all(specfun.log_ive(nu, x[zeros]) < -700.0)


def test_zero_argument():
    assert specfun.bessel_i_scaled(0.0, 0.0) == 1.0
    assert specfun.bessel_i_scaled(1.5, 0.0) == 0.0
    assert np.isinf(specfun.bessel_i_scaled(-0.5, 0.0))


def test_no_overflow_at_huge_argument():
    v = specfun.bessel_i_scaled(1.0, 1e8)
    assert np.isfinite(v) and v > 0.0
    assert specfun.bessel_i_scaled(1.0, np.inf) == 0.0


def test_subnormal_argument_stays_finite():
    # log(x/2) underflows where log(x) does not; the implementation must not
    # emit -inf prefactors for denormal x
    for nu in (1.0, -0.5):
        v = specfun.bessel_i_scaled(nu, 5e-324)
        assert np.isfinite(v) and v >= 0.0
