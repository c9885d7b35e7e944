"""Squared Bessel transition density, its limits, and the exact sampler."""

import warnings

import numpy as np
import pytest
from scipy import special, stats

from besqlab import besq, specfun, stattest
from besqlab.besq import BesqParams, PathSample
from besqlab.errors import DomainError
from besqlab.quadrature import QuadratureSpec, integrate
from oracles import far_field_density

# mpmath oracle (30 digits): (1/2t) (y/x)^{nu/2} e^{-(x+y)/2t} I_nu(sqrt(xy)/t)
P_3_07_12_08 = 0.19858315741551859
P_07_1_3_05 = 0.18724025235478516
# mpmath oracle (40 digits) for the log-density at large orders and a tiny
# start, where exp(-x) I_nu(x) under- or overflows in linear space, and for
# log(exp(-x) I_nu(x)) itself at an order far above the argument
LOG_P_82_1_900_900 = -5.9023807196519532
LOG_P_2002_1_500_500 = -830.72327296778844
LOG_P_8_1_1EM300_4 = -2.4054651081081644
LOG_IVE_1000_500 = -830.03012578722849
# a BESQ(0.5) path from 1.3 at default_rng(2025) on (0.25, 0.5, 1, 2),
# recorded from the Poisson-Gamma loop before paths of dimension 1 and more
# moved to the Gaussian split
FROZEN_BESQ_05_X13 = [1.7085914693358153, 1.9489150897823848, 9.531849506982816, 6.385252919441901]

rng = np.random.default_rng


def test_density_matches_high_precision_points():
    assert besq.transition_density(BesqParams(3.0), 0.7, 1.2, 0.8) == pytest.approx(
        P_3_07_12_08, rel=1e-12
    )
    assert besq.transition_density(BesqParams(0.7), 1.0, 3.0, 0.5) == pytest.approx(
        P_07_1_3_05, rel=1e-12
    )
    for (delta, t, x, y), ref in (
        ((82.0, 1.0, 900.0, 900.0), LOG_P_82_1_900_900),
        ((2002.0, 1.0, 500.0, 500.0), LOG_P_2002_1_500_500),
        ((8.0, 1.0, 1e-300, 4.0), LOG_P_8_1_1EM300_4),
    ):
        v = besq.log_transition_density(BesqParams(delta), t, x, y)
        assert v == pytest.approx(ref, rel=1e-12)
    assert specfun.log_ive(1000.0, 500.0) == pytest.approx(LOG_IVE_1000_500, rel=1e-12)


def test_from_zero_is_gamma():
    # start at 0: Gamma(delta/2, scale 2t); at delta=2, t=0.5 that is Exp(1)
    assert besq.transition_density(BesqParams(2.0), 0.5, 0.0, 1.0) == pytest.approx(
        np.exp(-1.0), rel=1e-13
    )
    y = np.array([0.3, 1.0, 4.0])
    ours = besq.transition_density(BesqParams(3.0), 0.7, 0.0, y)
    ref = stats.gamma.pdf(y, a=1.5, scale=1.4)
    assert np.allclose(ours, ref, rtol=1e-12)


@pytest.mark.parametrize("delta", [0.7, 1.0, 2.0, 3.0, 4.5])
@pytest.mark.parametrize("t", [1e-3, 1.0])
def test_grid_matches_scalar_calls(delta, t):
    # the formula runs on a (rows, 1) by (cols,) grid without broadcasting its
    # operands first; starts at zero and starts whose Bessel argument
    # underflows take the Gamma kernel, mixed into the same grid
    p = BesqParams(delta)
    x = np.array([0.0, 1e-320, 1e-300, 0.2, 1.0, 4.0, 37.5])
    y = np.array([1e-300, 0.3, 1.0, 4.5, 80.0])
    grid = besq.log_transition_density(p, t, x[:, None], y)
    assert grid.shape == (x.size, y.size)
    scalar = [[besq.log_transition_density(p, t, a, b) for b in y.tolist()] for a in x.tolist()]
    assert np.array_equal(grid, scalar)
    assert np.array_equal(grid[0], besq.log_zero_start(p, t, y))
    assert np.array_equal(besq.log_transition_density(p, t, 0.0, y), grid[0])
    # a start whose Bessel argument sqrt(x y)/t underflows to 0 is a start at 0
    row = besq.log_transition_density(p, 1e12, np.array([5e-324, 1.0]), 1e-300)
    assert row[0] == besq.log_zero_start(p, 1e12, 1e-300)
    assert row[1] == besq.log_transition_density(p, 1e12, 1.0, 1e-300)


@pytest.mark.parametrize("delta", [0.7, 1.0, 2.0, 3.0, 4.5])
@pytest.mark.parametrize("x", [0.0, 0.5, 3.0])
def test_normalization(delta, x):
    # BESQ(delta) from x at time t is t times a noncentral chi-square with
    # delta degrees of freedom and noncentrality x/t (Revuz-Yor XI.1), so the
    # density's mass below b is chndtr(b/t, delta, x/t); at b = 80 that is
    # the total mass to within 1e-12
    t = 1.0
    spec = QuadratureSpec(1e-10, 12, left_exponent=min(0.5 * delta, 1.0))
    for b in (0.5, 2.0, 8.0, 80.0):
        r = integrate(lambda y: besq.transition_density(BesqParams(delta), t, x, y), 0.0, b, spec)
        assert r.converged
        assert r.value == pytest.approx(special.chndtr(b / t, delta, x / t), abs=1e-12)


def test_chapman_kolmogorov_spot():
    p = BesqParams(2.5)
    s, t, x, y = 0.3, 1.0, 0.5, 2.0
    spec = QuadratureSpec(1e-10, 12, left_exponent=1.0)
    # the first kernel puts less than 1e-30 of its mass past z = 200
    conv = integrate(
        lambda z: besq.transition_density(p, s, x, z) * besq.transition_density(p, t, z, y),
        0.0,
        200.0,
        spec,
    )
    direct = besq.transition_density(p, s + t, x, y)
    assert conv.value == pytest.approx(direct, rel=1e-5)


@pytest.mark.parametrize("delta", [0.7, 1.3, 2.0, 3.0])
def test_weighted_zero_limit(delta):
    p = BesqParams(delta)
    t, x, y = 0.8, 1.7, 1e-8
    lim = besq.weighted_zero_limit(p, t, x)
    approached = besq.transition_density(p, t, x, y) * y ** (1.0 - 0.5 * delta)
    assert approached == pytest.approx(lim, rel=1e-4)


def test_far_field_matches_density():
    exact = besq.transition_density(BesqParams(3.0), 1.0, 1e4, 1e4)
    ff = far_field_density(3.0, 1.0, 1e4, 1e4)
    assert 0.99 <= ff / exact <= 1.01
    exact = besq.transition_density(BesqParams(2.0), 1.0, 1e6, 1e6)
    ff = far_field_density(2.0, 1.0, 1e6, 1e6)
    assert ff == pytest.approx(exact, rel=1e-3)
    # away from t = 1 the constant carries t^{1/2}; at t = 1e-6 the Bessel
    # argument sqrt(xy)/t = 2e9 lies past scipy's cap, where order 0 takes
    # i0e and order 1/2 its closed form
    for delta in (2.0, 3.0):
        exact = besq.transition_density(BesqParams(delta), 1e-6, 2e3, 2e3)
        ff = far_field_density(delta, 1e-6, 2e3, 2e3)
        assert ff == pytest.approx(exact, rel=1e-9)


def test_far_field_perfect_square_cancellation():
    import math

    v = far_field_density(1.0, 1.0, 2.3, 2.3)
    assert v == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi) * math.sqrt(2.3)), rel=1e-12)


def test_detailed_balance_symmetry():
    # p_t(x,y) (x/y)^{(delta-2)/4} is symmetric in (x, y)
    for delta in (0.7, 2.0, 4.5):
        p = BesqParams(delta)
        for x, y in ((0.5, 2.0), (1.0, 3.7), (2.2, 0.1)):
            e = 0.25 * (delta - 2.0)
            lhs = besq.transition_density(p, 1.1, x, y) * (x / y) ** e
            rhs = besq.transition_density(p, 1.1, y, x) * (y / x) ** e
            assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize(
    "x,y,match",
    [
        (np.inf, 1.0, "x must be nonnegative and finite"),
        (np.array([1.0, np.inf]), 1.0, "x must be nonnegative and finite"),
        (np.nan, 1.0, "x must be nonnegative and finite"),
        (0.0, np.inf, "y must be strictly positive and finite"),
        (1.0, np.array([[2.0], [np.inf]]), "y must be strictly positive and finite"),
        (1.0, np.nan, "y must be strictly positive and finite"),
    ],
    ids=["x-inf", "x-inf-entry", "x-nan", "zero-start-y-inf", "y-inf-entry", "y-nan"],
)
def test_log_density_refuses_non_finite_operands(x, y, match):
    # an infinite x gave NaN with a RuntimeWarning, and an infinite y from a
    # zero start a DomainError that blamed the Bessel argument
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            besq.log_transition_density(BesqParams(1.0), 0.5, x, y)


def test_log_density_finite_at_tiny_start():
    # sqrt(x) sqrt(y) / t can underflow, and exp(-x) I_nu(x) underflows for
    # large orders; the log must not emit inf and must meet the x = 0 value
    for delta in (0.7, 8.0, 12.0):
        p = BesqParams(delta)
        at_zero = besq.log_transition_density(p, 1.0, 0.0, 0.5)
        for x in (1e-310, 1e-300, 1e-200):
            v = besq.log_transition_density(p, 1.0, x, 0.5)
            assert np.isfinite(v)
            assert v == pytest.approx(at_zero, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [1e-320, 1e-310])
def test_log_density_where_the_bessel_argument_overflows(t):
    # sqrt(x) sqrt(y) / t overflows at x = y >= 1 here, though the
    # log-density stays finite (366.8 at t = 1e-320, x = y = 1); the
    # start 1e-300 keeps an ordinary argument in the same array
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = np.array([1e-300, 1.0, 4.0])
    for delta in (1.0, 2.0, 5.0):
        got = besq.log_transition_density(BesqParams(delta), t, x, x)
        for xi, g in zip(x.tolist(), got.tolist()):
            tm, z = mpmath.mpf(t), mpmath.mpf(xi) / mpmath.mpf(t)
            ive = mpmath.besseli(0.5 * delta - 1.0, z) * mpmath.exp(-z)
            assert g == pytest.approx(float(mpmath.log(ive / (2 * tm))), rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "t, x, y", [(1e-320, 1.0, 2.0), (1e-10, 1.0, 1e300), (1e-300, 1e-300, 1e10)]
)
def test_log_density_where_the_gaussian_exponent_overflows(t, x, y):
    # (sqrt x - sqrt y)^2 / (2t) overflows to its limit, without a warning
    assert besq.log_transition_density(BesqParams(2.0), t, x, y) == -np.inf
    assert besq.transition_density(BesqParams(2.0), t, x, y) == 0.0


@pytest.mark.parametrize(
    "delta, t, x, y",
    [
        # the Bessel argument overflows on one row; log z was taken at x = 0 too
        (3.0, 1e-200, [[0.0], [1.7e308]], [1.0, 2.0]),
        # y / (2t) overflows in the zero-start Gamma density
        (3.0, 1e-300, 0.0, 1e9),
        # below dimension 2 an x = 0 entry met an infinite Bessel term, -inf + inf
        (1.0, 1e-300, [0.0, 1e-300], [1e9, 1e300]),
    ],
    ids=["log-z-at-zero-start", "zero-start-quotient", "zero-start-in-grid"],
)
def test_log_density_at_tiny_steps_warns_of_nothing(delta, t, x, y):
    p = BesqParams(delta)
    x, y = np.asarray(x), np.asarray(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.broadcast_to(besq.log_transition_density(p, t, x, y), np.broadcast(x, y).shape)
        zero_start = besq.log_zero_start(p, t, np.broadcast_to(y, got.shape))
        assert besq.weighted_zero_limit(p, t, 1e9) == 0.0
    at_zero = np.broadcast_to(x, got.shape) == 0.0
    assert np.array_equal(got[at_zero], zero_start[at_zero])
    assert np.all(got[~at_zero] == -np.inf)
    assert np.all(zero_start[np.broadcast_to(y, got.shape) >= 1e9] == -np.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_densities_at_tiny_steps_overflow_to_inf_without_a_warning():
    # the log density exceeds the double range; inf is the limit of both
    assert besq.transition_density(BesqParams(3.0), 5e-324, 1e-300, 1e-300) == np.inf
    assert besq.weighted_zero_limit(BesqParams(3.0), 1e-300, 0.0) == np.inf


def test_sampler_moments_from_zero():
    r = rng(11)
    p = BesqParams(2.7)
    t, n = 1.3, 100_000
    xs = besq.sample_transitions(r, p, t, np.zeros(n))
    mean = xs.mean()
    se = xs.std() / np.sqrt(n)
    assert abs(mean - p.delta * t) < 4.0 * se


def test_sampler_exponential_special_case():
    # delta=2, t=0.5 from zero is Exp(1); one-sample KS at the 1% level
    r = rng(12)
    n = 50_000
    xs = besq.sample_transitions(r, BesqParams(2.0), 0.5, np.zeros(n))
    d = stats.kstest(xs, "expon").statistic
    assert d < 1.63 / np.sqrt(n)


def test_sampler_chisquare_against_density():
    r = rng(13)
    p = BesqParams(2.5)
    t, x, n = 1.0, 3.0, 100_000
    xs = besq.sample_transitions(r, p, t, np.full(n, x))
    edges = np.quantile(xs, np.linspace(0.0, 1.0, 41))
    # the last bin stops where the law's remaining mass drops below 1e-15
    edges[0], edges[-1] = 0.0, 100.0
    assert stats.ncx2.sf(edges[-1] / t, 2.5, x / t) < 1e-15
    counts, _ = np.histogram(xs, edges)
    spec = QuadratureSpec(1e-9, 12)

    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        r_int = integrate(lambda y: besq.transition_density(p, t, x, y), lo, hi, spec)
        probs.append(r_int.value)
    probs = np.array(probs)
    probs /= probs.sum()
    chi2 = ((counts - n * probs) ** 2 / (n * probs)).sum()
    pvalue = stats.chi2.sf(chi2, len(counts) - 1)
    assert pvalue > 0.001


def test_additivity_in_law():
    # independent BESQ(1.5) + BESQ(2.5) transitions from 0 vs BESQ(4) from 0
    r = rng(14)
    n = 60_000
    a = besq.sample_transitions(r, BesqParams(1.5), 1.0, np.zeros(n))
    b = besq.sample_transitions(r, BesqParams(2.5), 1.0, np.zeros(n))
    c = besq.sample_transitions(r, BesqParams(4.0), 1.0, np.zeros(n))
    rep = stattest.ks_two_sample(a + b, c, alpha=0.001)
    assert rep.verdict == "consistent"


def test_sample_path_mean_and_shapes():
    r = rng(15)
    p = BesqParams(3.0)
    times = np.array([0.5, 1.0, 2.0])
    paths = besq.sample_path(r, p, np.full(200, 1.0), times)
    assert paths.values.shape == (200, 3)
    ends = paths.values[:, -1]
    # cheap smoke on the mean; the transition sampler is tested in depth above
    assert abs(ends.mean() - (1.0 + p.delta * 2.0)) < 1.0
    assert besq.sample_path(r, p, 1.0, times).values.shape == (3,)
    empty = besq.sample_path(r, p, 1.0, np.array([]))
    assert empty.times.size == 0 and empty.values.size == 0


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("start", [1.5, np.array([0.0, 1.0, 4.0])], ids=["scalar", "three"])
@pytest.mark.parametrize("times", [[0.25, 0.5, 1.0, 2.0], []], ids=["grid", "empty"])
def test_sample_path_is_a_loop_of_transitions(delta, start, times):
    # below dimension 1 the grid loop makes the same draws, in the same order,
    # as one exact transition per step; a scalar start steps as a Python
    # float.  From dimension 1 on it takes every step's normal draw first, then
    # every step's chi-square draw, and steps the Gaussian split on them
    p = BesqParams(delta)
    path = besq.sample_path(rng(21), p, start, times)
    r = rng(21)
    steps = besq.time_grid(times)[1].tolist()
    shape = (len(steps),) + np.shape(start)
    if delta >= 1.0:
        kicks = r.standard_normal(shape)
        spreads = r.chisquare(delta - 1.0, shape) if delta > 1.0 else np.zeros(shape)
    current, want = (start if np.ndim(start) else float(start)), []
    for k, t in enumerate(steps):
        if delta >= 1.0:
            current = (np.sqrt(current) + np.sqrt(t) * kicks[k]) ** 2 + t * spreads[k]
        else:
            current = besq.sample_transitions(r, p, t, current)
        want.append(current)
    want = np.array(want, dtype=float).reshape(shape).T
    assert path.values.shape == np.shape(start) + (len(times),)
    assert path.values.flags.c_contiguous
    if delta >= 1.0:
        np.testing.assert_allclose(path.values, want, rtol=1e-13, atol=0.0)
    else:
        np.testing.assert_array_equal(path.values, want)


def test_poisson_gamma_stream_frozen():
    # below dimension 1 a path keeps the Poisson-Gamma draws it was recorded with
    path = besq.sample_path(rng(2025), BesqParams(0.5), 1.3, [0.25, 0.5, 1.0, 2.0])
    np.testing.assert_array_equal(path.values, FROZEN_BESQ_05_X13)


SPLIT_DIMS = [1.0, 1.5, 2.0, 4.0]
SPLIT_GRID = [0.25, 0.5, 1.0, 2.0]


def _ncx2_pvalue(values, delta, x0, t):
    # X_t / t from x0 is noncentral chi-square: delta degrees, noncentrality x0 / t
    return stats.kstest(values / t, stats.ncx2(delta, x0 / t).cdf).pvalue


@pytest.mark.parametrize("x0", [0.0, 1.3])
@pytest.mark.parametrize("delta", SPLIT_DIMS)
def test_split_transitions_are_noncentral_chi_square(delta, x0):
    xs = besq.sample_transitions(rng(31), BesqParams(delta), 0.7, np.full(4000, x0))
    assert _ncx2_pvalue(xs, delta, x0, 0.7) > 1e-3


@pytest.mark.parametrize("batched", [False, True], ids=["one-path", "batch"])
@pytest.mark.parametrize("x0", [0.0, 1.3])
@pytest.mark.parametrize("delta", SPLIT_DIMS)
def test_split_path_marginals_are_noncentral_chi_square(delta, x0, batched):
    # every grid time of a path from x0 has the law of one transition from x0
    p, n = BesqParams(delta), 2000
    if batched:
        values = besq.sample_path(rng(32), p, np.full(n, x0), SPLIT_GRID).values
    else:
        r = rng(33)
        values = np.array([besq.sample_path(r, p, x0, SPLIT_GRID).values for _ in range(n)])
    for j, t in enumerate(SPLIT_GRID):
        assert _ncx2_pvalue(values[:, j], delta, x0, t) > 1e-3, t


def test_sample_path_start_validation():
    r = rng(16)
    p = BesqParams(2.0)
    with pytest.raises(DomainError):
        besq.sample_path(r, p, np.array([1.0, -0.5]), [1.0])
    with pytest.raises(DomainError):
        besq.sample_path(r, p, np.ones((2, 2)), [1.0])
    with pytest.raises(DomainError):
        besq.bessel_path(r, p, np.array([1.0, -0.5]), [1.0])
    # numpy's Poisson draw refuses means above about 9.2e18: starts that
    # large, or infinite, are refused before the first step
    for start in (np.inf, 1e300, np.array([1.0, 1e19])):
        with pytest.raises(DomainError):
            besq.sample_path(r, p, start, [1.0, 2.0])
        with pytest.raises(DomainError):
            besq.sample_transitions(r, p, 1.0, start)
    with pytest.raises(DomainError):
        besq.sample_path(r, p, 1e17, [1.0, 1.01])
    assert besq.sample_path(r, p, 1e17, [1.0, 2.0]).values.shape == (2,)
    assert besq.bessel_path(r, p, np.ones(4), [0.5, 1.0]).values.shape == (4, 2)


def test_path_that_outgrows_the_poisson_range_is_domain_error():
    # the start passes its check, but a path of dimension 1e16 drifts by about
    # delta t, so x / (2 step) passes numpy's Poisson cap on a 1e-3 grid; at
    # 1e15 it stays below
    grid = np.round(0.001 * np.arange(1, 2001), 6)
    for start in (0.0, np.zeros(3)):
        with pytest.raises(DomainError, match="sampler's range"):
            besq.sample_path(rng(17), BesqParams(1e16), start, grid)
        path = besq.sample_path(rng(17), BesqParams(1e15), start, grid)
        assert np.all(np.isfinite(path.values))
        # a dimension or a step near the float limit overflows the last
        # step's Gamma draw, which raises nothing and once returned inf
        for delta, times in [(1e308, [2.0]), (1.0, [1e308]), (1e308, [1.0, 2.0])]:
            with pytest.raises(DomainError, match="sampler's range"):
                besq.sample_path(rng(17), BesqParams(delta), start, times)
    for delta, t in [(1e308, 2.0), (1.0, 1e308)]:
        with pytest.raises(DomainError, match="sampler's range"):
            besq.sample_transitions(rng(17), BesqParams(delta), t, [0.0, 1.0])


@pytest.mark.parametrize(
    "times",
    [[1.0, np.inf], [np.nan, 1.0], [[0.5, 1.0]], [0.0, 1.0], [-1.0, 1.0], [1.0, 1.0], 2.0],
)
def test_time_grid_rejects_bad_grids(times):
    with pytest.raises(DomainError):
        besq.time_grid(times)
    with pytest.raises(DomainError):
        besq.sample_path(rng(17), BesqParams(2.0), 1.0, times)


def test_time_grid_returns_steps_from_zero():
    times, steps = besq.time_grid((0.25, 0.5, 2.0))
    np.testing.assert_array_equal(times, [0.25, 0.5, 2.0])
    np.testing.assert_array_equal(steps, [0.25, 0.25, 1.5])
    times, steps = besq.time_grid([])
    assert times.size == steps.size == 0


def test_bessel_path_is_sqrt_of_besq():
    times = np.array([0.3, 0.8])
    for xi0 in (2.0, np.array([0.0, 1.0, 2.0])):
        sq = besq.sample_path(rng(77), BesqParams(3.0), xi0 * xi0, times)
        root = besq.bessel_path(rng(77), BesqParams(3.0), xi0, times)
        np.testing.assert_array_equal(root.values, np.sqrt(sq.values))


def test_validation_errors():
    with pytest.raises(DomainError):
        BesqParams(0.0)
    with pytest.raises(DomainError):
        besq.transition_density(BesqParams(2.0), -1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        PathSample(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        PathSample(np.array([0.5, 1.0]), np.zeros((3, 3)))
    assert PathSample(np.array([0.5, 1.0]), np.zeros((3, 2))).values.shape == (3, 2)
