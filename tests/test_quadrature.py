"""Tanh-sinh integration on smooth, singular, and nested problems."""

import math
import warnings

import numpy as np
import pytest

from besqlab import quadrature
from besqlab.errors import ConvergenceError, DomainError
from besqlab.quadrature import (
    QuadratureSpec,
    integrate,
    integrate_iterated,
    integrate_rows,
)

TIGHT = QuadratureSpec(rel_tol=1e-9, max_levels=12)


def test_smooth_polynomial_and_sine():
    r = integrate(lambda x: x * x, 0.0, 1.0, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(1.0 / 3.0, rel=1e-13)
    r = integrate(np.sin, 0.0, math.pi, TIGHT)
    assert r.value == pytest.approx(2.0, rel=1e-13)


def test_exponential_on_shifted_interval():
    r = integrate(np.exp, -1.0, 2.0, TIGHT)
    assert r.value == pytest.approx(math.exp(2) - math.exp(-1), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_left_endpoint_power_singularity(alpha):
    spec = QuadratureSpec(1e-9, 12, left_exponent=alpha)
    r = integrate(lambda x: x ** (alpha - 1.0), 0.0, 1.0, spec)
    assert r.converged
    assert r.value == pytest.approx(1.0 / alpha, rel=1e-9)


def test_right_endpoint_singularity():
    # only the endpoint at exactly 0.0 has denormal neighbors; at b=1 the
    # closest node is one ulp away, which caps accuracy near sqrt(ulp)
    spec = QuadratureSpec(1e-7, 12, right_exponent=0.5)
    r = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, spec)
    assert r.converged
    assert r.value == pytest.approx(2.0, rel=1e-7)


def test_right_endpoint_floor_is_honest():
    # below the representability floor the result must refuse to claim
    # convergence, and the estimate must cover the actual defect
    spec = QuadratureSpec(1e-9, 12, right_exponent=0.5)
    r = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, spec)
    assert not r.converged
    assert abs(r.value - 2.0) <= 2.0 * r.error_estimate


@pytest.mark.parametrize(
    "spec",
    [
        # the floor at b=1, about 1.5e-8, misses rel_tol before any call
        pytest.param(QuadratureSpec(1e-9, 12, right_exponent=0.5), id="floor"),
        pytest.param(QuadratureSpec(1e-13, 2), id="budget"),
    ],
)
def test_rows_that_stop_at_level_two_make_one_call_through_it(spec):
    # no row can go past level 2, and this is known before any call: the
    # first call holds levels 0 to 2 only, and every row stops on it
    calls = []

    def f(rows, xs):
        calls.append(xs.size)
        return np.log(np.add.outer(rows + 1.0, -xs) ** -0.5)

    r = integrate_rows(f, 3, 0.0, 1.0, spec)
    assert calls == [sum(_level_abscissae(k).size for k in range(3))]
    assert r.levels.tolist() == [2, 2, 2]
    assert not r.converged.any()


def test_both_endpoints_singular():
    # beta(1/2, 1/2) = pi
    spec = QuadratureSpec(1e-7, 12, left_exponent=0.5, right_exponent=0.5)
    r = integrate(lambda x: (x * (1.0 - x)) ** -0.5, 0.0, 1.0, spec)
    assert r.value == pytest.approx(math.pi, rel=1e-7)


def test_log_singularity():
    r = integrate(lambda x: -np.log(x), 0.0, 1.0, TIGHT)
    assert r.value == pytest.approx(1.0, rel=1e-9)


def test_infinite_integrand_value_never_converges():
    # 1/x overflows to inf at denormal nodes; converged must come back False
    # rather than letting rel_tol * inf absorb the failure
    r = integrate(_log_reciprocal, 0.0, 1.0, TIGHT)
    assert np.isinf(r.value)
    assert not r.converged


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rows_overflowing_scale_stop_without_warning():
    # the integral 4e308 of 4 on (0, 1e308) is a finite log, but its value
    # overflows: integrate returns inf with error inf, unconverged, and no
    # overflow warning on the way
    log_four = lambda r, x: np.full((r.size, x.size), math.log(4.0))
    rows = integrate_rows(log_four, 2, 0.0, 1e308, TIGHT)
    assert rows.values.tolist() == pytest.approx([math.log(4.0) + math.log(1e308)] * 2, rel=1e-15)
    assert rows.converged.all()
    r = integrate(lambda x: np.full_like(x, 4.0), 0.0, 1e308, TIGHT)
    assert math.isinf(r.value) and math.isinf(r.error_estimate)
    assert not r.converged


@pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
def test_integrand_warnings_reach_the_caller(log):
    # the bookkeeping ignores overflow and invalid values, which stop a row;
    # the integrand's own warnings must not be silenced with them, neither in
    # a log row nor in integrate, which takes the log of the values it gets
    def f(x):
        v = np.exp(1000.0 * x)
        return np.log(v) if log else v

    with pytest.warns(RuntimeWarning, match="overflow"):
        if log:
            r = integrate_rows(lambda rows, x: f(x), 1, 0.0, 1.0, TIGHT)
            value, error, converged = r.values[0], r.errors[0], r.converged[0]
        else:
            r = integrate(f, 0.0, 1.0, TIGHT)
            value, error, converged = r.value, r.error_estimate, r.converged
    assert math.isinf(value) and math.isinf(error)
    assert not converged


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrate_takes_zeros_but_refuses_negative_values():
    # e**(-1000 x) underflows to 0 past x = 0.745: those nodes are log -inf,
    # which a log row sums as nothing and warns of nothing
    r = integrate(lambda x: np.exp(-1000.0 * x), 0.0, 1.0, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(-math.expm1(-1000.0) / 1000.0, rel=1e-9)
    with pytest.raises(DomainError, match="nonnegative"):
        integrate(lambda x: x - 0.5, 0.0, 1.0, TIGHT)
    # no scale to integrate on, as for any log row
    with pytest.raises(ConvergenceError, match="not finite anywhere on the first level"):
        integrate(np.zeros_like, 0.0, 1.0, TIGHT)


def _log_reciprocal(x):
    with np.errstate(over="ignore"):
        return np.log(1.0 / x)


# One batch whose rows stop at different levels for different reasons:
# smooth, singular at the nonzero endpoint b=1 (so the representability
# floor enters every error), non-finite at the denormal nodes, and out of
# levels before it resolves cos(40 x).
MIXED_ROWS = [
    lambda x: x * x,
    lambda x: (1.0 - x) ** -0.5,
    _log_reciprocal,
    lambda x: np.cos(40.0 * x),
]
MIXED_SPEC = QuadratureSpec(1e-7, 4, right_exponent=0.5)


@pytest.mark.parametrize("budget", [None, 7], ids=["None-log", "7-log"])
def test_rows_match_scalar_integrate(monkeypatch, budget):
    # the same functions as log-integrands: exp((1 - x)**-0.5) is not
    # integrable at b=1, and the batch must equal one-row calls bit for bit
    if budget is not None:
        # below one level's node count: every grid is split into single rows
        monkeypatch.setattr(quadrature, "_GRID_BUDGET", budget)
    sizes = []
    received = np.zeros(len(MIXED_ROWS), dtype=int)

    def f(rows, xs):
        sizes.append((rows.size, xs.size))
        received[rows] += xs.size
        return np.stack([MIXED_ROWS[i](xs) for i in rows])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_rows(f, len(MIXED_ROWS), 0.0, 1.0, MIXED_SPEC)
        wants = [
            integrate_rows(lambda rows, xs: g(xs), 1, 0.0, 1.0, MIXED_SPEC)
            for g in MIXED_ROWS
        ]
    if budget is not None:
        assert all(rows == 1 or rows * n <= budget for rows, n in sizes)
    # every point f was called with counts, also past the level a row stopped at
    assert got.evaluations.tolist() == received.tolist()
    for field in ("values", "errors", "evaluations", "converged", "levels"):
        want = np.concatenate([getattr(w, field) for w in wants])
        assert getattr(got, field).tolist() == want.tolist()
    assert got.converged.tolist() == [True, False, False, False]
    assert math.isinf(got.values[2]) and math.isinf(got.errors[2])
    assert got.evaluations[3] > got.evaluations[0]


def _level_abscissae(level):
    # the abscissae of one refinement level on (0, 1), sorted
    delta, _ = quadrature._nodes(level)
    xs = np.concatenate([[0.5] if level == 0 else [], 0.5 * delta, 1.0 - 0.5 * delta])
    return np.sort(xs[(xs > 0.0) & (xs < 1.0)])


@pytest.mark.parametrize(
    "g,spec,level",
    [
        pytest.param(np.exp, QuadratureSpec(1e-3, 12), 2, id="exp-loose"),
        pytest.param(np.exp, TIGHT, 3, id="exp"),
        pytest.param(lambda x: 2.0 + np.cos(40.0 * x), TIGHT, 5, id="cos40"),
        pytest.param(lambda x: np.exp(-(((x - 0.3) / 0.02) ** 2)), TIGHT, 7, id="peak"),
    ],
)
def test_levels_up_to_three_share_the_first_call(g, spec, level):
    # a smooth row that converges at `level` (and not with one level less)
    # makes max(1, level - 2) integrand calls: levels 0 to 3 in the first,
    # then one per level.  It counts exactly the points it was given, level
    # 3's too when it stops at level 2, and reports the level it stopped at
    calls = []

    def f(rows, xs):
        calls.append(np.sort(xs))
        with np.errstate(divide="ignore"):
            return np.log(g(xs))[None, :]

    if level > 2:
        short = QuadratureSpec(spec.rel_tol, level - 1)
        assert not integrate(g, 0.0, 1.0, short).converged
    r = integrate_rows(f, 1, 0.0, 1.0, spec)
    assert r.converged[0] and r.levels[0] == level
    assert len(calls) == max(1, level - 2)
    first = np.sort(np.concatenate([_level_abscissae(k) for k in range(4)]))
    assert np.array_equal(calls[0], first)
    for k, xs in enumerate(calls[1:], start=4):
        assert np.array_equal(xs, _level_abscissae(k))
    assert r.evaluations[0] == sum(xs.size for xs in calls)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_rows_past_the_overflow_of_exp():
    # int_0^1 e**100 x**(alpha - 1) = e**100 / alpha.  At the first level's
    # deepest node (alpha - 1) log x is 621, so the log-integrand passes
    # log(DBL_MAX) there, but the node's weight keeps every term at most 1.
    # The mass below the smallest node, 3.4e-7 of the total, sets the spec
    alpha = 0.02
    spec = QuadratureSpec(1e-6, 12, left_exponent=alpha)
    peaks = []

    def log_f(rows, x):
        v = 100.0 + (alpha - 1.0) * np.log(x)
        peaks.append(float(v.max()))
        return v

    r = integrate_rows(log_f, 1, 0.0, 1.0, spec)
    assert peaks[0] > math.log(np.finfo(float).max)
    assert r.converged[0]
    assert math.exp(r.values[0] - 100.0) == pytest.approx(1.0 / alpha, rel=spec.rel_tol)


def test_log_row_counts_the_mass_below_its_smallest_node_at_zero():
    # int_0^1 x**(alpha - 1) = 1 / alpha, but the share x_min**alpha = 3.4e-7
    # of it lies below the smallest subnormal node, past any refinement
    alpha = 0.02
    spec = QuadratureSpec(1e-9, 12, left_exponent=alpha)
    r = integrate_rows(lambda rows, x: (alpha - 1.0) * np.log(x), 1, 0.0, 1.0, spec)
    true_error = abs(math.expm1(r.values[0] + math.log(alpha)))
    assert true_error > 1e-7
    assert not r.converged[0]
    assert r.errors[0] >= true_error


def test_log_rows_raise_their_shift_at_a_later_level():
    # a narrow peak, 1000 nats down, between the nodes 0.5 and 0.597 of the
    # first call (levels 0-3), which see at most off - 129; the level-4 node
    # 0.54896 meets it.  Its log integral in closed form is
    # off + log(sigma sqrt(pi/2) (erf + erf))
    mu, sigma, off = 0.549, 0.003, -1000.0
    s2 = sigma * math.sqrt(2.0)
    truth = off + math.log(
        sigma * math.sqrt(0.5 * math.pi) * (math.erf((1.0 - mu) / s2) + math.erf(mu / s2))
    )
    peaks = []

    def log_f(rows, x):
        v = off - 0.5 * ((x - mu) / sigma) ** 2
        peaks.append(float(v.max()))
        return v

    r = integrate_rows(log_f, 1, 0.0, 1.0, TIGHT)
    assert peaks[0] < off - 100.0 < off - 1.0 < max(peaks)
    assert r.converged[0]
    assert abs(math.expm1(r.values[0] - truth)) <= r.errors[0]


def test_log_row_below_its_rounding_floor_stops_on_the_first_level():
    # log values near -1e300 lie about 2e284 apart, so no tolerance can be
    # met: the row stops at the first level that tests convergence, still in
    # the first call, and its error is that finite floor
    calls = []

    def log_f(rows, x):
        calls.append(x.size)
        return np.full((rows.size, x.size), -1e300)

    r = integrate_rows(log_f, 1, 0.0, 1.0, TIGHT)
    assert len(calls) == 1 and r.evaluations[0] == calls[0]
    assert not r.converged[0]
    assert r.errors[0] == pytest.approx(1e300 * 2.0**-52, rel=1e-6)


def test_log_row_near_its_rounding_floor_reports_the_floor():
    # int_0^1 e**(-1e6 - x): at a shift near -1e6 log values lie 2.2e-10
    # apart, above a 1e-10 tolerance but below a 1e-9 one.  Both rows refine
    # to the same value; only the second may claim convergence
    truth = -1e6 + math.log(-math.expm1(-1.0))

    def row_at(rel_tol):
        def log_f(rows, x):
            return np.broadcast_to(-1e6 - x, (rows.size, x.size))

        return integrate_rows(log_f, 1, 0.0, 1.0, QuadratureSpec(rel_tol))

    floored, resolved = row_at(1e-10), row_at(1e-9)
    assert not floored.converged[0] and resolved.converged[0]
    assert floored.errors[0] == pytest.approx(1e6 * 2.0**-52, rel=1e-6)
    assert (floored.values[0], floored.errors[0]) == (resolved.values[0], resolved.errors[0])
    assert abs(math.expm1(floored.values[0] - truth)) <= floored.errors[0]


def test_log_row_whose_shift_rises_past_its_rounding_floor_keeps_refining():
    # a peak of log height 1e8 first met by the level-3 node 0.597, the last
    # level of the first call, lifts the shift there past the rounding floor
    # of rel_tol.  The row refines on through levels 4 and 5, one call each,
    # too narrow a peak to resolve, and reports its last level difference
    mu, sigma = 0.595, 0.005
    calls = []

    def log_f(rows, x):
        calls.append(x.size)
        return 1e8 * np.exp(-0.5 * ((x - mu) / sigma) ** 2) - 10.0 * np.abs(x - 0.3)

    r = integrate_rows(log_f, 1, 0.0, 1.0, QuadratureSpec(1e-9, 5))
    assert calls == [75, 74, 150]
    assert not r.converged[0]
    assert r.errors[0] == pytest.approx(1.0)


def test_singular_interval_not_at_origin():
    # representable-gap floor at b=3: the x -> b side cannot be resolved past
    # one ulp of 3, so demand only what doubles can deliver
    spec = QuadratureSpec(1e-7, 12, right_exponent=0.5)
    r = integrate(lambda x: (3.0 - x) ** -0.5, 1.0, 3.0, spec)
    assert r.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-7)
    assert r.error_estimate > 0.0


def test_error_estimate_honest_on_battery():
    cases = [
        (lambda x: 1.0 + np.cos(3 * x), 0.0, 2.0, 2.0 + math.sin(6.0) / 3.0, TIGHT),
        (
            lambda x: x**-0.75,
            0.0,
            1.0,
            4.0,
            QuadratureSpec(1e-9, 12, left_exponent=0.25),
        ),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0, TIGHT),
    ]
    for f, a, b, truth, spec in cases:
        r = integrate(f, a, b, spec)
        assert abs(r.value - truth) <= max(10.0 * r.error_estimate, 1e-13 * abs(truth))


def test_exhausted_budget_reports_nonconvergence():
    spec = QuadratureSpec(1e-13, 2)
    r = integrate(lambda x: 2.0 + np.cos(10.0 * x), 0.0, 3.0, spec)
    assert not r.converged


def test_evaluation_count_grows_with_level():
    spec_lo = QuadratureSpec(1e-3, 4)
    spec_hi = QuadratureSpec(1e-12, 12)
    f = lambda x: np.exp(-x) * (1.0 + np.sin(7 * x))
    assert integrate(f, 0.0, 4.0, spec_hi).evaluations > integrate(f, 0.0, 4.0, spec_lo).evaluations


def test_iterated_triangle_area():
    r = integrate_iterated(
        lambda y, x: np.ones_like(x),
        [(0.0, 1.0), (0.0, lambda y: y)],
        [TIGHT, TIGHT],
    )
    assert r.value == pytest.approx(0.5, rel=1e-10)


def test_iterated_product_with_singularities():
    # int_0^1 int_0^1 (x y)^{-1/4} = 16/9; exponent kept mild so the corner
    # nodes stay inside double range (x^{-1/2} y^{-1/2} would overflow there)
    spec = QuadratureSpec(1e-8, 12, left_exponent=0.75)
    r = integrate_iterated(
        lambda y, x: x**-0.25 * y**-0.25,
        [(0.0, 1.0), (0.0, 1.0)],
        [spec, spec],
    )
    assert r.value == pytest.approx(16.0 / 9.0, rel=1e-7)
    assert r.error_estimate < 0.01 * r.value


def test_iterated_singular_times_smooth():
    spec_in = QuadratureSpec(1e-9, 12, left_exponent=0.5)
    spec_out = QuadratureSpec(1e-9, 12)
    r = integrate_iterated(
        lambda y, x: x**-0.5 * np.exp(-y),
        [(0.0, 1.0), (0.0, 1.0)],
        [spec_out, spec_in],
    )
    assert r.value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-8)


def test_iterated_triple_gaussian_box():
    spec = QuadratureSpec(1e-7, 10)
    r = integrate_iterated(
        lambda a, b, x: np.exp(-(a + b + x)),
        [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
        [spec, spec, spec],
    )
    assert r.value == pytest.approx((1.0 - math.exp(-1.0)) ** 3, rel=1e-7)


def test_spec_rejects_bad_tolerances():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=-1.0, max_levels=10)
    with pytest.raises(DomainError):
        QuadratureSpec(left_exponent=0.0)
