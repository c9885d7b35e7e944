"""Tanh-sinh integration on smooth, singular, and nested problems."""

import math
import warnings

import numpy as np
import pytest

from besqlab import quadrature
from besqlab.quadrature import (
    QuadratureSpec,
    integrate,
    integrate_iterated,
    integrate_rows,
    integrate_to_inf,
)

TIGHT = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-15, max_levels=12)


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
    spec = QuadratureSpec(1e-9, 1e-15, 12, left_exponent=alpha)
    r = integrate(lambda x: x ** (alpha - 1.0), 0.0, 1.0, spec)
    assert r.converged
    assert r.value == pytest.approx(1.0 / alpha, rel=1e-9)


def test_right_endpoint_singularity():
    # only the endpoint at exactly 0.0 has denormal neighbors; at b=1 the
    # closest node is one ulp away, which caps accuracy near sqrt(ulp)
    spec = QuadratureSpec(1e-7, 1e-15, 12, right_exponent=0.5)
    r = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, spec)
    assert r.converged
    assert r.value == pytest.approx(2.0, rel=1e-7)


def test_right_endpoint_floor_is_honest():
    # below the representability floor the result must refuse to claim
    # convergence, and the estimate must cover the actual defect
    spec = QuadratureSpec(1e-9, 1e-15, 12, right_exponent=0.5)
    r = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, spec)
    assert not r.converged
    assert abs(r.value - 2.0) <= 2.0 * r.error_estimate


def test_both_endpoints_singular():
    # beta(1/2, 1/2) = pi
    spec = QuadratureSpec(1e-7, 1e-15, 12, left_exponent=0.5, right_exponent=0.5)
    r = integrate(lambda x: (x * (1.0 - x)) ** -0.5, 0.0, 1.0, spec)
    assert r.value == pytest.approx(math.pi, rel=1e-7)


def test_log_singularity():
    r = integrate(lambda x: -np.log(x), 0.0, 1.0, TIGHT)
    assert r.value == pytest.approx(1.0, rel=1e-9)


def test_infinite_integrand_value_never_converges():
    # 1/x overflows to inf at denormal nodes; converged must come back False
    # rather than letting rel_tol * inf absorb the failure
    r = integrate(lambda x: np.log(1.0 / x), 0.0, 1.0, TIGHT)
    assert np.isinf(r.value)
    assert not r.converged


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
MIXED_SPEC = QuadratureSpec(1e-7, 1e-15, 4, right_exponent=0.5)


@pytest.mark.parametrize("budget", [None, 7])
def test_rows_match_scalar_integrate(monkeypatch, budget):
    if budget is not None:
        # below one level's node count: every grid is split into single rows
        monkeypatch.setattr(quadrature, "_GRID_BUDGET", budget)
    sizes = []

    def f(rows, xs):
        sizes.append((rows.size, xs.size))
        return np.stack([MIXED_ROWS[i](xs) for i in rows])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_rows(f, len(MIXED_ROWS), 0.0, 1.0, MIXED_SPEC)
    if budget is not None:
        assert all(rows == 1 or rows * n <= budget for rows, n in sizes)
    for i, g in enumerate(MIXED_ROWS):
        want = integrate(g, 0.0, 1.0, MIXED_SPEC)
        row = got.row(i)
        assert row.evaluations == want.evaluations
        assert row.converged == want.converged
        assert row.value == pytest.approx(want.value, rel=1e-14)
        assert row.error_estimate == pytest.approx(want.error_estimate, rel=1e-14)
    assert [r.converged for r in map(got.row, range(4))] == [True, True, False, False]
    assert math.isinf(got.values[2]) and math.isinf(got.errors[2])
    assert got.evaluations[3] > got.evaluations[0]


def test_singular_interval_not_at_origin():
    # representable-gap floor at b=3: the x -> b side cannot be resolved past
    # one ulp of 3, so demand only what doubles can deliver
    spec = QuadratureSpec(1e-7, 1e-15, 12, right_exponent=0.5)
    r = integrate(lambda x: (3.0 - x) ** -0.5, 1.0, 3.0, spec)
    assert r.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-7)
    assert r.error_estimate > 0.0


def test_error_estimate_honest_on_battery():
    cases = [
        (lambda x: np.cos(3 * x), 0.0, 2.0, math.sin(6.0) / 3.0, TIGHT),
        (
            lambda x: x**-0.75,
            0.0,
            1.0,
            4.0,
            QuadratureSpec(1e-9, 1e-15, 12, left_exponent=0.25),
        ),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0, TIGHT),
    ]
    for f, a, b, truth, spec in cases:
        r = integrate(f, a, b, spec)
        assert abs(r.value - truth) <= max(10.0 * r.error_estimate, 1e-13 * abs(truth))


def test_exhausted_budget_reports_nonconvergence():
    spec = QuadratureSpec(1e-13, 1e-16, 2)
    r = integrate(lambda x: np.cos(10.0 * x), 0.0, 3.0, spec)
    assert not r.converged


def test_evaluation_count_grows_with_level():
    spec_lo = QuadratureSpec(1e-3, 1e-6, 4)
    spec_hi = QuadratureSpec(1e-12, 1e-16, 12)
    f = lambda x: np.exp(-x) * np.sin(7 * x)
    assert integrate(f, 0.0, 4.0, spec_hi).evaluations > integrate(f, 0.0, 4.0, spec_lo).evaluations


def test_half_line_exponential_moments():
    assert integrate_to_inf(lambda x: np.exp(-x), 0.0, TIGHT).value == pytest.approx(1.0, rel=1e-10)
    r = integrate_to_inf(lambda x: x * x * np.exp(-x), 0.0, TIGHT)
    assert r.value == pytest.approx(2.0, rel=1e-10)


def test_half_line_gaussian():
    r = integrate_to_inf(lambda x: np.exp(-0.5 * x * x), 0.0, TIGHT)
    assert r.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_half_line_with_singular_origin():
    # Gamma(1/2) = sqrt(pi)
    spec = QuadratureSpec(1e-9, 1e-15, 12, left_exponent=0.5)
    r = integrate_to_inf(lambda x: x**-0.5 * np.exp(-x), 0.0, spec)
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


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
    spec = QuadratureSpec(1e-8, 1e-15, 12, left_exponent=0.75)
    r = integrate_iterated(
        lambda y, x: x**-0.25 * y**-0.25,
        [(0.0, 1.0), (0.0, 1.0)],
        [spec, spec],
    )
    assert r.value == pytest.approx(16.0 / 9.0, rel=1e-7)
    assert r.error_estimate < 0.01 * r.value


def test_iterated_singular_times_smooth():
    spec_in = QuadratureSpec(1e-9, 1e-15, 12, left_exponent=0.5)
    spec_out = QuadratureSpec(1e-9, 1e-15, 12)
    r = integrate_iterated(
        lambda y, x: x**-0.5 * np.exp(-y),
        [(0.0, 1.0), (0.0, 1.0)],
        [spec_out, spec_in],
    )
    assert r.value == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-8)


def test_iterated_triple_gaussian_box():
    spec = QuadratureSpec(1e-7, 1e-12, 10)
    r = integrate_iterated(
        lambda a, b, x: np.exp(-(a + b + x)),
        [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
        [spec, spec, spec],
    )
    assert r.value == pytest.approx((1.0 - math.exp(-1.0)) ** 3, rel=1e-7)


def test_spec_rejects_bad_tolerances():
    from besqlab.errors import DomainError

    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=-1.0, abs_tol=1e-15, max_levels=10)
    with pytest.raises(DomainError):
        QuadratureSpec(left_exponent=0.0)
