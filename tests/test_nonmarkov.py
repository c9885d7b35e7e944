"""Kernel integrals, their limit regimes, and the conditional-ratio probe."""

import dataclasses
import math

import numpy as np
import pytest

from besqlab import besq, nonmarkov, quadrature
from besqlab.besq import BesqParams
from besqlab.errors import ConvergenceError, DomainError
from besqlab.nonmarkov import ScenarioParams
from besqlab.quadrature import QuadratureSpec

# Conditional ratios at c=0.5, delta1=delta2=1, z2=4, z3=1, frozen from the
# first converged run of this implementation (the dependence on (eps, z1) is
# what is proven; its size is pinned here as a regression value).  Drift
# tolerance 2e-3 sits above the reported quadrature error estimates.
WITNESS_RATIOS = {
    (0.3, 1.0): 0.09763966927726428,
    (0.3, 3.0): 0.10264495861654259,
    (0.5, 1.0): 0.0974657156486129,
    (0.5, 3.0): 0.09978794077794187,
    (0.5, 8.0): 0.10623898827442453,
}
WITNESS_MAGNITUDE = 0.032805771570164045  # max |ratio - mean| / mean on the 2x2 grid


def witness_scenario(eps, z1):
    return ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=eps, z1=z1, z2=4.0, z3=1.0)


def test_kernel_value_by_hand():
    # delta1=delta2=2 makes both factors pure exponentials: e^-1 * e^-1.5
    s = ScenarioParams(c=0.5, delta1=2.0, delta2=2.0, eps=0.5, z1=2.0, z2=1.0, z3=1.0)
    assert np.exp(nonmarkov.log_kernel_a11(s, 1.0)) == pytest.approx(math.exp(-2.5), rel=1e-12)


def test_kernel_vanishes_at_upper_support_for_smooth_companion():
    s = ScenarioParams(c=0.5, delta1=2.0, delta2=3.0, eps=0.5, z1=2.0, z2=1.0, z3=1.0)
    assert np.exp(nonmarkov.log_kernel_a11(s, 4.0 - 1e-9)) < 1e-4
    assert float(np.exp(nonmarkov.log_kernel_a11(s, 4.0 - 1e-13))) < 1e-6


def test_kernel_log_finite_at_tiny_coordinate():
    s = ScenarioParams(c=0.5, delta1=0.7, delta2=1.0, eps=0.5, z1=2.0, z2=1.0, z3=1.0)
    assert np.isfinite(nonmarkov.log_kernel_a11(s, 1e-12))


def test_kernel_domain_guard():
    s = ScenarioParams(c=0.5, delta1=2.0, delta2=2.0, eps=0.5, z1=2.0, z2=1.0, z3=1.0)
    with pytest.raises(DomainError):
        nonmarkov.log_kernel_a11(s, 4.0)
    with pytest.raises(DomainError):
        nonmarkov.log_kernel_a11(s, -0.1)


@pytest.mark.parametrize("d1,d2,z1,z2", [(1.0, 1.0, 1.5, 2.0), (2.0, 3.0, 0.8, 2.5)])
def test_limit_pair_collapses_at_unit_coupling(d1, d2, z1, z2):
    # at c=1 the hidden-coordinate integral reassembles the additive process:
    # the limit pair object is exactly one transition density of dimension
    # delta1+delta2
    s = ScenarioParams(c=1.0, delta1=d1, delta2=d2, eps=None, z1=z1, z2=z2, z3=1.0)
    got = nonmarkov.joint_density_pair(s)
    want = besq.transition_density(BesqParams(d1 + d2), 1.0, z1, z2)
    assert got == pytest.approx(want, rel=1e-6)


def test_pair_marginal_matches_direct_convolution():
    # integrating the pair density out of its z2 coordinate must leave the
    # one-time density of the weighted sum at z1, computable independently as
    # a single convolution of the two started-at-zero kernels
    s = ScenarioParams(c=0.6, delta1=1.5, delta2=2.5, eps=0.4, z1=1.2, z2=2.5, z3=1.0)

    x, w = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for lo, hi in [(0.0, 8.0), (8.0, 80.0)]:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xi, wi in zip(x, w):
            total += wi * half * nonmarkov.joint_density_pair(
                dataclasses.replace(s, z2=float(mid + half * xi))
            )

    spec = QuadratureSpec(1e-10, 12, min(0.5 * s.delta1, 1.0), min(0.5 * s.delta2, 1.0))
    direct = quadrature.integrate(
        lambda x1: np.exp(nonmarkov.log_kernel_a11(s, x1)),
        0.0,
        nonmarkov._upper_support(s.z1, s.c),
        spec,
    )
    assert direct.converged
    assert total == pytest.approx(direct.value, rel=1e-4)


# Drawn once from seeded uniforms over c in (0.3,0.9), delta1 in (1,3),
# delta2 in (2,4), eps in (0.2,0.6), z1 in (0.5,2.5), z2 in (1,4), then
# frozen; delta2 >= 2 keeps the z3 -> 0 end of the outer integral bounded.
MARGINALIZATION_SCENARIOS = [
    (0.407, 2.28, 2.935, 0.348, 1.21, 3.372),
    (0.843, 1.355, 3.306, 0.319, 2.434, 3.76),
    (0.682, 2.505, 3.03, 0.53, 1.397, 2.016),
    (0.467, 1.453, 3.052, 0.372, 1.826, 1.039),
    (0.569, 1.73, 2.391, 0.438, 1.371, 1.9),
]


@pytest.mark.parametrize("c,d1,d2,eps,z1,z2", MARGINALIZATION_SCENARIOS)
def test_triple_marginalizes_to_pair(c, d1, d2, eps, z1, z2):
    # fixed two-panel Gauss-Legendre in z3: the integrand decays like
    # e^{-z3/2(1+c)}, so the tail panel ending 62 past z2 is exhaustive; an
    # adaptive outer rule would re-run the triple quadrature hundreds of times
    s = ScenarioParams(c=c, delta1=d1, delta2=d2, eps=eps, z1=z1, z2=z2, z3=1.0)
    pair = nonmarkov.joint_density_pair(s)
    x, w = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for lo, hi in [(0.0, z2 + 2.0), (z2 + 2.0, z2 + 62.0)]:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xi, wi in zip(x, w):
            v = nonmarkov.joint_density_triple(dataclasses.replace(s, z3=float(mid + half * xi)))
            assert v >= 0.0
            total += wi * half * v
    assert total == pytest.approx(pair, rel=1e-4)


def _recursive_kernel_logs(s):
    """Pair and triple kernel integrals node by node, as the batched pass's oracle.

    Same log-integrands as nonmarkov's one outer pass over x2, but each
    row's x2 axis runs as its own one-row quadrature.integrate_rows
    call, and so does every g(x2) = int A11 A12 dx1 and h(x2) = int A13 dx3.
    Returns the pair and triple logs and the x1 plus x3 points the batched
    pass spends: g at every x2 node of either row and h at every x2 node of
    the triple.
    """
    specs = nonmarkov._scenario_specs(s.delta1, s.delta2)
    b1, b2, b3 = (nonmarkov._upper_support(z, s.c) for z in (s.z1, s.z2, s.z3))

    def log_integral(log_f, hi, spec):
        # (log value, points, x nodes in the order the rule visits them)
        nodes = []

        def one_row(rows, x):
            nodes.extend(x.tolist())
            return log_f(x)

        res = quadrature.integrate_rows(one_row, 1, 0.0, hi, spec).row(0)
        assert res.converged
        return res.value, res.evaluations, nodes

    memo = {}

    def factors(x2):
        # (log g, g points, log h, h points) at one x2 node
        if x2 not in memo:
            if s.eps is not None:
                g = log_integral(
                    lambda x1: nonmarkov.log_kernel_a11(s, x1) + nonmarkov._log_a12(s, x1, x2),
                    b1, specs["x1"],
                )[:2]
            else:
                g = (float(nonmarkov._log_a21(s.c, s.delta1, s.delta2, s.z1, s.z2, x2)), 0)
            h = log_integral(lambda x3: nonmarkov._log_a13(s, x2, x3), b3, specs["x3"])[:2]
            memo[x2] = g + h
        return memo[x2]

    def row(with_h):
        # (log value, x2 nodes in the order the rule visits them)
        def log_f(x2):
            return np.array([f[0] + (f[2] if with_h else 0.0) for f in map(factors, x2.tolist())])

        value, _, nodes = log_integral(log_f, b2, specs["limit" if s.eps is None else "x2"])
        return value, nodes

    (pair, pair_nodes), (triple, triple_nodes) = row(False), row(True)
    # both rows visit the same level sequence; the longer list is its union
    union = max(pair_nodes, triple_nodes, key=len)
    assert union[: min(len(pair_nodes), len(triple_nodes))] == min(pair_nodes, triple_nodes, key=len)
    points = sum(factors(v)[1] for v in union) + sum(factors(v)[3] for v in triple_nodes)
    return pair, triple, points


@pytest.mark.parametrize(
    "s",
    [
        witness_scenario(0.5, 1.0),
        ScenarioParams(c=0.5, delta1=2.0, delta2=3.0, eps=0.5, z1=1.0, z2=4.0, z3=4.0),
    ],
    ids=["delta2<2", "delta2>=2"],
)
def test_batched_kernel_integrals_match_recursive_oracle(s):
    for scenario in (s, dataclasses.replace(s, eps=None)):
        pair, triple = nonmarkov._kernel_logs(scenario)
        want_pair, want_triple, points = _recursive_kernel_logs(scenario)
        for batched, log_value in ((pair, want_pair), (triple, want_triple)):
            assert batched.converged
            assert math.exp(batched.value - log_value) == pytest.approx(1.0, abs=1e-12)
            assert batched.evaluations == points


# Points of the twelve conditional ratios at c=0.5, eps=0.5, z1=1, z2=4 (x1
# plus x3 points; the eps -> 0 kernel has no x1 axis), frozen from the
# per-node oracle above: (delta1, delta2, z3) -> (finite eps, eps -> 0).
RATIO_EVALUATIONS = {
    (1.0, 1.0, 1.0): (11250, 5625),
    (1.0, 1.0, 4.0): (11250, 5625),
    (1.0, 1.0, 8.0): (11250, 5625),
    (2.0, 3.0, 1.0): (14876, 11175),
    (2.0, 3.0, 4.0): (20426, 11175),
    (2.0, 3.0, 8.0): (20426, 22201),
}


@pytest.mark.parametrize("d1,d2,z3", list(RATIO_EVALUATIONS))
def test_ratio_evaluation_counts_frozen(d1, d2, z3):
    s = ScenarioParams(c=0.5, delta1=d1, delta2=d2, eps=0.5, z1=1.0, z2=4.0, z3=z3)
    for eps, want in zip((0.5, None), RATIO_EVALUATIONS[(d1, d2, z3)]):
        detail = nonmarkov.conditional_ratio_detail(dataclasses.replace(s, eps=eps))
        assert detail.evaluations == want


# Kernel density calls of the same twelve ratios, (finite eps, eps -> 0).
# Each integral's levels 0-2 share one integrand call, on the outer x2 axis
# as on the inner x1 and x3 rows, so a ratio makes a few dozen array calls
# whatever its point count.  The eps -> 0 kernel A21 takes its restarted X
# factor from the closed-form Gamma density, with no density call.
RATIO_DENSITY_CALLS = {
    (1.0, 1.0, 1.0): (16, 10),
    (1.0, 1.0, 4.0): (16, 10),
    (1.0, 1.0, 8.0): (16, 10),
    (2.0, 3.0, 1.0): (20, 15),
    (2.0, 3.0, 4.0): (24, 15),
    (2.0, 3.0, 8.0): (24, 21),
}


@pytest.mark.parametrize("d1,d2,z3", list(RATIO_DENSITY_CALLS))
def test_ratio_density_calls_frozen(monkeypatch, d1, d2, z3):
    calls = []
    density = besq.log_transition_density

    def counted(*args, **kwargs):
        calls.append(1)
        return density(*args, **kwargs)

    monkeypatch.setattr(besq, "log_transition_density", counted)
    s = ScenarioParams(c=0.5, delta1=d1, delta2=d2, eps=0.5, z1=1.0, z2=4.0, z3=z3)
    for eps, want in zip((0.5, None), RATIO_DENSITY_CALLS[(d1, d2, z3)]):
        calls.clear()
        nonmarkov.conditional_ratio_detail(dataclasses.replace(s, eps=eps))
        assert len(calls) == want


# Error estimates of the same twelve ratios, frozen when the inner error of a
# batch of x2 nodes was its worst row, so that the triple's error summed two
# batch maxima and grew with the batch: (delta1, delta2, z3) -> ((pair
# error, ratio rel_error_estimate) at finite eps, the same at eps -> 0).  The
# pair error must not move, and the ratio's estimate must not rise.
RATIO_ERRORS = {
    (1.0, 1.0, 1.0): ((2.980232238769532e-08, 7.450580596923831e-08),
                      (1.490116119384766e-08, 4.470348358154298e-08)),
    (1.0, 1.0, 4.0): ((2.980232238769532e-08, 7.450580596923831e-08),
                      (1.490116119384766e-08, 4.470348358154298e-08)),
    (1.0, 1.0, 8.0): ((2.980232238769532e-08, 7.450580596923831e-08),
                      (1.490116119384766e-08, 4.470348358154298e-08)),
    (2.0, 3.0, 1.0): ((1.058452348457296e-09, 3.1403630361238536e-09),
                      (7.438287364176845e-16, 6.475031170409388e-11)),
    (2.0, 3.0, 4.0): ((1.058452348457296e-09, 2.3169105792113744e-09),
                      (7.438287364176845e-16, 6.1429638769234e-11)),
    (2.0, 3.0, 8.0): ((1.058452348457296e-09, 2.055199369919797e-09),
                      (7.438287364176845e-16, 3.0295346554593128e-15)),
}


@pytest.mark.parametrize("d1,d2,z3", list(RATIO_ERRORS))
def test_ratio_error_estimates_do_not_rise(d1, d2, z3):
    s = ScenarioParams(c=0.5, delta1=d1, delta2=d2, eps=0.5, z1=1.0, z2=4.0, z3=z3)
    for eps, (pair_error, rel_error) in zip((0.5, None), RATIO_ERRORS[(d1, d2, z3)]):
        s_eps = dataclasses.replace(s, eps=eps)
        pair, _ = nonmarkov._kernel_logs(s_eps)
        assert pair.error_estimate == pair_error
        assert nonmarkov.conditional_ratio_detail(s_eps).rel_error_estimate <= rel_error


def test_log_integrand_not_finite_on_the_first_level_raises(monkeypatch):
    # an A13 kernel that underflowed to -inf at every node leaves h with no
    # scale to integrate on: a typed failure, not a ratio of 0
    monkeypatch.setattr(
        nonmarkov, "_log_a13", lambda s, x2, x3: np.full(np.broadcast(x2, x3).shape, -np.inf)
    )
    with pytest.raises(ConvergenceError, match="not finite anywhere on the first level"):
        nonmarkov.conditional_ratio_detail(witness_scenario(0.5, 1.0))


@pytest.mark.parametrize(
    "call, axis",
    [
        (nonmarkov.conditional_ratio_detail, "x1"),
        (nonmarkov.joint_density_pair, "x1"),
        (nonmarkov.zero_limit_weighted_triple, "limit"),
        (lambda s: nonmarkov.lemma3_ratio_check(0.5, 2.0, 10.0, s.c, s.delta1, s.delta2), "limit"),
    ],
    ids=["ratio", "pair", "zero-limit", "lemma3"],
)
def test_unconverged_rows_raise_naming_their_axis(call, axis):
    # at delta2 = 0.5 the singular endpoint z/c floors every row's relative
    # error far above its 1e-7 tolerance: each entry point raises from the
    # one gate, which names the axis whose rows failed
    s = ScenarioParams(c=0.5, delta1=1.0, delta2=0.5, eps=0.5, z1=1.0, z2=4.0, z3=1.0)
    with pytest.raises(ConvergenceError, match=f"^{axis} quadrature did not converge"):
        call(s)


def test_conditional_ratio_normalizes():
    # the ratio is a conditional density in z3; its total mass is 1
    s = witness_scenario(0.5, 1.0)
    x, w = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for lo, hi in [(0.0, 6.0), (6.0, 66.0)]:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xi, wi in zip(x, w):
            z3 = float(mid + half * xi)
            d = nonmarkov.conditional_ratio_detail(dataclasses.replace(s, z3=z3))
            total += wi * half * d.ratio
    assert total == pytest.approx(1.0, abs=1e-4)


MARKOV_ORACLE_CASES = [
    (1.0, 1.0, 0.3, 0.8, 2.0, 1.5),
    (1.0, 1.0, 0.5, 1.5, 2.0, 1.5),
    (1.0, 1.0, 0.7, 2.5, 2.0, 1.5),
    (1.0, 1.0, 0.5, 1.5, 1.0, 3.0),
    (1.0, 1.0, 0.5, 1.5, 3.0, 0.7),
    (2.0, 3.0, 0.4, 1.0, 2.0, 2.5),
]


@pytest.mark.parametrize("d1,d2,eps,z1,z2,z3", MARKOV_ORACLE_CASES)
def test_unit_coupling_ratio_forgets_the_past(d1, d2, eps, z1, z2, z3):
    # at c=1 the conditional law of the endpoint is a single transition
    # density of the summed dimension, whatever (eps, z1) the past supplies.
    # conditional_ratio_detail takes that kernel directly, so the kernel integrals
    # of both kernels are divided here to check that they collapse onto it,
    # and that the reported error covers the distance to it
    s = ScenarioParams(c=1.0, delta1=d1, delta2=d2, eps=eps, z1=z1, z2=z2, z3=z3)
    want = besq.transition_density(BesqParams(d1 + d2), 1.0, z2, z3)
    for scenario in (s, dataclasses.replace(s, eps=None)):
        pair, triple = nonmarkov._kernel_logs(scenario)
        got = math.exp(triple.value - pair.value)
        rel_error = pair.error_estimate + triple.error_estimate
        assert got == pytest.approx(want, rel=1e-5)
        assert abs(got - want) <= rel_error * want
        assert rel_error <= 1e-6


@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize("eps", [0.3, None])
def test_exact_couplings_take_the_single_kernel(c, eps):
    # Z = Y at c=0 and Z = BESQ(delta1+delta2) at c=1: no quadrature runs
    s = ScenarioParams(c=c, delta1=1.5, delta2=2.5, eps=eps, z1=1.0, z2=4.0, z3=2.0)
    detail = nonmarkov.conditional_ratio_detail(s)
    delta = 2.5 if c == 0.0 else 4.0
    assert detail.ratio == besq.transition_density(BesqParams(delta), 1.0, 4.0, 2.0)
    assert (detail.rel_error_estimate, detail.evaluations) == (0.0, 0)


@pytest.mark.parametrize("c", [0.0, 2.0])
def test_kernel_integrals_refuse_couplings_outside_unit_interval(c):
    # c=0 has no hidden coordinate, and c>1 needs the swap that only
    # conditional_ratio_detail makes
    s = ScenarioParams(c=c, delta1=1.0, delta2=1.0, eps=0.5, z1=1.0, z2=4.0, z3=1.0)
    for density in (nonmarkov.joint_density_pair, nonmarkov.joint_density_triple):
        for eps in (0.5, None):
            with pytest.raises(DomainError):
                density(dataclasses.replace(s, eps=eps))


def test_ratio_depends_on_conditioning_below_unit_coupling():
    details = {k: nonmarkov.conditional_ratio_detail(witness_scenario(*k)) for k in WITNESS_RATIOS}
    for key, d in details.items():
        assert d.ratio == pytest.approx(WITNESS_RATIOS[key], rel=2e-3)

    # 2x2 grid: the spread dwarfs what quadrature error could fake
    grid = [(0.3, 1.0), (0.3, 3.0), (0.5, 1.0), (0.5, 3.0)]
    ratios = [details[k].ratio for k in grid]
    mean = sum(ratios) / 4.0
    magnitude = max(abs(r - mean) / mean for r in ratios)
    worst_err = max(details[k].rel_error_estimate for k in grid)
    assert magnitude > 10.0 * worst_err
    assert magnitude == pytest.approx(WITNESS_MAGNITUDE, rel=0.1)

    # the near/far pair alone already separates by more than a percent
    near, far = details[(0.5, 1.0)].ratio, details[(0.5, 8.0)].ratio
    assert abs(near - far) / max(near, far) > 1e-2


def test_small_eps_sweep_approaches_limit_kernel():
    # the limit object is its own code path; the finite-eps quadrature must
    # walk into it.  The O(eps) coefficient varies with the scenario; these
    # settings resolve the final gap below 1e-3 within the swept eps range.
    base = dict(c=0.3, delta1=1.0, delta2=1.0, z1=1.0, z2=4.0, z3=1.0)
    lim = nonmarkov.conditional_ratio_detail(ScenarioParams(eps=None, **base)).ratio
    gaps = []
    for eps in (0.2, 0.05, 0.01):
        r = nonmarkov.conditional_ratio_detail(ScenarioParams(eps=eps, **base)).ratio
        gaps.append(abs(r - lim) / lim)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_small_eps_sweep_approaches_limit_kernel_above_unit_coupling():
    # at c=2 the eps -> 0 split of z1 lands on X, so the limit kernel must
    # run on the law of Z/2 with the dimensions swapped; A21 fed c=2
    # directly reads 0.0705 here against the 0.0765 the sweep walks into
    base = dict(c=2.0, delta1=1.5, delta2=1.0, z1=1.0, z2=4.0, z3=1.0)
    lim = nonmarkov.conditional_ratio_detail(ScenarioParams(eps=None, **base)).ratio
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        r = nonmarkov.conditional_ratio_detail(ScenarioParams(eps=eps, **base)).ratio
        gaps.append(abs(r - lim) / lim)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


@pytest.mark.parametrize("c,d1,d2", [(0.5, 1.0, 1.0), (0.3, 2.0, 3.0)])
def test_zero_limit_matches_weighted_triple(c, d1, d2):
    s = ScenarioParams(c=c, delta1=d1, delta2=d2, eps=None, z1=1.0, z2=2.0, z3=1e-5)
    lhs = s.z3 ** (1.0 - 0.5 * (d1 + d2)) * nonmarkov.joint_density_triple(s)
    rhs = nonmarkov.zero_limit_weighted_triple(s)
    assert rhs > 0.0
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_zero_limit_weight_cancels_at_dimension_two():
    # delta1+delta2=2 removes the z3 power entirely: the raw triple density
    # converges to the limit object with no reweighting
    s = ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=None, z1=1.0, z2=2.0, z3=1e-6)
    raw = nonmarkov.joint_density_triple(s)
    assert raw == pytest.approx(nonmarkov.zero_limit_weighted_triple(s), rel=1e-3)


def test_r_dependence_algebra():
    assert nonmarkov.d_of_r(1.0, 0.5) == pytest.approx(1.5, rel=1e-15)
    assert nonmarkov.d_of_r(1e12, 0.5) == pytest.approx(1.0, abs=1e-5)
    for c in (0.1, 0.5, 0.9):
        assert nonmarkov.d_of_r(0.0, c) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        nonmarkov.d_of_r(-1.0, 0.5)
    with pytest.raises(DomainError):
        nonmarkov.d_of_r(1.0, 1.0)


def test_r_dependence_monotone_and_bounded():
    # a log grid over r in [1e-6, 1e6], end points included, at couplings
    # across [0.01, 0.99]: bounded by (1, 2) and non-increasing in r
    r = np.geomspace(1e-6, 1e6, 121)
    for c in np.linspace(0.01, 0.99, 15):
        d = np.array([nonmarkov.d_of_r(float(v), float(c)) for v in r])
        assert np.all((1.0 < d) & (d < 2.0))
        assert np.all(np.diff(d) <= 0.0)


def test_far_field_double_ratio_converges_to_r_law():
    residuals = [
        nonmarkov.lemma3_ratio_check(1.0, 4.0, z2, 0.5, 1.0, 1.0) for z2 in (10.0, 20.0, 40.0)
    ]
    assert abs(residuals[0]) > abs(residuals[1]) > abs(residuals[2])
    assert abs(residuals[2]) < 0.05
    assert len({math.copysign(1.0, r) for r in residuals}) == 1


# lemma3 residuals at c = 0.5, delta1 = delta2, r = (0.5, 2), recorded
# before the A21 rows were shared between q_tilde and q: (delta, z2) -> residual
LEMMA3_RESIDUALS = {
    (1.0, 100.0): -0.00036617467932553716,
    (1.0, 1000.0): -3.6146346125587314e-05,
    (8.0, 100.0): 0.008185941895473947,
    (8.0, 1000.0): 0.0007642580863682635,
    (60.0, 100.0): 0.07548105831777663,
    (60.0, 1000.0): 0.0032721345907300164,
}


@pytest.mark.parametrize("delta,z2", list(LEMMA3_RESIDUALS))
def test_lemma3_residuals_frozen(delta, z2):
    got = nonmarkov.lemma3_ratio_check(0.5, 2.0, z2, 0.5, delta, delta)
    assert got == pytest.approx(LEMMA3_RESIDUALS[(delta, z2)], rel=1e-13)


# Integrand calls of lemma3 at c = 0.5, delta1 = delta2, r = (0.5, 2):
# (delta, z2) -> calls.  Each call takes one A21 row per r, whose restarted
# X factor is the closed-form Gamma density, so it makes one density call
LEMMA3_INTEGRAND_CALLS = {(1.0, 10.0): 3, (8.0, 100.0): 4, (60.0, 1000.0): 5}


@pytest.mark.parametrize("delta,z2", list(LEMMA3_INTEGRAND_CALLS))
def test_lemma3_density_calls_frozen(monkeypatch, delta, z2):
    density_calls, integrand_calls = [], []
    density, integrate_rows = besq.log_transition_density, quadrature.integrate_rows

    def counted_density(*args, **kwargs):
        density_calls.append(1)
        return density(*args, **kwargs)

    def counted_rows(f, *args, **kwargs):
        def counted_f(rows, x):
            integrand_calls.append(rows.size)
            return f(rows, x)

        return integrate_rows(counted_f, *args, **kwargs)

    monkeypatch.setattr(besq, "log_transition_density", counted_density)
    monkeypatch.setattr(quadrature, "integrate_rows", counted_rows)
    nonmarkov.lemma3_ratio_check(0.5, 2.0, z2, 0.5, delta, delta)
    assert len(integrand_calls) == LEMMA3_INTEGRAND_CALLS[(delta, z2)]
    assert len(density_calls) == len(integrand_calls)


# z2 * residual of lemma3 at c = 0.5, delta1 = delta2 = delta, r = (r1, r2),
# at z2 = 1e3, 1e4, 1e5: (delta, r1, r2) -> values
LEMMA3_SCALED_RESIDUALS = {
    (1.0, 0.25, 4.0): (-0.06699990387670773, -0.06690607963877326, -0.0668955391636139),
    (1.0, 0.5, 2.0): (-0.036146346125587314, -0.03610020241850975, -0.03609590337738666),
    (3.0, 0.25, 4.0): (0.06068457334662547, 0.06040482316227447, 0.06037795234892229),
    (3.0, 0.5, 2.0): (0.03941754811820353, 0.03923264726424236, 0.03921394685635349),
    (8.0, 0.25, 4.0): (0.9436002151872458, 0.9360844326611328, 0.9353367792286349),
    (8.0, 0.5, 2.0): (0.7642580863682635, 0.758988325286758, 0.7584631193324753),
}


@pytest.mark.parametrize("delta,r1,r2", list(LEMMA3_SCALED_RESIDUALS))
def test_lemma3_residual_decays_as_one_over_z2(delta, r1, r2):
    # the Laplace limit is approached at rate 1/z2: z2 * residual settles on
    # a constant, each decade of z2 cutting its change by about 10x
    frozen = LEMMA3_SCALED_RESIDUALS[(delta, r1, r2)]
    def scaled(z2):
        return z2 * nonmarkov.lemma3_ratio_check(r1, r2, z2, 0.5, delta, delta)

    got = [scaled(z2) for z2 in (1e3, 1e4, 1e5)]
    assert got == pytest.approx(frozen, abs=1e-8)
    steps = np.abs(np.diff(got))
    assert steps[1] * 5.0 <= steps[0]
    if delta == 1.0:
        # the delta2 < 2 rows ask for 1e-7 and so run on to z2 = 1e6
        assert scaled(1e6) == pytest.approx(got[-1], abs=1e-4)


def test_far_field_double_ratio_trivial_cases():
    assert nonmarkov.lemma3_ratio_check(2.0, 2.0, 10.0, 0.5, 1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        nonmarkov.lemma3_ratio_check(-1.0, 2.0, 10.0, 0.5, 1.0, 1.0)


@pytest.mark.parametrize(
    "r1,r2,z2", [(math.inf, 2.0, 10.0), (0.5, math.inf, 10.0), (0.5, 2.0, math.inf)],
    ids=["r1", "r2", "z2"],
)
def test_far_field_double_ratio_refuses_non_finite_inputs(monkeypatch, r1, r2, z2):
    # refused before any integral runs: an infinite level would reach the
    # kernels as inf - inf
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the argument check")

    monkeypatch.setattr(quadrature, "integrate_rows", no_integral)
    with pytest.raises(DomainError, match="finite"):
        nonmarkov.lemma3_ratio_check(r1, r2, z2, 0.5, 1.0, 1.0)


def test_deep_tail_ratio_converges():
    # at z1 = 4000 the pair density is far below the smallest double, but
    # pair and triple are logs with relative errors, so their quotient is an
    # ordinary number with an honest error
    s = ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=0.5, z1=4000.0, z2=4.0, z3=1.0)
    got = nonmarkov.conditional_ratio_detail(s)
    assert abs(got.ratio - 0.1123851552) <= got.rel_error_estimate * got.ratio
    # towards c = 1 it meets the single BESQ(2) kernel of the Markov coupling
    near_one = nonmarkov.conditional_ratio_detail(dataclasses.replace(s, c=0.999999))
    assert near_one.ratio == pytest.approx(
        besq.transition_density(BesqParams(2.0), 1.0, 4.0, 1.0), abs=1e-7
    )
    # c = 2 at doubled levels is the same law of Z/2, with Jacobian 1/2
    swapped = ScenarioParams(c=2.0, delta1=1.0, delta2=1.0, eps=0.5, z1=8000.0, z2=8.0, z3=2.0)
    assert nonmarkov.conditional_ratio_detail(swapped).ratio == 0.5 * got.ratio


def test_scenario_validation():
    good = dict(delta1=1.0, delta2=1.0, eps=0.5, z1=1.0, z2=1.0, z3=1.0)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            ScenarioParams(c=bad, **good)
    with pytest.raises(DomainError):
        ScenarioParams(c=0.5, delta1=0.0, delta2=1.0, eps=0.5, z1=1.0, z2=1.0, z3=1.0)
    with pytest.raises(DomainError):
        ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=1.0, z1=1.0, z2=1.0, z3=1.0)
    # eps=None names the eps -> 0 kernel
    assert ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=None, z1=1.0, z2=1.0, z3=1.0)
    with pytest.raises(DomainError):
        ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=0.5, z1=-1.0, z2=1.0, z3=1.0)


def test_upper_support_product_stays_below():
    # the ends of z in [1e-3, 1e6] and c in [0.01, 1], couplings whose
    # reciprocal is not a float, and 2000 seeded draws (z log-uniform)
    rng = np.random.default_rng(20)
    edges = [(z, c) for z in (1e-3, 1.0, 65.2, 1e6) for c in (0.01, 0.1, 0.35, 0.7, 0.99, 1.0)]
    draws = zip(10.0 ** rng.uniform(-3.0, 6.0, 2000), rng.uniform(0.01, 1.0, 2000))
    for z, c in [*edges, *draws]:
        z, c = float(z), float(c)
        b = nonmarkov._upper_support(z, c)
        assert 0.0 < b <= z / c
        assert c * b < z
        assert (z / c - b) <= 4.0 * math.ulp(z / c)


def test_inexact_coupling_reciprocal_regression():
    # 1/0.35 is not a float; nodes hugging the raw z3/0.35 bound used to push
    # the companion argument to exactly zero and abort the innermost integral
    s = ScenarioParams(c=0.35, delta1=2.7, delta2=3.4, eps=0.55, z1=0.8, z2=3.2, z3=65.2)
    v = nonmarkov.joint_density_triple(s)
    assert math.isfinite(v) and v > 0.0
