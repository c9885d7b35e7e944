"""Path sampling, window conditioning, KS machinery, and the probe grids."""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from scipy import special, stats

from besqlab import besq, nonmarkov, stattest
from oracles import window_pair_probability
from besqlab.errors import BudgetExhaustedError, DomainError
from besqlab.stattest import (
    ArmSpec,
    ConditioningWindow,
    MarkovCell,
    MarkovTestConfig,
    cmx_witness_config,
    zc_calibration_config,
    zc_witness_config,
)

rng = np.random.default_rng


def test_window_membership():
    w = ConditioningWindow(2.0, 0.5)
    assert w.contains(2.5) and w.contains(1.5) and w.contains(2.0)
    assert not w.contains(2.5000001)
    assert np.array_equal(w.contains(np.array([1.4, 1.6])), [False, True])
    with pytest.raises(DomainError):
        ConditioningWindow(1.0, 0.0)


def test_ks_identical_arrays():
    a = np.array([0.1, 0.7, 0.4, 2.0])
    rep = stattest.ks_two_sample(a, a.copy(), alpha=0.001)
    assert rep.statistic == 0.0
    assert rep.verdict == "consistent"


def test_ks_shifted_uniforms_rejected():
    r = rng(17)
    a = r.uniform(0.0, 1.0, 10_000)
    b = r.uniform(0.5, 1.5, 10_000)
    rep = stattest.ks_two_sample(a, b, alpha=0.001)
    assert rep.verdict == "rejected"
    assert rep.statistic > 0.45
    assert rep.pvalue < 1e-10


def test_ks_same_law_calibration():
    # 1000 same-law comparisons: false rejections stay within 2x nominal
    rejected = 0
    for seed in range(1000):
        r = rng(seed)
        rep = stattest.ks_two_sample(r.normal(size=500), r.normal(size=500), alpha=0.001)
        rejected += rep.verdict == "rejected"
    assert rejected <= 2


def test_ks_empty_input():
    with pytest.raises(DomainError):
        stattest.ks_two_sample(np.array([]), np.array([1.0]), alpha=0.001)


def _z_paths(seed, c, d1, d2, times, n):
    # n exact paths of Z = c X + Y from zero, one batched path call per component
    r = rng(seed)
    x = besq.sample_path(r, besq.BesqParams(d1), np.zeros(n), times).values
    y = besq.sample_path(r, besq.BesqParams(d2), np.zeros(n), times).values
    return c * x + y


def test_weighted_sum_process_mean():
    n, c, d1, d2 = 40_000, 0.5, 1.0, 2.0
    z = _z_paths(21, c, d1, d2, [0.5, 2.0], n)
    assert z.shape == (n, 2) and np.all(z >= 0.0)
    ends = z[:, -1]
    want = (c * d1 + d2) * 2.0
    assert abs(ends.mean() - want) < 4.0 * ends.std() / math.sqrt(n)


def test_degenerate_weight_is_single_process():
    # c=0 leaves BESQ(delta2) alone; one-sample KS against its Gamma law
    vals = _z_paths(23, 0.0, 3.0, 1.0, [1.0], 4000)[:, 0]
    ks = stats.kstest(vals, stats.gamma(a=0.5, scale=2.0).cdf)
    assert ks.pvalue > 0.001


def test_unit_weight_adds_dimensions():
    vals = _z_paths(24, 1.0, 1.5, 2.5, [1.0], 4000)[:, 0]
    ks = stats.kstest(vals, stats.gamma(a=2.0, scale=2.0).cdf)
    assert ks.pvalue > 0.001


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
def test_sum_split_interval(c):
    # with X = S B and Y = S - X, Z = c X + Y lies in [min(1,c) S, max(1,c) S],
    # the interval that sets the sums the exact first stage draws S from
    r = rng(25)
    s = r.gamma(1.0, 2.0, 100_000) * np.exp(r.uniform(-30.0, 30.0, 100_000))
    b = np.concatenate([r.beta(0.5, 0.5, 99_998), [0.0, 1.0]])
    x = s * b
    z = c * x + (s - x)
    slack = 4.0 * np.finfo(float).eps * s
    assert np.all(z >= min(1.0, c) * s - slack)
    assert np.all(z <= max(1.0, c) * s + slack)
    # so the sums that can meet a window [1, 2] run from 1 / max(1, c) to 2 / min(1, c)
    factor = (c, 1.0) if c < 1.0 else (1.0, c)
    want = (1.0 / max(1.0, c), 2.0 / min(1.0, c) if c else math.inf)
    assert stattest._radius_range(*factor, 1.0, 2.0) == want


def _brute_force(r, start, advance, observe, eps, w1, w2, n):
    # the three stages by plain rejection: batches of unconditioned states at
    # eps, a window test, then the exact steps to 1 and 2
    values, proposed = [], 0
    while sum(v.size for v in values) < n:
        state = start(r, eps, 50_000)
        proposed += 50_000
        for window, length in ((w1, 1.0 - eps), (w2, 1.0)):
            keep = window.contains(observe(state))
            state = advance(r, tuple(part[keep] for part in state), length)
        values.append(observe(state))
    accepted = np.concatenate(values)
    return accepted[:n], accepted.size / proposed, proposed


def _zc_oracle(c, d1, d2):
    p1, p2 = besq.BesqParams(d1), besq.BesqParams(d2)

    def start(r, t, size):
        return r.gamma(0.5 * d1, 2.0 * t, size), r.gamma(0.5 * d2, 2.0 * t, size)

    def advance(r, state, t):
        return besq.sample_transitions(r, p1, t, state[0]), besq.sample_transitions(r, p2, t, state[1])

    return start, advance, lambda st: c * st[0] + st[1]


def _cmx_oracle(c):
    def start(r, t, size):
        return stattest._advance_max(r, (np.zeros(size), np.zeros(size)), t)

    return start, stattest._advance_max, lambda st: c * st[1] - st[0]


def _check_against_oracle(got, oracle_values, p, n_proposed):
    assert stattest.ks_two_sample(got.values, oracle_values, alpha=0.001).verdict == "consistent"
    # the survivor counts are Binomial(batch, p1), so both count the same
    # acceptance rate up to binomial noise; a wrong share law or a wrong p1
    # moves it
    assert abs(got.acceptance_rate - p) < 5.0 * math.sqrt(p / got.n_proposed + p / n_proposed)


@pytest.mark.parametrize("d1, d2", [(1.0, 1.0), (1.5, 2.5)])
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
def test_sum_split_first_stage_law(c, d1, d2):
    # oracle: independent Gamma draws of X(eps) and Y(eps), then the window test
    eps, n = 0.4, 12_000
    mean = c * d1 + d2  # E Z(t) = mean * t; both windows sit at the mean
    w1 = ConditioningWindow(mean * eps, 0.25 * mean * eps)
    w2 = ConditioningWindow(mean, 0.25 * mean)
    oracle = _brute_force(rng(26), *_zc_oracle(c, d1, d2), eps, w1, w2, n)
    got = stattest.conditional_sample(rng(27), c, d1, d2, eps, w1, w2, n)
    _check_against_oracle(got, *oracle)


@pytest.mark.parametrize(
    "c, w1, w2",
    [
        (0.0, (-0.6, 0.1), (0.2, 0.06)),
        (0.5, (-0.6, 0.1), (0.2, 0.06)),
        (0.5, (1.2, 0.12), (0.2, 0.06)),
        (1.0, (0.15, 0.05), (0.35, 0.07)),
        (2.0, (0.5, 0.05), (1.1, 0.11)),
        (3.0, (0.8, 0.1), (1.5, 0.15)),
    ],
)
def test_pitman_first_stage_law(c, w1, w2):
    # oracle: the exact bridge-maximum step from zero, then the window test
    eps, n = 0.5, 8_000
    w1, w2 = ConditioningWindow(*w1), ConditioningWindow(*w2)
    oracle = _brute_force(rng(28), *_cmx_oracle(c), eps, w1, w2, n)
    got = stattest.conditional_sample_cmx(rng(29), c, eps, w1, w2, n)
    _check_against_oracle(got, *oracle)


@pytest.mark.parametrize(
    "shape, lo, hi",
    [
        (1.0, 7.2, 17.6),  # exponential: the tangent is the density
        (2.5, 0.5, 1.0),  # below the mode: rising tangent at hi
        (2.5, 1.0, 2.0),  # around the mode: flat tangent
        (2.5, 3.0, math.inf),  # falling tangent at lo
        (2.5, 0.0, math.inf),  # no finite flat envelope: plain draws
        (0.5, 0.4, 0.6),  # convex: chord
        (0.5, 2.0, math.inf),  # convex, unbounded: slope -1
        (0.5, 0.0, 3.0),  # convex from 0: plain draws keep more than the power law
        (0.5, 0.0, 0.3),  # convex from 0, narrow: the power law
    ],
)
def test_truncated_gamma_proposals_keep_the_truncated_law(shape, lo, hi):
    proposal = stattest._TruncatedGamma(shape, lo, hi)
    r, n = rng(33), 200_000
    x, log_ratio = proposal.propose(r, n)
    kept = x[r.random(n) < np.exp(log_ratio)]
    law = stats.gamma(shape)
    cut = law.sf(lo) - law.sf(hi)
    assert stats.kstest(kept, lambda q: (law.sf(lo) - law.sf(q)) / cut).pvalue > 0.001
    eff = proposal.efficiency
    assert abs(kept.size / n - eff) < 5.0 * math.sqrt(eff * (1.0 - eff) / n) + 1e-12


@pytest.mark.parametrize(
    "alpha, beta", [(0.5, 0.5), (0.75, 1.25), (3.0, 1.0), (3.0, 2.0), (1.5, 7.0)]
)
@pytest.mark.parametrize("width", [0.05, 0.3, 0.9])
def test_widest_beta_mass_bounds_every_interval(alpha, beta, width):
    # the bound is the largest mass over a fine grid of interval positions,
    # which it meets up to the grid's step
    starts = np.linspace(0.0, 1.0 - width, 20_001)
    masses = special.betainc(alpha, beta, starts + width) - special.betainc(alpha, beta, starts)
    bound = stattest._widest_beta_mass(alpha, beta, width)
    assert bound >= masses.max() - 1e-14
    assert bound <= masses.max() + 1e-6


@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize("w1", [(1.0, 0.1), (0.05, 0.1), (8.0, 0.8)])
def test_zc_first_window_probability_closed_forms(c, w1):
    # at c = 1, Z(eps) is the Gamma sum; at c = 0 it is Y(eps) alone
    d1, d2, eps = 1.5, 2.5, 0.5
    w1 = ConditioningWindow(*w1)
    a, b = max(w1.center - w1.halfwidth, 0.0), w1.center + w1.halfwidth
    shape = 0.5 * (d1 + d2) if c == 1.0 else 0.5 * d2
    law = stats.gamma(shape, scale=2.0 * eps)
    want = law.sf(a) - law.sf(b) if a > law.mean() else law.cdf(b) - law.cdf(a)
    got = stattest._zc_first_stage(c, d1, d2, eps, w1).p1
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "c, law",
    [
        (0.0, lambda eps: stats.norm(scale=math.sqrt(eps))),
        (1.0, lambda eps: stats.halfnorm(scale=math.sqrt(eps))),
        (2.0, lambda eps: stats.maxwell(scale=math.sqrt(eps))),
    ],
    ids=["normal", "reflected", "maxwell"],
)
@pytest.mark.parametrize("w1", [(-0.6, 0.1), (0.05, 0.1), (0.5, 0.05), (1.8, 0.18)])
def test_cmx_first_window_probability_closed_forms(c, law, w1):
    # c M - X at eps is -X (normal), M - X (|normal|) or 2M - X (Maxwell)
    eps = 0.5
    w1 = ConditioningWindow(*w1)
    a, b = w1.center - w1.halfwidth, w1.center + w1.halfwidth
    dist = law(eps)
    want = dist.sf(a) - dist.sf(b) if a > dist.median() else dist.cdf(b) - dist.cdf(a)
    got = stattest._cmx_first_stage(c, eps, w1).p1
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("c", [0.25, 0.5, 2.0])
def test_first_window_probability_matches_brute_force(c):
    # the share of unconditioned states at eps that land in w1, within 5 sd
    eps, n = 0.5, 2_000_000
    for w1 in (ConditioningWindow(1.0, 0.1), ConditioningWindow(0.3, 0.1)):
        r = rng(30)
        for stage, (start, _, observe) in (
            (stattest._zc_first_stage(c, 1.0, 3.0, eps, w1), _zc_oracle(c, 1.0, 3.0)),
            (stattest._cmx_first_stage(c, eps, w1), _cmx_oracle(c)),
        ):
            rate = float(np.mean(w1.contains(observe(start(r, eps, n)))))
            assert abs(stage.p1 - rate) < 5.0 * math.sqrt(stage.p1 * (1.0 - stage.p1) / n)


@pytest.mark.parametrize(
    "process, c",
    [("zc", 0.0), ("zc", 0.5), ("zc", 1.0), ("zc", 2.0), ("cmx", 0.0), ("cmx", 0.5), ("cmx", 3.0)],
)
def test_first_stage_states_match_brute_force(process, c):
    # each coordinate of the hidden state at eps given the first window,
    # (x, y) or (x, m), against unconditioned states kept by the window test;
    # at c = 0 the zc state is y alone
    eps, n = 0.5, 20_000
    w1 = ConditioningWindow(1.0, 0.2)
    if process == "zc":
        stage = stattest._zc_first_stage(c, 1.5, 2.5, eps, w1)
        start, _, observe = _zc_oracle(c, 1.5, 2.5)
    else:
        stage = stattest._cmx_first_stage(c, eps, w1)
        start, _, observe = _cmx_oracle(c)
    r = rng(34)
    state = start(r, eps, 1_000_000)
    oracle = [part[w1.contains(observe(state))] for part in state]
    if (process, c) == ("zc", 0.0):
        oracle = oracle[1:]
    for got, want in zip(stage.draw(r, n), oracle, strict=True):
        assert stattest.ks_two_sample(got, want, alpha=0.001).verdict == "consistent"


@pytest.mark.parametrize("c", [0.0, 0.5, 2.0, 1e308])
def test_first_stage_draws_land_in_the_window(c):
    w1 = ConditioningWindow(1.0, 0.1)
    for stage, observe in (
        (
            stattest._zc_first_stage(c, 1.0, 1.0, 0.5, w1),
            lambda st: st[0] if c == 0.0 else c * st[0] + st[1],
        ),
        (stattest._cmx_first_stage(c, 0.5, w1), lambda st: c * st[1] - st[0]),
    ):
        if stage.p1 < 1e-12:
            continue
        values = observe(stage.draw(rng(31), 20_000))
        assert values.size == 20_000
        assert np.all(np.abs(values - w1.center) <= w1.halfwidth * (1.0 + 1e-12))


def test_zero_coupling_first_stage_keeps_most_proposals(monkeypatch):
    # at c = 0 Z is Y alone, drawn from its Gamma law restricted to the
    # window, so even a window at 0 keeps most proposals: the sum and share
    # split keeps only about p1 = 3.8e-5 of them at d2 = 5, and plain Gamma
    # draws, in place of the power law below shape 1, 0.033 at d2 = 1.9
    proposed = []
    propose = stattest._TruncatedGamma.propose

    def counting(self, r, n):
        proposed.append(n)
        return propose(self, r, n)

    monkeypatch.setattr(stattest._TruncatedGamma, "propose", counting)
    w1 = ConditioningWindow(-0.05, 0.1)
    for d2 in (5.0, 1.9):
        proposed.clear()
        stage = stattest._zc_first_stage(0.0, 1.0, d2, 0.9, w1)
        (y,) = stage.draw(rng(36), 2_000)
        assert y.size == 2_000 and np.all(w1.contains(y))
        assert 2_000 / sum(proposed) >= 0.5


@pytest.mark.parametrize(
    "c, d1, d2, eps, w1, w2, n",
    [
        (1.0, 1.0, 1.0, 0.3, (0.6, 0.06), (2.0, 0.2), 4_000),
        (1.0, 1.0, 1.0, 0.7, (1.4, 0.14), (2.0, 0.2), 4_000),
        (0.0, 1.0, 1.0, 0.5, (1.0, 0.1), (4.0, 0.4), 5_000),
        (0.0, 1.0, 1.0, 0.5, (2.0, 0.2), (4.0, 0.4), 5_000),
        (1.0, 1.5, 2.5, 0.3, (1.2, 0.12), (4.0, 0.4), 4_000),
        (1.0, 1.5, 2.5, 0.7, (2.8, 0.28), (4.0, 0.4), 4_000),
    ],
    ids=["bench-c1-ref", "bench-c1-alt", "bench-c0-ref", "bench-c0-alt", "d4-ref", "d4-alt"],
)
def test_zc_acceptance_matches_the_window_pair_probability(c, d1, d2, eps, w1, w2, n):
    # at c in {0, 1} Z is itself a BESQ, of dimension d2 or d1 + d2, so the
    # share of proposals that pass both windows is a Gamma law at eps and one
    # transition; the rule over w1 has converged at 8 nodes.  The share of
    # first-window survivors that pass w2 checks the steps after eps alone
    ends = [(w[0] - w[1], w[0] + w[1]) for w in (w1, w2)]
    delta = d2 if c == 0.0 else d1 + d2
    want = window_pair_probability(delta, eps, *ends)
    assert window_pair_probability(delta, eps, *ends, nodes=8) == pytest.approx(want, rel=1e-12)
    got = stattest.conditional_sample(
        rng(37), c, d1, d2, eps, ConditioningWindow(*w1), ConditioningWindow(*w2), n
    )
    assert abs(got.acceptance_rate - want) < 4.0 * math.sqrt(want * (1.0 - want) / got.n_proposed)
    q = want / got.p1
    rate = got.n_accepted / got.n_survived
    assert abs(rate - q) < 4.0 * math.sqrt(q * (1.0 - q) / got.n_survived)


@pytest.mark.parametrize(
    "c, w1", [(0.5, (50.0, 50.0)), (0.5, (1.0, math.inf)), (2.0, (1.0, math.inf))]
)
def test_zc_window_holding_all_the_mass_has_p1_at_most_one(c, w1):
    # the two share rows of the first-window probability sum to 1 plus
    # rounding here, and the survivor count's binomial refuses a p1 past 1
    p1 = stattest._zc_first_stage(c, 1.0, 1.0, 0.5, ConditioningWindow(*w1)).p1
    assert p1 <= 1.0
    assert p1 == pytest.approx(1.0, rel=1e-12)


def test_zc_first_window_probability_at_huge_couplings():
    # a window far above 0 needs X below b / c, whose mass falls as
    # c**(-delta1 / 2): the small-X asymptote holds p1 c**(delta1 / 2) fixed.
    # The share row needs 13 tanh-sinh levels at c = 1e300 and 1e308
    w1 = ConditioningWindow(800.0, 10.0)
    scaled = [
        stattest._zc_first_stage(c, 0.02, 5.0, 0.5, w1).p1 * c**0.01 for c in (1e100, 1e300, 1e308)
    ]
    assert scaled == pytest.approx([scaled[0]] * 3, rel=1e-7)


@pytest.mark.parametrize(
    "process, c, w1",
    [
        ("zc", 0.5, (-5.0, 0.1)),
        ("cmx", 2.0, (-1.0, 0.1)),
        ("zc", 0.0, (-5.0, 0.1)),
        ("zc", 0.0, (1e4, 1.0)),
    ],
    ids=["zc-w10", "cmx-w11", "zc-c0-below-0", "zc-c0-underflow"],
)
def test_window_with_no_mass_reaches_the_floor_without_drawing(process, c, w1):
    # Z >= 0, and c M - X >= 0 at c = 2: the first window has p1 = 0 exactly,
    # so no state is ever drawn and the rate floor ends the run.  At c = 0
    # Z = Y, whose Gamma mass at 1e4 also underflows to 0
    w1, w2 = ConditioningWindow(*w1), ConditioningWindow(2.0, 0.2)
    if process == "zc":
        stage = stattest._zc_first_stage(c, 1.0, 1.0, 0.5, w1)
        run = lambda: stattest.conditional_sample(rng(32), c, 1.0, 1.0, 0.5, w1, w2, 100)
    else:
        stage = stattest._cmx_first_stage(c, 0.5, w1)
        run = lambda: stattest.conditional_sample_cmx(rng(32), c, 0.5, w1, w2, 100)
    assert stage.p1 == 0.0 and stage.draw is None
    with pytest.raises(BudgetExhaustedError, match="feasibility floor"):
        run()


class _RecordingRng:
    # a generator whose survivor counts the test can read back
    def __init__(self, r):
        self.r, self.counts = r, []

    def binomial(self, n, p, size):
        out = self.r.binomial(n, p, size)
        self.counts.append(out)
        return out


def test_staged_sample_keeps_whole_batches_in_order():
    # every survivor passes both windows, so the values are the first
    # n_target survivors in draw order, and the batches counted are exactly
    # those up to the first one whose cumulative count reaches n_target
    drawn = []

    def first_stage(eps, w1):
        def draw(r, n):
            start = sum(drawn)
            drawn.append(n)
            return (np.arange(start, start + n, dtype=float),)

        return stattest._FirstStage(2e-4, draw)

    wide = ConditioningWindow(0.0, 1e300)
    r = _RecordingRng(rng(35))
    res = stattest._staged_sample(
        r, first_stage, lambda r, state, t: state, lambda state: state[0], 0.5, wide, wide, 1_000
    )
    assert np.array_equal(res.values, np.arange(1_000.0))
    assert len(r.counts) > 1  # the stop fell in a later round than the first
    total = np.cumsum(np.concatenate(r.counts))
    last = res.n_proposed // stattest._BATCH - 1
    assert res.n_accepted == res.n_survived == total[last] >= 1_000
    assert last == 0 or total[last - 1] < 1_000
    assert res.p1 == 2e-4


def test_conditional_sample_deterministic():
    kw = dict(c=1.0, delta1=1.0, delta2=1.0, eps=0.3,
              w1=ConditioningWindow(0.6, 0.06), w2=ConditioningWindow(2.0, 0.2), n_target=500)
    a = stattest.conditional_sample(rng(31), **kw)
    b = stattest.conditional_sample(rng(31), **kw)
    assert np.array_equal(a.values, b.values)
    assert a.n_proposed == b.n_proposed and a.n_accepted == b.n_accepted
    assert a.values.size == 500
    assert a.acceptance_rate > 0.0


def test_conditional_sample_empty_overlap_exhausts():
    # a window buried at negative values can never accept a nonnegative path;
    # the rate floor, the sampler's one stop, ends the run
    with pytest.raises(BudgetExhaustedError, match="feasibility floor"):
        stattest.conditional_sample(
            rng(32), 0.5, 1.0, 1.0, 0.5,
            ConditioningWindow(-5.0, 0.1), ConditioningWindow(2.0, 0.2), 100)


def _quadrature_cdf_gap(values, s0):
    # sup distance between the empirical CDF of the sorted values and the
    # integrated ratio of s0 at ten quantile probes, with its 95% DKW bound
    probes = np.quantile(values, np.linspace(0.05, 0.95, 10))
    gx, gw = np.polynomial.legendre.leggauss(3)
    edges = np.concatenate([[0.0], probes])
    cdf = []
    acc = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xi, wi in zip(gx, gw):
            z3 = float(mid + half * xi)
            d = nonmarkov.conditional_ratio_detail(dataclasses.replace(s0, z3=z3))
            acc += wi * half * d.ratio
        cdf.append(acc)
    empirical = np.searchsorted(values, probes, side="right") / values.size
    d = float(np.max(np.abs(empirical - np.array(cdf))))
    return d, math.sqrt(math.log(2.0 / 0.05) / (2.0 * values.size))


def test_conditional_agreement_with_quadrature():
    # empirical conditional CDF vs the integrated quadrature ratio at the
    # witness-arm settings; the acceptance-window bias (~0.004 here) sits
    # well inside twice the DKW envelope at this n
    res = stattest.conditional_sample(
        rng(321), 0.5, 1.0, 1.0, 0.5,
        ConditioningWindow(1.0, 0.1), ConditioningWindow(4.0, 0.4), 20_000)
    s0 = nonmarkov.ScenarioParams(c=0.5, delta1=1.0, delta2=1.0, eps=0.5, z1=1.0, z2=4.0, z3=1.0)
    d, dkw = _quadrature_cdf_gap(np.sort(res.values), s0)
    assert d < 2.0 * dkw


def test_conditional_agreement_with_quadrature_above_unit_coupling():
    # c=2 runs through the law of Z/2 (dimensions swapped, Jacobian 1/2);
    # without the swap the gap reads 0.094 here, without the Jacobian 0.95
    res = stattest.conditional_sample(
        rng(322), 2.0, 1.0, 3.0, 0.5,
        ConditioningWindow(2.0, 0.2), ConditioningWindow(8.0, 0.8), 20_000)
    s0 = nonmarkov.ScenarioParams(c=2.0, delta1=1.0, delta2=3.0, eps=0.5, z1=2.0, z2=8.0, z3=1.0)
    d, dkw = _quadrature_cdf_gap(np.sort(res.values), s0)
    assert d < 2.0 * dkw


def _cmx_values(r, c, times, n):
    # n exact paths of c M - X on times, shape (n, T), from the segment step
    # that the cmx sampler conditions on
    state, out = (np.zeros(n), np.zeros(n)), []
    for t in besq.time_grid(times)[1].tolist():
        state = stattest._advance_max(r, state, t)
        out.append(c * state[1] - state[0])
    return np.array(out).T


def test_running_max_functional_variance():
    # c=0 is minus a Brownian motion
    vals = _cmx_values(rng(41), 0.0, [0.7], 30_000)
    v = vals[:, 0].var()
    assert abs(v - 0.7) < 0.02


def test_reflection_law_at_unit_coupling():
    # M - X is reflecting Brownian motion, |N(0, t)| at every time, with the
    # exact maximum carried across segments; a maximum tracked on a grid 100
    # times finer than each segment reads 0.033 low at t=1 on these times,
    # 24 standard errors of the mean at this n
    n = 200_000
    times = [0.25, 0.5, 1.0]
    vals = _cmx_values(rng(99), 1.0, times, n)
    for j, t in enumerate(times):
        ks = stats.kstest(vals[:, j], lambda q: 2.0 * stats.norm.cdf(q / math.sqrt(t)) - 1.0)
        assert ks.pvalue > 0.001
    end = vals[:, -1]
    assert abs(end.mean() - math.sqrt(2.0 / math.pi)) < 5.0 * end.std() / math.sqrt(n)


def test_doubled_max_is_three_dimensional_bessel():
    r = rng(100)
    vals = _cmx_values(r, 2.0, [1.0], 20_000)
    oracle = np.sqrt(besq.sample_transitions(r, besq.BesqParams(3.0), 1.0, np.zeros(40_000)))
    rep = stattest.ks_two_sample(vals[:, 0], oracle, alpha=0.001)
    assert rep.verdict == "consistent"


def test_conditional_cmx_deterministic_and_windowed():
    kw = dict(c=1.0, eps=0.5, w1=ConditioningWindow(0.15, 0.05),
              w2=ConditioningWindow(0.35, 0.07), n_target=300)
    a = stattest.conditional_sample_cmx(rng(51), **kw)
    b = stattest.conditional_sample_cmx(rng(51), **kw)
    assert np.array_equal(a.values, b.values)
    assert a.values.size == 300


def test_grid_config_validation():
    with pytest.raises(DomainError):
        ArmSpec(0.0, ConditioningWindow(1.0, 0.1), 100)
    with pytest.raises(DomainError):
        ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 0)
    with pytest.raises(DomainError):
        MarkovCell(-0.5, ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 10),
                   ArmSpec(0.5, ConditioningWindow(2.0, 0.2), 10), ConditioningWindow(4.0, 0.4))
    with pytest.raises(DomainError):
        MarkovTestConfig(process="other", cells=(), seed=0)
    # -0.0 and 0.0 are one summary key
    zero = MarkovCell(0.0, ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 10),
                      ArmSpec(0.5, ConditioningWindow(2.0, 0.2), 10), ConditioningWindow(4.0, 0.4))
    with pytest.raises(DomainError, match="couplings must be distinct"):
        MarkovTestConfig(process="cmx", cells=(zero, dataclasses.replace(zero, c=-0.0)), seed=0)


@pytest.mark.parametrize("c", [-0.5, math.inf, math.nan])
def test_samplers_refuse_a_negative_or_non_finite_coupling(c):
    w1, w2 = ConditioningWindow(1.0, 0.1), ConditioningWindow(2.0, 0.2)
    for call in (
        lambda: stattest.conditional_sample(rng(1), c, 1.0, 1.0, 0.5, w1, w2, 10),
        lambda: stattest.conditional_sample_cmx(rng(1), c, 0.5, w1, w2, 10),
    ):
        with pytest.raises(DomainError, match="c must be finite and nonnegative"):
            call()


def test_report_inconclusive_on_exhaustion():
    cfg = MarkovTestConfig(
        process="zc",
        cells=(
            MarkovCell(
                0.5,
                ArmSpec(0.5, ConditioningWindow(-5.0, 0.1), 100),
                ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 100),
                ConditioningWindow(2.0, 0.2),
            ),
        ),
        seed=9,
    )
    rep = stattest.markov_discrepancy_report(cfg)
    assert rep.summary == {0.5: "inconclusive"}
    assert math.isnan(rep.cells[0]["statistic"])
    # the seed label travels with the cell, conclusive or not
    (cell,) = json.loads(json.dumps(rep.to_json_dict()))["cells"]
    assert cell["seed"] == 9 and cell["verdict"] == "inconclusive"


def test_report_deterministic_and_serializable():
    cfg = zc_calibration_config(seed=7)
    a = stattest.markov_discrepancy_report(cfg)
    b = stattest.markov_discrepancy_report(cfg)
    assert a.cells == b.cells
    d = a.to_json_dict()
    assert set(d) == {"cells", "summary"}
    cell = d["cells"][0]
    for key in ("process", "c", "eps_ref", "eps_alt", "w1_ref", "w2", "statistic",
                "threshold", "verdict", "seed", "pvalue", "n_ref", "n_alt",
                "proposed_ref", "proposed_alt", "accept_ref", "accept_alt",
                "p1_ref", "p1_alt", "survived_ref", "survived_alt"):
        assert key in cell
    assert d["summary"] == [{"c": 1.0, "verdict": a.summary[1.0]}]


def _two_cell_config(process):
    if process == "zc":
        w1_alt, w2 = ConditioningWindow(2.0, 0.2), ConditioningWindow(4.0, 0.4)
        arms = (ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 300), ArmSpec(0.5, w1_alt, 200))
    else:
        w1_alt, w2 = ConditioningWindow(1.0, 0.1), ConditioningWindow(0.35, 0.07)
        arms = (ArmSpec(0.5, ConditioningWindow(0.15, 0.05), 300), ArmSpec(0.5, w1_alt, 200))
    cells = (MarkovCell(0.0, *arms, w2), MarkovCell(1.0, *arms, w2))
    return MarkovTestConfig(process=process, cells=cells, seed=41, alpha=0.01)


@pytest.mark.parametrize("process", ["zc", "cmx"])
def test_report_equals_arms_run_in_order(process, monkeypatch):
    # oracle: both arms of every cell run one after the other on this thread,
    # from the generators the report spawns; the KS inputs are the arm values
    cfg = _two_cell_config(process)
    compared = []
    ks = stattest.ks_two_sample

    def recording_ks(a, b, alpha):
        compared.append((a, b))
        return ks(a, b, alpha)

    monkeypatch.setattr(stattest, "ks_two_sample", recording_ks)
    rep = stattest.markov_discrepancy_report(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.cells))
    for cell, child, record, (a, b) in zip(cfg.cells, children, rep.cells, compared, strict=True):
        rng_ref, rng_alt = [np.random.Generator(np.random.PCG64(s)) for s in child.spawn(2)]
        ref = stattest._run_arm(cfg, rng_ref, cell, cell.ref)
        alt = stattest._run_arm(cfg, rng_alt, cell, cell.alt)
        assert np.array_equal(a, ref.values) and np.array_equal(b, alt.values)
        want = ks(ref.values, alt.values, cfg.alpha)
        assert {k: record[k] for k in vars(want)} == vars(want)
        assert (record["proposed_ref"], record["accept_ref"]) == (ref.n_proposed, ref.acceptance_rate)
        assert (record["proposed_alt"], record["accept_alt"]) == (alt.n_proposed, alt.acceptance_rate)
        assert (record["p1_ref"], record["survived_ref"]) == (ref.p1, ref.n_survived)
        assert (record["p1_alt"], record["survived_alt"]) == (alt.p1, alt.n_survived)
        assert rep.summary[cell.c] == want.verdict


def test_report_keeps_the_ref_counts_when_only_alt_exhausts():
    cfg = MarkovTestConfig(
        process="zc",
        cells=(
            MarkovCell(
                0.5,
                ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 100),
                ArmSpec(0.5, ConditioningWindow(-5.0, 0.1), 100),
                ConditioningWindow(2.0, 0.2),
            ),
        ),
        seed=9,
    )
    (cell,) = stattest.markov_discrepancy_report(cfg).cells
    assert cell["verdict"] == "inconclusive"
    assert cell["proposed_ref"] >= 100 and cell["accept_ref"] > 0.0
    assert not {"proposed_alt", "accept_alt"} & set(cell)


def test_report_leaves_no_thread_behind(monkeypatch):
    # each cell's alt arm runs on a worker, which is joined whether the arms
    # return or raise; of two failing arms, the ref arm's error propagates,
    # as it would in a sequential run
    before = threading.active_count()
    cfg = _two_cell_config("cmx")
    stattest.markov_discrepancy_report(cfg)
    assert threading.active_count() == before
    run_arm = stattest._run_arm

    def failing(failed):
        def run(config, rng, cell, arm):
            if arm is cell.alt and "alt" in failed:
                raise ValueError("alt")
            if arm is cell.ref and "ref" in failed:
                raise KeyError("ref")
            return run_arm(config, rng, cell, arm)

        return run

    for failed, error in ((("alt",), ValueError), (("ref",), KeyError), (("ref", "alt"), KeyError)):
        monkeypatch.setattr(stattest, "_run_arm", failing(failed))
        with pytest.raises(error):
            stattest.markov_discrepancy_report(cfg)
        assert threading.active_count() == before


def test_both_arms_see_the_callers_numpy_error_state(monkeypatch):
    seen = []

    def run(config, rng, cell, arm):
        seen.append(np.geterr()["divide"])
        return stattest.ConditionalSampleResult(np.arange(3.0), 3, 3, 1.0, 3)

    monkeypatch.setattr(stattest, "_run_arm", run)
    with np.errstate(divide="raise"):
        stattest.markov_discrepancy_report(_two_cell_config("zc"))
    assert seen == ["raise"] * 4


def test_markov_coupling_two_arm_consistency():
    # at c=1 two different (eps, w1) conditioning arms share one conditional law
    rep = stattest.markov_discrepancy_report(zc_calibration_config(seed=12345))
    assert rep.summary == {1.0: "consistent"}


def test_calibration_rejection_rate():
    # 200 seeded repetitions under the Markov coupling at alpha=0.001; the
    # acceptance bar is a rate <= 0.01, i.e. at most 2 rejections
    rejected = 0
    for seed in range(200):
        rep = stattest.markov_discrepancy_report(zc_calibration_config(seed=seed))
        assert rep.summary[1.0] != "inconclusive"
        rejected += rep.summary[1.0] == "rejected"
    assert rejected / 200 <= 0.01


def test_frozen_probe_configs_shape():
    zc = zc_witness_config(seed=1)
    assert [cell.c for cell in zc.cells] == [0.0, 0.5, 1.0]
    assert zc.process == "zc" and zc.seed == 1
    cmx = cmx_witness_config(seed=2)
    assert [cell.c for cell in cmx.cells] == [0.0, 0.5, 1.0, 2.0]
    assert cmx.process == "cmx"
    # the level-1 windows of c in {1, 2} move with the coupling's scale,
    # where the c in {0, 0.5} one would fall outside the support
    assert [cell.w2.center for cell in cmx.cells] == [0.2, 0.2, 0.35, 1.1]


def test_frozen_zc_witness_verdicts():
    # the paper's discriminating cell (c = 0.5) between its two past-free
    # controls, at the seed fixed before the run: (consistent, rejected, consistent)
    rep = stattest.markov_discrepancy_report(zc_witness_config(seed=0))
    assert rep.summary == {0.0: "consistent", 0.5: "rejected", 1.0: "consistent"}


@pytest.mark.slow
def test_power_at_frozen_witness():
    # 50 independent repetitions of the rejected cell; each run costs about
    # 7 s on a 2-core VM, set by its 1.08M z1=1 arm now that the exact first
    # stage makes the deep-tail arm cheap, so the replication takes about
    # 6 minutes and stays out of the default run (50 of 50 rejected once)
    witness = zc_witness_config(seed=0).cells[1]
    rejected = 0
    for seed in range(50):
        cfg = MarkovTestConfig(
            process="zc",
            cells=(witness,),
            seed=1_000 + seed,
        )
        rep = stattest.markov_discrepancy_report(cfg)
        rejected += rep.summary[0.5] == "rejected"
    assert rejected / 50 >= 0.9
