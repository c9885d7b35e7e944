"""Path sampling, window conditioning, KS machinery, and the probe grids."""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from scipy import stats

from besqlab import besq, nonmarkov, stattest
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
    # the interval the first stage tests against w1 before drawing B
    r = rng(25)
    s = r.gamma(1.0, 2.0, 100_000) * np.exp(r.uniform(-30.0, 30.0, 100_000))
    b = np.concatenate([r.beta(0.5, 0.5, 99_998), [0.0, 1.0]])
    x = s * b
    z = c * x + (s - x)
    slack = 4.0 * np.finfo(float).eps * s
    assert np.all(z >= min(1.0, c) * s - slack)
    assert np.all(z <= max(1.0, c) * s + slack)


@pytest.mark.parametrize("d1, d2", [(1.0, 1.0), (1.5, 2.5)])
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
def test_sum_split_first_stage_law(c, d1, d2):
    # oracle: _staged_sample with independent Gamma draws of X(eps) and
    # Y(eps), the first stage that the sum-split draw replaced
    eps, n = 0.4, 12_000
    mean = c * d1 + d2  # E Z(t) = mean * t; both windows sit at the mean
    w1 = ConditioningWindow(mean * eps, 0.25 * mean * eps)
    w2 = ConditioningWindow(mean, 0.25 * mean)
    p1, p2 = besq.BesqParams(d1), besq.BesqParams(d2)

    def start(r, t, size):
        return r.gamma(0.5 * d1, 2.0 * t, size), r.gamma(0.5 * d2, 2.0 * t, size)

    def advance(r, state, t):
        return besq.sample_transitions(r, p1, t, state[0]), besq.sample_transitions(r, p2, t, state[1])

    oracle = stattest._staged_sample(
        rng(26), start, advance, lambda st: c * st[0] + st[1], eps, w1, w2, n
    )
    got = stattest.conditional_sample(rng(27), c, d1, d2, eps, w1, w2, n)
    assert stattest.ks_two_sample(got.values, oracle.values, alpha=0.001).verdict == "consistent"
    # the interval filter drops only proposals that miss w1, so both count
    # the same acceptance rate up to binomial noise; a wrong Beta split moves
    # the rate at c != 1 (swapped shapes read 27 and 6 sigma off at c = 0, 2)
    p = oracle.acceptance_rate
    assert abs(got.acceptance_rate - p) < 5.0 * math.sqrt(p / got.n_proposed + p / oracle.n_proposed)


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


def test_running_max_functional_variance():
    # c=0 is minus a Brownian motion
    vals = stattest.cmx_path(rng(41), 0.0, [0.7], 30_000).values
    v = vals[:, 0].var()
    assert abs(v - 0.7) < 0.02
    p = stattest.cmx_path(rng(42), 0.0, [0.25, 1.0], 1)
    assert p.times.shape == (2,) and p.values.shape == (1, 2)
    for bad in ([], [1.0, np.inf], [[0.5, 1.0]]):
        with pytest.raises(DomainError):
            stattest.cmx_path(rng(42), 0.0, bad, 1)


def test_reflection_law_at_unit_coupling():
    # M - X is reflecting Brownian motion, |N(0, t)| at every time, with the
    # exact maximum carried across segments; a maximum tracked on a grid 100
    # times finer than each segment reads 0.033 low at t=1 on these times,
    # 24 standard errors of the mean at this n
    n = 200_000
    times = [0.25, 0.5, 1.0]
    vals = stattest.cmx_path(rng(99), 1.0, times, n).values
    for j, t in enumerate(times):
        ks = stats.kstest(vals[:, j], lambda q: 2.0 * stats.norm.cdf(q / math.sqrt(t)) - 1.0)
        assert ks.pvalue > 0.001
    end = vals[:, -1]
    assert abs(end.mean() - math.sqrt(2.0 / math.pi)) < 5.0 * end.std() / math.sqrt(n)


def test_doubled_max_is_three_dimensional_bessel():
    r = rng(100)
    vals = stattest.cmx_path(r, 2.0, [1.0], 20_000).values
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
        lambda: stattest.cmx_path(rng(1), c, [1.0], 10),
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
                "proposed_ref", "proposed_alt", "accept_ref", "accept_alt"):
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
        return stattest.ConditionalSampleResult(np.arange(3.0), 3, 3)

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


@pytest.mark.slow
def test_power_at_frozen_witness():
    # 50 independent repetitions of the rejected cell; each run costs about
    # 6 minutes single-core (the deep-tail arm acceptance is 9.7e-6), so the
    # full replication is a multi-hour batch and stays out of the default run
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
