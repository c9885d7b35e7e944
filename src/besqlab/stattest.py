"""Monte Carlo probes of the Markov property for weighted process sums.

Two families of experiments live here.  The first samples the weighted sum
``Z = c X + Y`` of independent squared Bessel processes at the three levels
``(eps, 1, 2)``, estimates the conditional law of ``Z(2)`` by window
conditioning (rejection sampling), and compares conditioning arms with a
two-sample Kolmogorov-Smirnov test: arms that differ only in the discarded
past must be indistinguishable exactly when the process is Markov.  The
second applies the same machinery to ``c M - X`` for a Brownian motion ``X``
with running maximum ``M``, where the Markov couplings are ``c in {0, 1, 2}``
(Brownian motion, reflecting Brownian motion, three-dimensional Bessel).

Sampling is exact for both.  ``Z`` starts from the sum-split law of the
pair at ``eps`` (a Gamma draw for ``X + Y``, whose sum is the
BESQ(delta1+delta2) of Shiga-Watanabe additivity, and a Beta split drawn
only for sums that can still meet the first window) and moves by the
exact transitions of :func:`besqlab.besq.sample_transitions`: the Gaussian
split of the noncentral chi-square at a dimension of 1 or more, its
Poisson-Gamma mixture below.  ``c M - X`` moves by the Brownian endpoint
plus the exact maximum of the Brownian bridge across each segment, so the
running maximum carries no discretization bias.  One staged-rejection
loop, :func:`_staged_sample`, conditions either process, in batches of
one fixed size; its one stopping rule besides success is the
acceptance-rate floor, which makes a cell inconclusive.

:func:`markov_discrepancy_report` runs the two arms of a cell at the same
time, the ``alt`` arm on one worker thread.  NumPy releases the GIL inside
its random draws and ufuncs, so the arms overlap; each arm draws from its
own child stream, so no result depends on how the threads are scheduled.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from . import besq
from .besq import BesqParams
from .errors import BudgetExhaustedError, DomainError


def _check_coupling(c: float) -> None:
    if not 0.0 <= c < math.inf:
        raise DomainError("c must be finite and nonnegative")


@dataclass(frozen=True)
class ConditioningWindow:
    """Acceptance band: a sample qualifies when ``|value - center| <= halfwidth``."""

    center: float
    halfwidth: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise DomainError("center must be finite")
        if not self.halfwidth > 0.0:
            raise DomainError("halfwidth must be positive")

    def contains(self, values) -> np.ndarray:
        return np.abs(np.asarray(values, dtype=float) - self.center) <= self.halfwidth


@dataclass
class TestReport:
    """Outcome of one two-sample comparison.

    ``verdict`` is "rejected" exactly when ``statistic > threshold``;
    "inconclusive" reports (an arm fell below the rate floor) carry NaN
    statistic and threshold.  ``n_samples`` is the combined size of both
    samples and ``pvalue`` the asymptotic Kolmogorov-Smirnov tail probability.
    """

    statistic: float
    threshold: float
    n_samples: int
    verdict: str
    pvalue: float = float("nan")


def ks_two_sample(a, b, alpha: float = 0.001) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test at significance level ``alpha``.

    The threshold inverts the leading term of the asymptotic Kolmogorov
    distribution, ``sqrt(-log(alpha/2)/2)`` over the effective sample-size
    factor, so the verdict invariant (rejected iff statistic > threshold)
    agrees with the asymptotic p-value rule for small ``alpha``.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("both samples must be nonempty")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    n, m = a.size, b.size
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / n
    cdf_b = np.searchsorted(b, everything, side="right") / m
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = math.sqrt(n * m / (n + m))
    threshold = math.sqrt(-0.5 * math.log(0.5 * alpha)) / effective
    pvalue = float(scipy.special.kolmogorov(effective * statistic))
    verdict = "rejected" if statistic > threshold else "consistent"
    return TestReport(statistic, threshold, n + m, verdict, pvalue)


# ---------------------------------------------------------------------------
# Staged rejection and the weighted squared-Bessel sum.

@dataclass
class ConditionalSampleResult:
    """Accepted endpoint samples plus rejection-sampling bookkeeping."""

    values: np.ndarray
    n_proposed: int
    n_accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposed if self.n_proposed else 0.0


_RATE_FLOOR = 1e-6
_RATE_PROBE_MIN = 4_000_000

# Proposals per batch, for both processes.  Measured on a 2-core VM, the zc
# cost per proposal shows no trend from 25k to 400k (42-69 ns, within run
# noise), while one zc arm's traced peak memory grows from 0.9 MB at 50k to
# 7.3 MB at 400k, and a cell holds both arms' batches at once.  The cmx
# first stage advances the whole batch: 48 ns per proposal at 50k, 89 at 400k.
_BATCH = 50_000


def _staged_sample(
    rng: np.random.Generator,
    start: Callable[[np.random.Generator, float, int], tuple],
    advance: Callable[[np.random.Generator, tuple, float], tuple],
    observe: Callable[[tuple], np.ndarray],
    eps: float,
    w1: ConditioningWindow,
    w2: ConditioningWindow,
    n_target: int,
) -> ConditionalSampleResult:
    """Window-conditioned draw of a process observed at ``(eps, 1, 2)``.

    The hidden state is a tuple of equal-length arrays.  ``start(rng, eps, n)``
    draws ``n`` states at time ``eps``, ``advance(rng, state, t)`` moves each
    state ``t`` forward, and ``observe(state)`` maps states to the observed
    values.  Each batch of ``_BATCH`` proposals is filtered through ``w1``
    and then ``w2`` before its survivors are advanced, which is exact
    whenever the hidden state is Markov.  The rate floor is the one stop:
    ``BudgetExhaustedError`` once the acceptance rate falls below 1e-6,
    established over at least a few million proposals.  Above the floor the
    accepted count grows with the proposals, so the loop ends.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if n_target <= 0:
        raise DomainError("n_target must be positive")
    accepted: list[np.ndarray] = []
    n_accepted = 0
    n_proposed = 0
    while n_accepted < n_target:
        # at a huge coupling an observed value overflows to inf, which no
        # window contains: the right outcome, so the overflow is not a defect
        with np.errstate(over="ignore"):
            state = start(rng, eps, _BATCH)
            n_proposed += _BATCH
            for window, length in ((w1, 1.0 - eps), (w2, 1.0)):
                keep = window.contains(observe(state))
                state = tuple(part[keep] for part in state)
                if not state[0].size:
                    break
                state = advance(rng, state, length)
            else:
                accepted.append(observe(state))
                n_accepted += state[0].size
        rate = n_accepted / n_proposed
        if n_proposed >= _RATE_PROBE_MIN and rate < _RATE_FLOOR:
            raise BudgetExhaustedError(
                f"acceptance rate {rate:.2e} below feasibility floor {_RATE_FLOOR}"
            )
    values = np.concatenate(accepted)[:n_target]
    return ConditionalSampleResult(values, n_proposed, n_accepted)


def conditional_sample(
    rng: np.random.Generator,
    c: float,
    delta1: float,
    delta2: float,
    eps: float,
    w1: ConditioningWindow,
    w2: ConditioningWindow,
    n_target: int,
) -> ConditionalSampleResult:
    """Window-conditioned draw of ``Z(2)`` given ``Z(eps) in w1`` and ``Z(1) in w2``.

    Runs :func:`_staged_sample` on the pair ``(X, Y)``, which is Markov,
    with exact transitions after ``eps``.  The state at ``eps`` is drawn
    through its sum: ``S = X + Y`` is Gamma with shape ``(delta1+delta2)/2``
    and scale ``2 eps`` (the law of a BESQ(delta1+delta2) started at zero),
    and independently of ``S`` the share ``B = X/S`` is
    Beta(delta1/2, delta2/2).  Since ``Z(eps) = S (1 - (1-c) B)`` lies
    between ``min(1, c) S`` and ``max(1, c) S``, a proposal whose interval
    misses ``w1`` is dropped before its ``B`` is drawn; ``n_proposed`` still
    counts every ``S``, and the ``w1`` test itself still decides acceptance.
    """
    _check_coupling(c)
    p1 = BesqParams(delta1)
    p2 = BesqParams(delta2)
    low, high = min(1.0, c), max(1.0, c)
    bottom, top = w1.center - w1.halfwidth, w1.center + w1.halfwidth

    def start(rng, t, n):
        s = rng.gamma(0.5 * (delta1 + delta2), 2.0 * t, n)
        s = s[(low * s <= top) & (high * s >= bottom)]
        x = s * rng.beta(0.5 * delta1, 0.5 * delta2, s.size)
        return x, s - x

    def advance(rng, state, t):
        x, y = state
        return besq.sample_transitions(rng, p1, t, x), besq.sample_transitions(rng, p2, t, y)

    return _staged_sample(rng, start, advance, lambda s: c * s[0] + s[1], eps, w1, w2, n_target)


# ---------------------------------------------------------------------------
# Brownian motion, running maximum, and c M - X.

def _advance_max(
    rng: np.random.Generator, state: tuple[np.ndarray, np.ndarray], t: float
) -> tuple[np.ndarray, np.ndarray]:
    # one exact step of (X, M) over a segment of length t: the Brownian
    # endpoint, then the maximum of the bridge between the two endpoints,
    # whose law is P(peak > y) = exp(-2 (y - x)(y - end) / t) above both
    # (Asmussen, Glynn & Pitman 1995); inverted with an Exp(1) draw, which
    # unlike -log(U) never meets U = 0
    x, m = state
    end = x + rng.normal(0.0, math.sqrt(t), x.shape)
    gap = np.sqrt((end - x) ** 2 + 2.0 * t * rng.standard_exponential(x.shape))
    return end, np.maximum(m, 0.5 * (x + end + gap))


def conditional_sample_cmx(
    rng: np.random.Generator,
    c: float,
    eps: float,
    w1: ConditioningWindow,
    w2: ConditioningWindow,
    n_target: int,
) -> ConditionalSampleResult:
    """Window-conditioned draw of ``(c M - X)(2)`` given its values at ``eps`` and 1.

    Runs :func:`_staged_sample` on the pair ``(X, M)``, which is Markov
    whatever the coupling, with the exact segment step of :func:`_advance_max`.
    """
    _check_coupling(c)

    def start(rng, t, n):
        # the step of _advance_max from x = m = 0: the bridge maximum
        # 0.5 (end + gap) is never below the start, as gap >= |end|
        end = rng.normal(0.0, math.sqrt(t), n)
        gap = np.sqrt(end * end + 2.0 * t * rng.standard_exponential(n))
        return end, 0.5 * (end + gap)

    return _staged_sample(
        rng, start, _advance_max, lambda s: c * s[1] - s[0], eps, w1, w2, n_target
    )


# ---------------------------------------------------------------------------
# Grid orchestration.

@dataclass(frozen=True)
class ArmSpec:
    """One conditioning arm: observation level ``eps``, its window, arm size."""

    eps: float
    w1: ConditioningWindow
    n_target: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise DomainError("eps must lie in (0, 1)")
        if self.n_target <= 0:
            raise DomainError("n_target must be positive")


@dataclass(frozen=True)
class MarkovCell:
    """Two arms at one coupling, sharing the level-1 window ``w2``.

    Under the Markov property the conditional law of the endpoint cannot see
    the ``(eps, w1)`` difference between the arms; a rejected cell is
    evidence against it.  Arm sizes may differ: when one arm is much cheaper
    to condition, a larger cheap arm sharpens the comparison at fixed cost.
    """

    c: float
    ref: ArmSpec
    alt: ArmSpec
    w2: ConditioningWindow

    def __post_init__(self):
        _check_coupling(self.c)


@dataclass(frozen=True)
class MarkovTestConfig:
    """A grid of two-arm cells plus everything shared between them.

    ``process`` selects the weighted squared-Bessel sum ("zc") or the
    running-maximum functional ("cmx"); ``delta1``/``delta2`` apply to the
    weighted sum only.
    """

    process: str
    cells: tuple
    seed: int
    alpha: float = 0.001
    delta1: float = 1.0
    delta2: float = 1.0

    def __post_init__(self):
        if self.process not in ("zc", "cmx"):
            raise DomainError("process must be 'zc' or 'cmx'")
        if not self.cells:
            raise DomainError("need at least one cell")
        if not 0.0 < self.alpha < 1.0:
            # checked before any arm samples, not only by the KS test after
            raise DomainError("alpha must lie in (0, 1)")
        if len({cell.c for cell in self.cells}) < len(self.cells):
            # the summary holds one verdict per coupling, so a repeat would hide one
            raise DomainError("couplings must be distinct")
        object.__setattr__(self, "cells", tuple(self.cells))


@dataclass
class MarkovReport:
    """One flat record per cell (its params and KS report fields), one verdict per c."""

    cells: list
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "cells": self.cells,
            "summary": [
                {"c": c, "verdict": verdict} for c, verdict in self.summary.items()
            ],
        }


def _run_arm(
    config: MarkovTestConfig, rng, cell: MarkovCell, arm: ArmSpec
) -> ConditionalSampleResult:
    if config.process == "zc":
        return conditional_sample(
            rng, cell.c, config.delta1, config.delta2, arm.eps, arm.w1, cell.w2, arm.n_target
        )
    return conditional_sample_cmx(rng, cell.c, arm.eps, arm.w1, cell.w2, arm.n_target)


def _run_arms(config: MarkovTestConfig, cell: MarkovCell, rng_ref, rng_alt) -> tuple:
    """Both arms of one cell, ``ref`` on this thread and ``alt`` on a worker.

    Returns each arm's result, or the exception the arm raised.  The worker
    runs in a copy of the caller's context, so NumPy's error state carries
    over.  An interrupt leaves without waiting for the worker, a daemon, so
    Ctrl-C ends a run at once; any other outcome joins it first.
    """
    alt = []

    def run_alt():
        try:
            alt.append(_run_arm(config, rng_alt, cell, cell.alt))
        except BaseException as exc:
            # raised by the caller where a sequential run would raise it
            alt.append(exc)

    context = contextvars.copy_context()
    worker = threading.Thread(target=context.run, args=(run_alt,), daemon=True)
    worker.start()
    try:
        ref = _run_arm(config, rng_ref, cell, cell.ref)
    except Exception as exc:
        ref = exc
    worker.join()
    return ref, alt[0]


def _result(arm) -> ConditionalSampleResult:
    if isinstance(arm, BaseException):
        raise arm
    return arm


def markov_discrepancy_report(config: MarkovTestConfig) -> MarkovReport:
    """Run both conditioning arms of every cell and compare with KS.

    Each cell's record holds its params, the config's ``seed``, every
    finished arm's proposal count and acceptance rate (``proposed_ref``/
    ``accept_ref`` and the ``_alt`` pair) and the fields of its KS report.
    An arm that falls below the rate floor yields an "inconclusive" cell
    instead of an exception.  Seeding is hierarchical (one child stream per
    cell and arm), so a fixed config and seed reproduce every report bit for
    bit regardless of evaluation order.

    Cells run in order, and each cell runs its ``alt`` arm on one worker
    thread while its ``ref`` arm runs on the calling thread, so a report
    uses at most one extra thread at a time.  The record is the one a
    sequential run gives, whatever the scheduling: a ``ref`` arm below the
    floor leaves no ``proposed_*`` keys, an ``alt`` arm below it keeps the
    ``_ref`` pair, and any other exception propagates, ``ref``'s first.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(len(config.cells))
    cells = []
    summary = {}
    for cell, child in zip(config.cells, children):
        rng_ref, rng_alt = [np.random.default_rng(s) for s in child.spawn(2)]
        params = {
            "process": config.process,
            "c": cell.c,
            "eps_ref": cell.ref.eps,
            "eps_alt": cell.alt.eps,
            "w1_ref": [cell.ref.w1.center, cell.ref.w1.halfwidth],
            "w1_alt": [cell.alt.w1.center, cell.alt.w1.halfwidth],
            "w2": [cell.w2.center, cell.w2.halfwidth],
            "n_ref": cell.ref.n_target,
            "n_alt": cell.alt.n_target,
            "alpha": config.alpha,
            "seed": config.seed,
        }
        ref, alt = _run_arms(config, cell, rng_ref, rng_alt)
        try:
            ref = _result(ref)
            params.update(proposed_ref=ref.n_proposed, accept_ref=ref.acceptance_rate)
            alt = _result(alt)
            params.update(proposed_alt=alt.n_proposed, accept_alt=alt.acceptance_rate)
        except BudgetExhaustedError:
            report = TestReport(float("nan"), float("nan"), 0, "inconclusive")
        else:
            report = ks_two_sample(ref.values, alt.values, config.alpha)
        cells.append({**params, **vars(report)})
        summary[cell.c] = report.verdict
    return MarkovReport(cells, summary)


# ---------------------------------------------------------------------------
# Frozen probe designs.  The windowed two-arm effect at the witness settings
# was sized against an exact-conditioning oracle (posterior over the hidden
# split of Z(1), mixed over the acceptance windows): KS gap 0.0115 between
# the z1=1 and z1=8 arms at c=0.5, against 0.0044 of pure window bias at
# c=1 (arm-dependent tilt across the shared w2 band; it scales with the
# halfwidth, not with any Markov failure).  Arm sizes below put the c=0.5
# threshold ~2.8 sigma under the effect and keep every control cell's
# threshold several times the window bias.  Measured acceptance rates:
# 3.3e-3 for the z1=1 arm, 9.7e-6 for the z1=8 arm at c=0.5 (3.1e-5 at
# c=1), so the deep-tail arm dominates the runtime: with the sum-split first
# stage it took 337 s for 9.2e9 proposals on one core of a 2-core VM, and the
# whole witness about 380 s (sequential figures, taken while a cell still ran
# its arms one after the other on one thread).

def zc_witness_config(seed: int) -> MarkovTestConfig:
    """The frozen weighted-sum probe: verdicts (consistent, rejected, consistent).

    Cells at c in {0, 0.5, 1}.  The c=0.5 cell is the discriminating one;
    the c in {0, 1} cells rerun the same machinery where the true conditional
    law is past-free, sized so that residual window bias stays invisible.
    The c=0 contrast arm conditions on z1=2 instead of 8: at c=0 the sum
    degenerates to the delta2 component alone and the z1=8 band is
    prohibitively rare, while any arm pair is a valid null there.
    """
    w_near = ConditioningWindow(1.0, 0.1)
    w_far = ConditioningWindow(8.0, 0.8)
    w_mid = ConditioningWindow(2.0, 0.2)
    w2 = ConditioningWindow(4.0, 0.4)
    return MarkovTestConfig(
        process="zc",
        cells=(
            MarkovCell(0.0, ArmSpec(0.5, w_near, 5_000), ArmSpec(0.5, w_mid, 5_000), w2),
            MarkovCell(0.5, ArmSpec(0.5, w_near, 1_080_000), ArmSpec(0.5, w_far, 90_000), w2),
            MarkovCell(1.0, ArmSpec(0.5, w_near, 22_000), ArmSpec(0.5, w_far, 2_200), w2),
        ),
        seed=seed,
        delta1=1.0,
        delta2=1.0,
    )


def zc_calibration_config(seed: int) -> MarkovTestConfig:
    """A cheap true-null cell for rejection-rate calibration at c=1.

    Arms contrast (eps, w1) = (0.3, 0.6 +- 0.06) against (0.7, 1.4 +- 0.14)
    with a shared w2 band at 2; the oracle puts the window bias at 1.2e-4,
    two orders below the c=1 witness-band bias, so repeated runs probe the
    test's false-positive rate and nothing else.
    """
    return MarkovTestConfig(
        process="zc",
        cells=(
            MarkovCell(
                1.0,
                ArmSpec(0.3, ConditioningWindow(0.6, 0.06), 4_000),
                ArmSpec(0.7, ConditioningWindow(1.4, 0.14), 4_000),
                ConditioningWindow(2.0, 0.2),
            ),
        ),
        seed=seed,
        delta1=1.0,
        delta2=1.0,
    )


def cmx_witness_config(seed: int) -> MarkovTestConfig:
    """The frozen running-maximum probe: rejected only at c=0.5.

    Measured with the exact sampler at 4e5 per arm (1.4e9 proposals): the
    two-arm KS gap at c=0.5 is 0.116 for the (-0.6, 1.2) arm pair, while
    the Markov couplings show gaps of 0.0016 (c=0), 0.0017 (c=1) and 0.0041
    (c=2), against ~0.002 of sampling noise alone at that size.  Cells at c
    in {1, 2} move their windows into the support of the respective laws
    (c M - X is nonnegative there) and to matching scales; acceptance rates
    run from 8.3e-4 to 1.5e-2, so every cell runs in well under a second.
    """
    w2 = ConditioningWindow(0.2, 0.06)
    return MarkovTestConfig(
        process="cmx",
        cells=(
            MarkovCell(
                0.0,
                ArmSpec(0.5, ConditioningWindow(-0.6, 0.1), 4_000),
                ArmSpec(0.5, ConditioningWindow(1.2, 0.12), 4_000),
                w2,
            ),
            MarkovCell(
                0.5,
                ArmSpec(0.5, ConditioningWindow(-0.6, 0.1), 6_000),
                ArmSpec(0.5, ConditioningWindow(1.2, 0.12), 6_000),
                w2,
            ),
            MarkovCell(
                1.0,
                ArmSpec(0.5, ConditioningWindow(0.15, 0.05), 4_000),
                ArmSpec(0.5, ConditioningWindow(1.0, 0.1), 4_000),
                ConditioningWindow(0.35, 0.07),
            ),
            MarkovCell(
                2.0,
                ArmSpec(0.5, ConditioningWindow(0.5, 0.05), 4_000),
                ArmSpec(0.5, ConditioningWindow(1.8, 0.18), 4_000),
                ConditioningWindow(1.1, 0.11),
            ),
        ),
        seed=seed,
    )
