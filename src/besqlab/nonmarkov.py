"""Joint-law kernel integrals for the weighted sum of two squared Bessel processes.

Let ``Z = c X + Y`` with ``X, Y`` independent squared Bessel processes of
dimensions ``delta1, delta2`` started at zero and a coupling ``c >= 0``.
Whether ``Z`` remembers more than its current value is decided by the
conditional law of ``Z(2)`` given ``(Z(eps), Z(1))``, and for ``0 < c < 1``
that law is a ratio of kernel integrals over the hidden coordinates of ``X``:

    pair(eps, z1, z2)       = int_0^{b2} g(x2) dx2
    triple(eps, z1, z2, z3) = int_0^{b2} g(x2) h(x2) dx2

with ``g(x2) = int_0^{b1} A11 A12 dx1`` the x2-marginal of the hidden
``X(1)`` and ``h(x2) = int_0^{b3} A13 dx3``.  By Fubini the ratio
``triple/pair`` is the mean of ``h`` under ``g``, the Markov-function
question of Rogers and Pitman.  A11, A12, A13 are products of
squared-Bessel transition kernels, one joint step of ``(X, Z)`` each
(:func:`_log_step`).  Each hidden coordinate ranges over ``x_i in (0, b_i)``
with ``b_i = z_i/c``, where the companion argument ``z_i - c x_i`` stays
positive.  As ``eps -> 0``, ``g`` becomes the closed-form kernel A21.

:func:`conditional_ratio_detail` covers every other coupling as well.  At
``c = 0`` and ``c = 1`` the process is Markov (``Z = Y``, and at ``c = 1``
the BESQ(delta1+delta2) of Shiga-Watanabe additivity), so the ratio is a
single squared-Bessel kernel.  A coupling ``c > 1`` runs as the law of
``Z/c = X + Y/c``: coupling ``1/c`` with the two dimensions swapped, levels
times ``1/c``, and a density Jacobian ``1/c``.  The swap is what keeps the
``eps -> 0`` kernel right: as ``eps`` shrinks, the split of ``z1`` between
the two processes concentrates on the one with the larger weight, which is
``Y`` only while ``c < 1``; fed ``c > 1`` directly, A21 would restart the
wrong process from zero.

The module also evaluates the three limit regimes that make the dependence
on ``(eps, z1)`` provable rather than merely observable: the ``eps -> 0``
kernel (A21), the ``z3 -> 0`` weighted limit with its closed-form constant
``c^{-d1/2} B(d1/2, d2/2)``, and the ``z2 -> infinity`` Laplace asymptotics
whose only surviving ``r = z1/z2`` dependence is the factor
``D(r)^(-delta1/2)``.

All kernels are assembled in log space and exponentiated only inside the
quadrature, relative to a shift per integral that the quadrature keeps as
the largest weighted node seen so far; products of three transition
densities underflow raw arithmetic long before the ratios of interest
become ill-defined.

Every integral is a row of :func:`quadrature.integrate_rows` in its log
mode, which returns the log of each integral with its relative error.  The
x2 axis is outermost, with the pair and the triple as two rows of one call;
each batch of x2 nodes evaluates ``g`` as a batch of x1 rows and ``h`` as a
batch of x3 rows, and the four integrals of :func:`lemma3_ratio_check` form
one more batch.  Each refinement level of a batch is one array call of the
kernels, so the cost is set by the number of points rather than by Python
calls per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import besq, quadrature, specfun
from .besq import BesqParams
from .errors import ConvergenceError, DomainError, UnreliableRatioError
from .quadrature import QuadratureResult, QuadratureSpec

# Below this log value a pair density cannot be divided through reliably.
_LOG_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class ScenarioParams:
    """One conditioning scenario: coupling, dimensions, and observation levels.

    Every finite coupling ``c >= 0`` is admitted.  The kernel integrals run
    on ``0 < c <= 1``; below 1 the conditional law depends on ``(eps, z1)``,
    and at ``c = 1`` every ratio collapses to a single squared-Bessel kernel
    of dimension ``delta1 + delta2``.  :func:`conditional_ratio_detail`
    takes ``c = 0`` and ``c = 1`` exactly and runs ``c > 1`` as the law of
    ``Z/c``, with the dimensions swapped so that the ``eps -> 0`` kernel
    still restarts the process that carries no share of ``z1``.
    """

    c: float
    delta1: float
    delta2: float
    eps: float
    z1: float
    z2: float
    z3: float

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise DomainError("c must be finite and nonnegative")
        if not (0.0 < self.delta1 < math.inf and 0.0 < self.delta2 < math.inf):
            raise DomainError("dimensions must be positive and finite")
        if not 0.0 < self.eps < 1.0:
            raise DomainError("eps must lie in (0, 1)")
        if not all(0.0 < z < math.inf for z in (self.z1, self.z2, self.z3)):
            raise DomainError("observation levels must be positive and finite")


@dataclass
class RatioResult:
    """A conditional-density ratio with its quadrature bookkeeping.

    ``evaluations`` counts the points of the inner x1 and x3 integrals of
    the one pass that yields both pair and triple (the ``eps -> 0`` kernel
    has no x1 axis); the exact couplings report 0.
    """

    ratio: float
    rel_error_estimate: float
    evaluations: int
    converged: bool


# ---------------------------------------------------------------------------
# Kernels, in log space.  Each is one joint step of (X, Z): a transition
# density for the hidden X coordinate times one for the Y remainder z - c x.

def _log_step(c, delta1, delta2, t, x_from, z_from, x_to, z_to):
    # X moves x_from -> x_to and Y = Z - c X moves z_from - c x_from -> z_to - c x_to
    log_x = besq.log_transition_density(BesqParams(delta1), t, x_from, x_to)
    return log_x + besq.log_transition_density(
        BesqParams(delta2), t, z_from - c * x_from, z_to - c * x_to
    )


def log_kernel_a11(s: ScenarioParams, x1):
    """Log of the joint density factor of (X(eps), Z(eps)) at (x1, z1).

    Both processes start at zero, so this is a product of two started-at-zero
    kernels (:func:`besq.log_zero_start`); it stays finite in log space down
    to arbitrarily small ``x1`` even when ``delta1 < 2`` makes the linear
    value blow up.
    """
    x1 = np.asarray(x1, dtype=float)
    if x1.size and not (np.all(x1 > 0.0) and np.all(s.c * x1 < s.z1)):
        raise DomainError("need 0 < x1 < z1/c")
    log_x = besq.log_zero_start(BesqParams(s.delta1), s.eps, x1)
    return log_x + besq.log_zero_start(BesqParams(s.delta2), s.eps, s.z1 - s.c * x1)


def _log_a12(s: ScenarioParams, x1, x2):
    return _log_step(s.c, s.delta1, s.delta2, 1.0 - s.eps, x1, s.z1, x2, s.z2)


def _log_a13(s: ScenarioParams, x2, x3):
    return _log_step(s.c, s.delta1, s.delta2, 1.0, x2, s.z2, x3, s.z3)


def _log_a21(c, delta1, delta2, z1, z2, x2):
    # eps -> 0 limit kernel: X restarts from 0, Y carries the whole of z1
    return _log_step(c, delta1, delta2, 1.0, 0.0, z1, x2, z2)


def _log_a32(c, delta1, delta2, z2, x2):
    # product of weighted zero-limits, the z3 -> 0 companion of A21
    x2 = np.asarray(x2, dtype=float)
    l1 = besq.log_zero_start(BesqParams(delta1), 1.0, x2, weighted=True)
    l2 = besq.log_zero_start(BesqParams(delta2), 1.0, z2 - c * x2, weighted=True)
    return l1 + l2


def _upper_support(z: float, c: float) -> float:
    # largest float b with fl(c * b) < z: rounding is monotone, so every
    # quadrature node x < b then keeps fl(z - c * x) > 0; the raw z / c can
    # round up far enough that nodes hugging it make the companion argument
    # collapse to zero or below.  Every kernel integral takes this path, so
    # it also holds their coupling range: c = 0 has no hidden coordinate,
    # and c > 1 needs the swap of conditional_ratio_detail
    if not 0.0 < c <= 1.0:
        raise DomainError("kernel integrals need a coupling in (0, 1]")
    b = z / c
    while c * b >= z:
        b = math.nextafter(b, 0.0)
    return b


def _scenario_specs(delta1: float, delta2: float) -> dict:
    left = min(0.5 * delta1, 1.0)
    # every x_i integral runs to z_i/c, where the companion argument
    # z_i - c x_i closes down to zero; for delta2 < 2 that endpoint is
    # singular, and node spacing next to an endpoint away from 0.0 floors
    # the attainable relative error near 1e-8, so asking for more would
    # only burn every refinement level
    right = min(0.5 * delta2, 1.0)
    if delta2 < 2.0:
        return {
            "x1": QuadratureSpec(1e-7, 1e-15, 12, left, right),
            "x2": QuadratureSpec(1e-7, 1e-15, 12, left, right),
            "x3": QuadratureSpec(1e-7, 1e-16, 12, left, right),
            "limit": QuadratureSpec(1e-7, 1e-16, 13, left, right),
        }
    return {
        "x1": QuadratureSpec(1e-8, 1e-15, 12, left, right),
        "x2": QuadratureSpec(1e-9, 1e-15, 12, left, right),
        "x3": QuadratureSpec(1e-10, 1e-16, 12, left, right),
        "limit": QuadratureSpec(1e-10, 1e-16, 13, left, right),
    }


def _factor(batch: quadrature.QuadratureRows) -> tuple:
    # one inner factor at a batch of x2 nodes: its logs, the worst relative
    # error among its rows, their points, and their convergence (a closed
    # form is exact and takes no points: logs, 0.0, 0, True)
    return (
        batch.values,
        float(batch.errors.max()),
        int(batch.evaluations.sum()),
        bool(batch.converged.all()),
    )


def _x3_rows(s: ScenarioParams) -> Callable[[np.ndarray], tuple]:
    """The factor ``h(x2) = int_0^b3 A13 dx3``, one x3 row per x2 node, kept in
    log space: near ``z3 -> 0`` A13's endpoint blowup overflows linear values."""
    b3 = _upper_support(s.z3, s.c)
    spec = _scenario_specs(s.delta1, s.delta2)["x3"]
    return lambda x2: _factor(quadrature.integrate_rows(
        lambda r, x3: _log_a13(s, x2[r, None], x3), x2.size, 0.0, b3, spec, log=True
    ))


def _kernel_logs(
    s: ScenarioParams, use_eps: bool, log_h: Callable[[np.ndarray], tuple] | None = None
) -> list[QuadratureResult]:
    """Logs of ``pair = int_0^b2 g dx2`` and, given ``log_h``, ``triple = int_0^b2 g h dx2``.

    ``g`` is the x1 rows of A11 A12, or A21 without ``use_eps``.  Pair and
    triple are the two log rows of one outer integral; ``h`` (say
    :func:`_x3_rows`) runs only while the triple row refines.  A row's error
    adds the worst relative error of ``g`` (plus ``h``) at its nodes;
    every row reports the pass's x1 and x3 points.  Each result's value is
    a log and its error estimate relative.
    """
    specs = _scenario_specs(s.delta1, s.delta2)
    b1 = _upper_support(s.z1, s.c)

    def log_g(x2):
        if not use_eps:
            return _log_a21(s.c, s.delta1, s.delta2, s.z1, s.z2, x2), 0.0, 0, True
        return _factor(quadrature.integrate_rows(
            lambda r, x1: log_kernel_a11(s, x1) + _log_a12(s, x1, x2[r, None]),
            x2.size, 0.0, b1, specs["x2"], log=True,
        ))

    n_rows = 1 if log_h is None else 2
    inner_rel = np.zeros(n_rows)
    inner_ok = np.ones(n_rows, dtype=bool)
    points = 0

    def log_f(rows, x2):
        nonlocal points
        # row 0 integrates g and row 1 g h, so running sums give both rows
        logs, rels, counts, oks = zip(log_g(x2), *([log_h(x2)] if rows[-1] == 1 else []))
        points += sum(counts)
        inner_rel[rows] = np.maximum(inner_rel[rows], np.cumsum(rels)[rows])
        inner_ok[rows] &= np.logical_and.accumulate(oks)[rows]
        return np.cumsum(logs, axis=0)[rows]

    outer = quadrature.integrate_rows(
        log_f, n_rows, 0.0, _upper_support(s.z2, s.c), specs["x1" if use_eps else "limit"],
        log=True,
    )
    outer.errors += inner_rel
    outer.converged &= inner_ok
    outer.evaluations[:] = points
    return [outer.row(i) for i in range(n_rows)]


# ---------------------------------------------------------------------------
# Public density and ratio operations.

def joint_density_pair(s: ScenarioParams, use_eps: bool = True) -> float:
    """Kernel integral for the law of ``(Z(eps), Z(1))`` at ``(z1, z2)``.

    With ``use_eps`` false, returns the ``eps -> 0`` limit object built on
    the closed-form A21 kernel instead: the started-at-zero kernel
    concentrates like a delta function as eps shrinks, which is hostile to
    fixed quadrature.
    """
    return _density(_kernel_logs(s, use_eps)[0], "pair")


def joint_density_triple(s: ScenarioParams, use_eps: bool = True) -> float:
    """Kernel integral for the law of ``(Z(eps), Z(1), Z(2))`` at ``(z1, z2, z3)``."""
    return _density(_kernel_logs(s, use_eps, _x3_rows(s))[1], "triple")


def _density(res: QuadratureResult, what: str) -> float:
    if not res.converged:
        raise ConvergenceError(f"{what} density quadrature did not converge")
    return math.exp(res.value) if math.isfinite(res.value) else 0.0


def conditional_ratio_detail(s: ScenarioParams, use_eps: bool = True) -> RatioResult:
    """Conditional density of ``Z(2)`` at ``z3`` given ``(Z(eps), Z(1)) = (z1, z2)``.

    Returns the ratio together with a first-order relative error estimate
    (sum of the pair and triple estimates), the inner x1 and x3 points,
    and the joint convergence flag.  Any coupling ``c >= 0`` is served: see
    the module docstring for the exact couplings 0 and 1 and the law of
    ``Z/c`` behind ``c > 1``.
    """
    k = 1.0
    if s.c > 1.0:
        k = 1.0 / s.c
        s = ScenarioParams(k, s.delta2, s.delta1, s.eps, s.z1 * k, s.z2 * k, s.z3 * k)
    if s.c == 0.0 or s.c == 1.0:
        delta = s.delta2 if s.c == 0.0 else s.delta1 + s.delta2
        ratio = besq.transition_density(BesqParams(delta), 1.0, s.z2, s.z3) * k
        return RatioResult(ratio, 0.0, 0, True)
    pair, triple = _kernel_logs(s, use_eps, _x3_rows(s))
    if pair.value < _LOG_FLOOR:
        raise UnreliableRatioError(
            "pair density below 1e-300; the conditional ratio is not trustworthy"
        )
    log_ratio = triple.value - pair.value
    return RatioResult(
        ratio=(math.exp(log_ratio) if math.isfinite(log_ratio) else 0.0) * k,
        rel_error_estimate=pair.error_estimate + triple.error_estimate,
        evaluations=triple.evaluations,
        converged=pair.converged and triple.converged,
    )


def conditional_ratio(s: ScenarioParams, use_eps: bool = True) -> float:
    """Scalar version of :func:`conditional_ratio_detail`."""
    detail = conditional_ratio_detail(s, use_eps)
    if not detail.converged:
        raise ConvergenceError("conditional ratio quadrature did not converge")
    return detail.ratio


# ---------------------------------------------------------------------------
# Limit objects: z3 -> 0 and z2 -> infinity.

def zero_limit_weighted_triple(s: ScenarioParams) -> float:
    """The ``z3 -> 0`` limit of ``z3^{1-(d1+d2)/2}`` times the triple integral.

    Evaluates the closed limit: the full-support rescaling constant
    ``c^{-d1/2} B(d1/2, d2/2)`` times ``q_tilde(z2; z1)``, where ``q_tilde``
    pairs the A21 kernel with the product of weighted zero-limits (A32);
    ``s.z3`` plays no role here and ``s.eps`` refers to the limit object.
    """
    qt = _kernel_logs(
        s, False, lambda x2: (_log_a32(s.c, s.delta1, s.delta2, s.z2, x2), 0.0, 0, True)
    )[1]
    if not qt.converged:
        raise ConvergenceError("weighted zero-limit quadrature did not converge")
    log_beta = (
        specfun.ln_gamma(0.5 * s.delta1)
        + specfun.ln_gamma(0.5 * s.delta2)
        - specfun.ln_gamma(0.5 * (s.delta1 + s.delta2))
    )
    log_c1 = log_beta - 0.5 * s.delta1 * math.log(s.c)
    return math.exp(log_c1 + qt.value)


def d_of_r(r: float, c: float) -> float:
    """The surviving ``r = z1/z2`` dependence in the large-``z2`` ratio law.

    ``D(r) = 1 + (1-c) / (1-c + sqrt(r) c)``; decreasing in ``r`` from 2 at
    ``r = 0+`` to 1 at infinity, and identically ``2 - c`` at ``r = 1``.
    """
    if not r >= 0.0:
        raise DomainError("r must be nonnegative")
    if not (0.0 < c < 1.0):
        raise DomainError("c must lie in (0, 1)")
    return 1.0 + (1.0 - c) / (1.0 - c + math.sqrt(r) * c)


def lemma3_ratio_check(
    r1: float, r2: float, z2: float, c: float, delta1: float, delta2: float
) -> float:
    """Residual of the large-``z2`` double-ratio law.

    For ``rho(r) = q_tilde(z2; z2 r) / q(z2; z2 r)`` the unknown constant and
    the shared ``exp(-z2/2)`` factor cancel in ``rho(r1)/rho(r2)``, whose
    limit is ``(D(r1)/D(r2))^(-delta1/2)``.  Returns the signed difference
    between the double ratio at this ``z2`` and that limit.
    """
    if not 0.0 < c < 1.0:
        raise DomainError("c must lie in (0, 1)")
    if not (r1 > 0.0 and r2 > 0.0):
        raise DomainError("ratios r must be positive")
    if not z2 > 0.0:
        raise DomainError("z2 must be positive")
    if not (0.0 < delta1 < math.inf and 0.0 < delta2 < math.inf):
        raise DomainError("dimensions must be positive and finite")
    # rows: q_tilde and q at r1, then at r2, sharing (0, z2/c) and one spec
    z1 = z2 * np.array([r1, r1, r2, r2])[:, None]
    tilde = np.array([True, False, True, False])[:, None]

    def log_f(rows, x2):
        a21 = _log_a21(c, delta1, delta2, z1[rows], z2, x2)
        return np.where(tilde[rows], a21 + _log_a32(c, delta1, delta2, z2, x2), a21)

    rows = quadrature.integrate_rows(
        log_f, 4, 0.0, _upper_support(z2, c), _scenario_specs(delta1, delta2)["limit"], log=True
    )
    results = [rows.row(i) for i in range(4)]
    logs = []
    for qt, qp in (results[:2], results[2:]):
        if not (qt.converged and qp.converged):
            raise ConvergenceError("ratio-law quadrature did not converge")
        if qp.value < _LOG_FLOOR:
            raise UnreliableRatioError("pair integral below 1e-300 in the ratio law")
        logs.append(qt.value - qp.value)
    double_ratio = math.exp(logs[0] - logs[1])
    predicted = (d_of_r(r1, c) / d_of_r(r2, c)) ** (-0.5 * delta1)
    return double_ratio - predicted


# ---------------------------------------------------------------------------
# Generic endpoint Laplace asymptotics.

@dataclass(frozen=True)
class LaplaceProblem:
    """Data of an endpoint Laplace integral ``int_0^1 e^{-lam phi} f x^{nu-1} dx``.

    ``phi`` must be strictly increasing on (0, 1) with ``phi(0+) = a`` and
    ``phi'(0+) = b > 0``; ``f(lam, .)`` bounded with ``f(lam, x/lam)``
    converging to the constant ``f_limit``.
    """

    a: float
    b: float
    nu: float
    phi: Callable[[np.ndarray], np.ndarray]
    f: Callable[[float, np.ndarray], np.ndarray]
    f_limit: float

    def __post_init__(self):
        if not self.b > 0.0:
            raise DomainError("phi'(0+) must be positive")
        if not self.nu > 0.0:
            raise DomainError("nu must be positive")


def laplace_asymptotic(p: LaplaceProblem, lam: float) -> float:
    """Leading term ``f_limit Gamma(nu) b^{-nu} lam^{-nu} e^{-a lam}``."""
    if not lam > 0.0:
        raise DomainError("lam must be positive")
    return p.f_limit * math.exp(
        specfun.ln_gamma(p.nu) - p.nu * (math.log(p.b) + math.log(lam)) - p.a * lam
    )


def laplace_numeric(p: LaplaceProblem, lam: float, spec: QuadratureSpec | None = None) -> float:
    """Direct quadrature of the Laplace integral, the oracle for the asymptotic.

    The constant part ``e^{-a lam}`` is factored out before integrating so
    that large ``lam`` with ``a > 0`` cannot underflow the whole integrand.
    """
    if not lam > 0.0:
        raise DomainError("lam must be positive")
    if spec is None:
        spec = QuadratureSpec(1e-11, 1e-18, 13, min(p.nu, 1.0), 1.0)

    def integrand(x):
        return np.exp(-lam * (p.phi(x) - p.a)) * p.f(lam, x) * x ** (p.nu - 1.0)

    res = quadrature.integrate(integrand, 0.0, 1.0, spec)
    if not res.converged:
        raise ConvergenceError("Laplace quadrature did not converge")
    return math.exp(-p.a * lam) * res.value


def laplace_hypothesis_margin(p: LaplaceProblem, n: int = 1000) -> float:
    """Grid check of the growth bound ``(phi(x) - a) / x >= K > 0``.

    Returns the grid minimum of the quotient; a positive value certifies the
    hypothesis that justifies trusting :func:`laplace_asymptotic`.
    """
    x = (np.arange(n) + 0.5) / n
    return float(np.min((p.phi(x) - p.a) / x))


def standard_laplace_problems() -> dict[str, LaplaceProblem]:
    """Three reference problems covering curvature, offset, and nu variety.

    quadratic: phi = x + x^2/2 (a=0, b=1), nu=1, f constant.
    affine:    phi = 3 + 2x (a=3, b=2), nu=1/2, f = 1/(1+x).
    log:       phi = -log(1 - x/2) (a=0, b=1/2), nu=2, f constant.
    """
    one = lambda lam, x: np.ones_like(x)
    return {
        "quadratic": LaplaceProblem(
            0.0, 1.0, 1.0, lambda x: x + 0.5 * x * x, one, 1.0
        ),
        "affine": LaplaceProblem(
            3.0, 2.0, 0.5, lambda x: 3.0 + 2.0 * x, lambda lam, x: 1.0 / (1.0 + x), 1.0
        ),
        "log": LaplaceProblem(
            0.0, 0.5, 2.0, lambda x: -np.log1p(-0.5 * x), one, 1.0
        ),
    }
