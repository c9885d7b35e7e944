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

Every integral is a row of :func:`quadrature.integrate_rows`, which
returns the log of each integral with its relative error.  Each
kernel family makes one pass with x2 outermost.  The ratio pass holds the
pair and the triple as two rows; each batch of its x2 nodes evaluates ``g``
as a batch of x1 rows and ``h`` as a batch of x3 rows.  The ``eps -> 0``
pass holds ``q_tilde`` and ``q`` (A21 with and without A32) at a column of
``z1`` values, two for :func:`lemma3_ratio_check` and one for
:func:`zero_limit_weighted_triple`, and its two rows at one ``z1`` share
one A21 row.  A21 restarts X from zero, so its X factor is the closed-form
Gamma density of :func:`besq.log_zero_start` and only its Y factor is a
transition density.  A batch makes one array call of the kernels for its
refinement levels 0 to 3 together, and one per later level, so the cost is
set by the number of points rather than by Python calls per node.  Most x2
rows stop at level 3, so one x1 batch and one x3 batch of rows, at every
x2 node of levels 0 to 3, serve the whole outer axis.

Every x1, x3, x2 and limit row goes through one convergence gate,
:func:`_log_rows`: a row that ends unconverged raises ConvergenceError
naming its axis at once, so a failed inner row ends the whole pass before
its outer axis refines on it, and every value returned is converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy

from . import besq, quadrature
from .besq import BesqParams
from .errors import ConvergenceError, DomainError
from .quadrature import QuadratureRows, QuadratureSpec


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

    ``eps`` is the first observation time, in ``(0, 1)``; ``eps=None`` names
    the ``eps -> 0`` limit object, built on the closed-form kernel A21 (the
    started-at-zero kernel concentrates like a delta function as eps
    shrinks, which is hostile to fixed quadrature).
    """

    c: float
    delta1: float
    delta2: float
    eps: float | None
    z1: float
    z2: float
    z3: float

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise DomainError("c must be finite and nonnegative")
        if not (0.0 < self.delta1 < math.inf and 0.0 < self.delta2 < math.inf):
            raise DomainError("dimensions must be positive and finite")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
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
    # eps -> 0 limit kernel: X restarts from 0, where its transition density
    # is the Gamma density of log_zero_start, and Y carries the whole of z1
    log_x = besq.log_zero_start(BesqParams(delta1), 1.0, x2)
    return log_x + besq.log_transition_density(BesqParams(delta2), 1.0, z1, z2 - c * x2)


def _log_a32(c, delta1, delta2, z2, x2):
    # product of weighted zero-limits, the z3 -> 0 companion of A21
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
    # the attainable relative error at (2**-53)**a / a, a = delta2/2, near
    # 1e-8 at delta2 = 1: asking for more would only burn every refinement
    # level.  Below delta2 ~ 0.93 the floor passes 1e-7 and ratios exit 3
    right = min(0.5 * delta2, 1.0)
    spec = partial(QuadratureSpec, left_exponent=left, right_exponent=right)
    x1, x2, x3, limit = (1e-7,) * 4 if delta2 < 2.0 else (1e-9, 1e-8, 1e-10, 1e-10)
    return {"x1": spec(x1), "x2": spec(x2), "x3": spec(x3), "limit": spec(limit, max_levels=13)}


def _log_rows(axis: str, f, n_rows: int, b: float, spec: QuadratureSpec) -> QuadratureRows:
    # the kernel integrals' one convergence gate: n_rows log rows over (0, b),
    # or a ConvergenceError naming the axis as soon as any row fails
    rows = quadrature.integrate_rows(f, n_rows, 0.0, b, spec)
    failed = ~rows.converged
    if failed.any():
        raise ConvergenceError(
            f"{axis} quadrature did not converge: {failed.sum()} of {n_rows} rows, "
            f"worst relative error {rows.errors[failed].max():.3g}"
        )
    return rows


def _exact(logs: np.ndarray) -> QuadratureRows:
    # a closed-form inner factor, as integrate_rows gives one: exact, no
    # points, and no refinement level past 0
    n = logs.shape
    return QuadratureRows(logs, np.zeros(n), np.zeros(n, int), np.ones(n, bool), np.zeros(n, int))


def _kernel_logs(s: ScenarioParams, triple: bool = True) -> QuadratureRows:
    """The ratio pass: rows of the logs of ``pair = int_0^b2 g dx2`` and,
    with ``triple``, ``triple = int_0^b2 g h dx2``, with relative errors.

    ``g`` is the x1 rows of A11 A12, or A21 at ``s.eps = None``, and ``h``
    the x3 rows of A13, kept in log space: near ``z3 -> 0`` A13's endpoint
    blowup overflows linear values.  ``h`` runs only while the triple row
    refines.  A row's error adds the worst relative error of ``g`` (plus
    ``h``) at its nodes; every row reports the pass's x1 and x3 points.
    """
    specs = _scenario_specs(s.delta1, s.delta2)

    def log_g(x2):
        if s.eps is None:
            return _exact(_log_a21(s.c, s.delta1, s.delta2, s.z1, s.z2, x2))
        return _log_rows(
            "x1", lambda r, x1: log_kernel_a11(s, x1) + _log_a12(s, x1, x2[r, None]),
            x2.size, _upper_support(s.z1, s.c), specs["x1"],
        )

    def log_h(x2):
        return _log_rows(
            "x3", lambda r, x3: _log_a13(s, x2[r, None], x3),
            x2.size, _upper_support(s.z3, s.c), specs["x3"],
        )

    n_rows = 2 if triple else 1
    inner_rel = np.zeros(n_rows)
    points = 0

    def log_f(rows, x2):
        nonlocal points
        # row 0 integrates g and row 1 g h, so running sums give both rows;
        # a row's inner error is the worst over its nodes of e_g (+ e_h)
        factors = [log_g(x2)] + ([log_h(x2)] if rows[-1] == 1 else [])
        points += sum(f.evaluations.sum() for f in factors)
        rels = np.cumsum([f.errors for f in factors], axis=0)
        inner_rel[rows] = np.maximum(inner_rel[rows], rels.max(axis=1)[rows])
        return np.cumsum([f.values for f in factors], axis=0)[rows]

    spec = specs["limit" if s.eps is None else "x2"]
    outer = _log_rows("x2", log_f, n_rows, _upper_support(s.z2, s.c), spec)
    outer.errors += inner_rel
    outer.evaluations[:] = points
    return outer


def _limit_logs(c, delta1, delta2, z1s, z2) -> QuadratureRows:
    """The ``eps -> 0`` pass: rows ``2k`` and ``2k + 1`` are the logs of
    ``q_tilde`` and ``q`` at ``z1s[k]``, and both read one A21 row."""
    z1 = np.reshape(z1s, (-1, 1))

    def log_f(rows, x2):
        logs = _log_a21(c, delta1, delta2, z1, z2, x2)[rows // 2]
        logs[rows % 2 == 0] += _log_a32(c, delta1, delta2, z2, x2)
        return logs

    spec = _scenario_specs(delta1, delta2)["limit"]
    return _log_rows("limit", log_f, 2 * z1.size, _upper_support(z2, c), spec)


# ---------------------------------------------------------------------------
# Public density and ratio operations.

def joint_density_pair(s: ScenarioParams) -> float:
    """Kernel integral for the law of ``(Z(eps), Z(1))`` at ``(z1, z2)``.

    At ``s.eps = None`` it is the ``eps -> 0`` limit object.
    """
    return math.exp(_kernel_logs(s, triple=False).values[0])


def joint_density_triple(s: ScenarioParams) -> float:
    """Kernel integral for the law of ``(Z(eps), Z(1), Z(2))`` at ``(z1, z2, z3)``."""
    return math.exp(_kernel_logs(s).values[1])


def conditional_ratio_detail(s: ScenarioParams) -> RatioResult:
    """Conditional density of ``Z(2)`` at ``z3`` given ``(Z(eps), Z(1)) = (z1, z2)``.

    Returns the ratio together with a first-order relative error estimate
    (sum of the pair and triple estimates) and the inner x1 and x3 points,
    or raises ConvergenceError naming the axis where a row failed.  Any
    coupling ``c >= 0`` is served: see the module docstring for the exact
    couplings 0 and 1 and the law of ``Z/c`` behind ``c > 1``.
    """
    k = 1.0
    if s.c > 1.0:
        k = 1.0 / s.c
        s = ScenarioParams(k, s.delta2, s.delta1, s.eps, s.z1 * k, s.z2 * k, s.z3 * k)
    if s.c == 0.0 or s.c == 1.0:
        delta = s.delta2 if s.c == 0.0 else s.delta1 + s.delta2
        ratio = besq.transition_density(BesqParams(delta), 1.0, s.z2, s.z3) * k
        return RatioResult(ratio, 0.0, 0)
    logs = _kernel_logs(s)
    return RatioResult(
        ratio=math.exp(logs.values[1] - logs.values[0]) * k,
        rel_error_estimate=float(logs.errors.sum()),
        evaluations=int(logs.evaluations[1]),
    )


# ---------------------------------------------------------------------------
# Limit objects: z3 -> 0 and z2 -> infinity.

def zero_limit_weighted_triple(s: ScenarioParams) -> float:
    """The ``z3 -> 0`` limit of ``z3^{1-(d1+d2)/2}`` times the triple integral.

    Evaluates the closed limit: the full-support rescaling constant
    ``c^{-d1/2} B(d1/2, d2/2)`` times ``q_tilde(z2; z1)``, where ``q_tilde``
    pairs the A21 kernel with the product of weighted zero-limits (A32);
    ``s.z3`` and ``s.eps`` play no role here.
    """
    log_qt = _limit_logs(s.c, s.delta1, s.delta2, [s.z1], s.z2).values[0]
    log_c1 = scipy.special.betaln(0.5 * s.delta1, 0.5 * s.delta2) - 0.5 * s.delta1 * math.log(s.c)
    return math.exp(log_c1 + log_qt)


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

    Observed at ``c = 0.5``, ``delta1 = delta2`` in ``{1, 3, 8}``: the
    residual decays as ``1/z2``, ``z2 * residual`` changing ~10x less per
    decade of ``z2``.  The rows are logs, so no ``q`` is too small; their
    limit is the rounding floor ``|log| * 2**-52``, which passes the 1e-10
    asked for at ``delta2 >= 2`` as logs pass ~4.5e5, so those rows raise
    ConvergenceError near ``z2 = 1e6``.
    """
    if not 0.0 < c < 1.0:
        raise DomainError("c must lie in (0, 1)")
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise DomainError("ratios r must be positive and finite")
    if not 0.0 < z2 < math.inf:
        raise DomainError("z2 must be positive and finite")
    if not (r1 * z2 < math.inf and r2 * z2 < math.inf):
        raise DomainError("levels r * z2 must be finite")
    if not (0.0 < delta1 < math.inf and 0.0 < delta2 < math.inf):
        raise DomainError("dimensions must be positive and finite")
    logs = _limit_logs(c, delta1, delta2, z2 * np.array([r1, r2]), z2).values
    log_rho = logs[0::2] - logs[1::2]
    double_ratio = math.exp(log_rho[0] - log_rho[1])
    predicted = (d_of_r(r1, c) / d_of_r(r2, c)) ** (-0.5 * delta1)
    return double_ratio - predicted
