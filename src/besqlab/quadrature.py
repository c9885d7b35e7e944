"""Tanh-sinh quadrature on finite intervals, with semi-infinite and nested variants.

The tanh-sinh substitution ``x = m + r tanh((pi/2) sinh t)`` pushes the
endpoints to infinity double-exponentially fast, so integrable endpoint
singularities like ``x**(alpha-1)`` cost nothing special: node weights decay
faster than any power of the distance to the endpoint.  Refinement halves the
step in ``t`` and reuses every previously evaluated node.

One level loop, :func:`integrate_rows`, drives every integral.  It
integrates a batch of rows that share the interval and the spec: at each
refinement level the integrand receives the indices of the rows still
refining and the level's 1-D array of abscissae, and returns one
rows x nodes grid in a single call.  Each row keeps the scalar rule (its own
error estimate and stopping level).  :func:`integrate` is the one-row case,
whose integrand maps a 1-D array of abscissae to an array of the same shape;
:func:`integrate_iterated` nests it once per outer node.  Integrands are
never evaluated at the endpoints themselves.

In log mode the integrand returns the log of a nonnegative integrand and
each row comes back as the log of its integral.  This is the one home of
the log-space shift: each row sums its terms relative to the largest
weighted node it has seen, and rescales its running sum whenever a level
raises that maximum (the online normalizer of softmax), so no point is
evaluated only to choose a shift and no term can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

# Beyond this t the distance to the endpoint, 2/(1+exp(2*(pi/2)*sinh t)),
# underflows double precision entirely; nodes out there carry zero mass.
_T_MAX = math.asinh(745.0 / math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and refinement budget for one integration axis.

    ``left_exponent`` / ``right_exponent`` record the integrable endpoint
    behavior ``(x - a)**(exponent - 1)`` the caller expects; tanh-sinh does not
    need the value to place nodes, but the spec travels with the axis so that
    nested integrals document their singularity structure.

    In a log row of :func:`integrate_rows`, ``abs_tol`` is stated in units of
    the row's largest weighted node: the largest ``r * w * f`` it has met,
    for half interval ``r`` and node weight ``w``.  In those units a level's
    value is at least its step ``2**-level``, so an ``abs_tol`` below
    ``rel_tol * 2**-max_levels`` never decides convergence.  The row's error
    floor also holds ``|S| * 2**-52``, the spacing of log values at its
    shift ``S``.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_levels: int = 12
    left_exponent: float = 1.0
    right_exponent: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_levels < 2:
            raise DomainError("max_levels must be at least 2")
        if not (0.0 < self.left_exponent <= 1.0 and 0.0 < self.right_exponent <= 1.0):
            raise DomainError("endpoint exponents must lie in (0, 1]")


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# Node tables per refinement level, shared by every integration.  Level k
# contributes the abscissae t = j * 2**-k for odd j (level 0: all integers
# including t = 0), each stored as (distance to endpoint, weight).
_node_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    if level == 0:
        t = np.arange(1.0, math.floor(_T_MAX) + 1.0)
    else:
        h = 2.0 ** (-level)
        j = np.arange(1.0, _T_MAX / h, 2.0)
        t = j * h
    w_arg = math.pi * np.sinh(t)  # 2 * (pi/2) sinh t
    # delta = 1 - tanh((pi/2) sinh t) computed without forming exp(+w_arg)
    e = np.exp(-w_arg)
    delta = 2.0 * e / (1.0 + e)
    weight = 0.5 * math.pi * np.cosh(t) * delta * (2.0 - delta)
    keep = delta > 0.0
    result = (delta[keep], weight[keep])
    _node_cache[level] = result
    return result


@dataclass
class QuadratureRows:
    """Results of :func:`integrate_rows`, one array entry per row."""

    values: np.ndarray
    errors: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray

    def row(self, i: int) -> QuadratureResult:
        return QuadratureResult(
            float(self.values[i]),
            float(self.errors[i]),
            int(self.evaluations[i]),
            bool(self.converged[i]),
        )


# Largest rows x nodes grid handed to an integrand in one call.  A deep level
# has ~25k nodes, so an axis with many unconverged rows would otherwise
# allocate rows x nodes without limit; larger batches are split into chunks.
_GRID_BUDGET = 1 << 16


def _evaluate(f, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    step = max(1, _GRID_BUDGET // xs.size)
    chunks = []
    for start in range(0, rows.size, step):
        part = rows[start : start + step]
        chunks.append(np.asarray(f(part, xs), dtype=float).reshape(part.size, xs.size))
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_rows: int,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    *,
    log: bool = False,
) -> QuadratureRows:
    """Integrate ``n_rows`` vectorized integrands over one open interval ``(a, b)``.

    Parameters
    ----------
    f : callable
        ``f(rows, xs)`` receives the integer indices of the rows still
        refining and the 1-D abscissae of one level, and returns their
        ``(rows.size, xs.size)`` grid of integrand values.  The same rules as
        for :func:`integrate` hold per row.
    n_rows : int
        Number of integrands; they share the limits and ``spec``.
    a, b : float
        Finite limits with ``a < b``.
    spec : QuadratureSpec, optional
        Tolerances and budget; defaults to ``QuadratureSpec()``.
    log : bool, keyword-only
        ``f`` returns the log of a nonnegative integrand, and each row comes
        back as the log of its integral with a relative error.  Each row
        sums ``exp(log f + log w - S)`` over its nodes, where the shift ``S``
        is the largest ``log f + log w`` it has met so far; when a level
        raises ``S``, the running sum and the previous level's value are
        rescaled by ``exp(S_old - S_new)``.  So every term is at most 1, and
        the tiny weights of deep nodes keep an endpoint singularity from
        dragging the shift away from the body.

    Returns
    -------
    QuadratureRows
        Each row follows the rule of :func:`integrate` on its own: it stops
        refining once its successive-level difference meets the tolerance,
        or with ``error = inf`` and ``converged`` False once its value is not
        finite.  A log row also stops so once its rounding floor
        ``|S| * 2**-52`` alone exceeds ``rel_tol``.  ``evaluations`` counts
        each row's points.

    Raises
    ------
    ConvergenceError
        A log row has no finite value on the first level.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integrate requires finite limits with a < b")

    m = 0.5 * (a + b)
    r = 0.5 * (b - a)

    # A singular endpoint that is not exactly 0.0 cannot be approached closer
    # than its ulp, and the mass inside that band is lost to double precision
    # no matter how deep the refinement goes.  Fold that floor into the error
    # estimate so convergence is never claimed below what is representable.
    rep_floor = 0.0
    for endpoint, alpha in ((a, spec.left_exponent), (b, spec.right_exponent)):
        if alpha < 1.0 and endpoint != 0.0:
            gap = 0.5 * math.ulp(abs(endpoint)) / (b - a)
            rep_floor = max(rep_floor, gap**alpha / alpha)

    evaluations = np.zeros(n_rows, dtype=np.int64)
    weighted_sum = np.zeros(n_rows)
    # a linear row keeps shift 0; a log row's sums are in units of exp(shift)
    shift = np.full(n_rows, -math.inf if log else 0.0)
    values = np.full(n_rows, math.nan)
    errors = np.full(n_rows, math.inf)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)

    for level in range(spec.max_levels + 1):
        if active.size == 0:
            break
        delta, weight = _nodes(level)
        x_left = a + r * delta
        x_right = b - r * delta
        # mask each side on its own: near a singular endpoint one side keeps
        # representable nodes long after the other has rounded onto its limit;
        # the centre joins level 0, so each level is one integrand call
        left_ok = x_left > a
        right_ok = x_right < b
        centre = [m] if level == 0 else []
        xs = np.concatenate([centre, x_left[left_ok], x_right[right_ok]])
        ws = np.concatenate([[0.5 * math.pi] * len(centre), weight[left_ok], weight[right_ok]])
        if xs.size:
            fv = _evaluate(f, active, xs)
            evaluations[active] += xs.size
            if log:
                terms = fv + np.log(ws)
                if level == 0 and not np.isfinite(terms).any(axis=1).all():
                    raise ConvergenceError(
                        "log-integrand is not finite anywhere on the first level"
                    )
                # a +inf or nan term makes the shift non-finite: the row stops below
                with np.errstate(invalid="ignore"):
                    new = np.maximum(shift[active], terms.max(axis=1))
                    rescale = np.exp(shift[active] - new)
                    level_sum = np.exp(terms - new[:, None]).sum(axis=1)
                weighted_sum[active] = weighted_sum[active] * rescale + level_sum
                values[active] *= rescale
                shift[active] = new
            else:
                # vecdot takes each row's dot product exactly as np.dot would;
                # a row whose sum overflows or meets inf - inf is stopped below
                n = len(centre)
                k = n + int(left_ok.sum())
                with np.errstate(over="ignore", invalid="ignore"):
                    for lo, hi in ((0, n), (n, k), (k, xs.size)):
                        weighted_sum[active] += np.vecdot(fv[:, lo:hi], ws[lo:hi])
        h = 2.0 ** (-level)
        # scaling a finite sum by a huge interval overflows too, and is
        # stopped below like the sum itself; a log row keeps r out of its sum
        with np.errstate(over="ignore"):
            value = (h if log else r * h) * weighted_sum[active]
        # neighbouring log values at a shift S lie |S| * 2**-52 apart, so a
        # log row cannot be resolved more finely than that; a row whose
        # rounding floor alone misses rel_tol would refine for nothing
        round_floor = np.abs(shift[active]) * 2.0**-52
        floor = np.maximum(rep_floor, round_floor)
        # an inf or nan never refines away, and rel_tol * |value| would
        # otherwise accept it as converged
        finite = np.isfinite(value) & (round_floor <= spec.rel_tol)
        errors[active[~finite]] = math.inf
        if level >= 1:
            ok = active[finite]
            v = value[finite]
            error = np.maximum(np.abs(v - values[ok]), floor[finite] * np.abs(v))
            errors[ok] = error
            if level >= 2:
                converged[ok] = error <= np.maximum(spec.rel_tol * np.abs(v), spec.abs_tol)
        values[active] = value
        active = active[finite & ~converged[active]]

    if log:
        # a row that met +inf or nan keeps it as its value, with error inf
        ok = np.isfinite(shift)
        errors = np.where(ok, errors / values, math.inf)
        values = np.where(ok, shift + math.log(r) + np.log(values), shift)
    return QuadratureRows(values, errors, evaluations, converged)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate a vectorized integrand over the open interval ``(a, b)``.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of points in ``(a, b)`` to integrand values.
        Must be finite on the open interval; endpoint singularities are fine
        because the endpoints themselves are never passed in.
    a, b : float
        Finite limits with ``a < b``.
    spec : QuadratureSpec, optional
        Tolerances and budget; defaults to ``QuadratureSpec()``.

    Returns
    -------
    QuadratureResult
        ``converged`` is False if the refinement budget ran out before the
        successive-level difference met the tolerance; no exception is raised
        so the caller can inspect the partial value.  This is the one-row
        case of :func:`integrate_rows`.
    """
    return integrate_rows(lambda rows, xs: f(xs), 1, a, b, spec).row(0)


def integrate_to_inf(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate over ``(a, inf)`` via the substitution ``y = a + s/(1-s)``.

    Suited to integrands with at-least-exponential tail decay; the far tail
    maps to an invisible sliver near ``s = 1``.
    """
    a = float(a)
    if not math.isfinite(a):
        raise DomainError("integrate_to_inf requires a finite lower limit")
    if spec is None:
        spec = QuadratureSpec()
    # the far tail maps to s -> 1 where a decaying integrand is smooth, so the
    # caller's right-endpoint hint does not survive the substitution
    spec = replace(spec, right_exponent=1.0)

    def transformed(s: np.ndarray) -> np.ndarray:
        y = a + s / (1.0 - s)
        out = np.zeros_like(s)
        ok = np.isfinite(y)
        if np.any(ok):
            fv = np.asarray(f(y[ok]), dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                contrib = fv / (1.0 - s[ok]) ** 2
            # where f already underflowed to 0, the Jacobian blowup is moot
            contrib[fv == 0.0] = 0.0
            out[ok] = contrib
        return out

    return integrate(transformed, 0.0, 1.0, spec)


def propagated_error(
    inner: Sequence[tuple[float, float]], outer_value: float, length: float
) -> float:
    """Error that inner integrals add to an outer integral over their values.

    ``inner`` holds the ``(value, error_estimate)`` of every inner integral
    the outer rule evaluated.  For nonnegative integrands
    ``sum_j w_j e_j <= max_j(e_j / v_j) * sum_j w_j v_j``, so the worst inner
    relative error scales the outer value; inner values that underflowed to
    zero contribute their absolute estimate times the interval length.
    """
    rel = max((e / abs(v) for v, e in inner if v != 0.0), default=0.0)
    zero_abs = max((e for v, e in inner if v == 0.0), default=0.0)
    return rel * abs(outer_value) + zero_abs * length


def integrate_iterated(
    f: Callable[..., np.ndarray],
    boxes: Sequence[tuple],
    specs: Sequence[QuadratureSpec],
) -> QuadratureResult:
    """Iterated integral over up to three nested axes.

    Parameters
    ----------
    f : callable
        ``f(x1, ..., xd)`` where the leading ``d - 1`` arguments are scalars
        and the last is a 1-D array; must return an array of matching shape.
    boxes : sequence of (lower, upper)
        One per axis, outermost first.  Each bound is a float or a callable
        receiving the outer coordinates (so inner limits may depend on them).
    specs : sequence of QuadratureSpec
        One per axis.

    Returns
    -------
    QuadratureResult
        ``evaluations`` counts innermost integrand evaluations.  The error
        estimate composes for nonnegative integrands: each axis adds its own
        quadrature error plus :func:`propagated_error` of its inner integrals.
    """
    d = len(boxes)
    if d < 1 or d > 3:
        raise DomainError("integrate_iterated supports 1 to 3 axes")
    if len(specs) != d:
        raise DomainError("need one QuadratureSpec per axis")

    eval_count = [0]
    all_converged = [True]

    def resolve(bound, prefix):
        if callable(bound):
            return float(bound(*prefix))
        return float(bound)

    def nest(prefix: tuple, axis: int) -> QuadratureResult:
        lo = resolve(boxes[axis][0], prefix)
        hi = resolve(boxes[axis][1], prefix)
        if axis == d - 1:
            def innermost(xs: np.ndarray) -> np.ndarray:
                eval_count[0] += xs.size
                return np.asarray(f(*prefix, xs), dtype=float)

            res = integrate(innermost, lo, hi, specs[axis])
            if not res.converged:
                all_converged[0] = False
            return res

        inner_pairs: list[tuple[float, float]] = []

        def layer(xs: np.ndarray) -> np.ndarray:
            values = np.empty_like(xs)
            for i, xi in enumerate(xs):
                sub = nest(prefix + (float(xi),), axis + 1)
                values[i] = sub.value
                inner_pairs.append((sub.value, sub.error_estimate))
            return values

        res = integrate(layer, lo, hi, specs[axis])
        if not res.converged:
            all_converged[0] = False
        propagated = propagated_error(inner_pairs, res.value, hi - lo)
        return QuadratureResult(
            res.value, res.error_estimate + propagated, res.evaluations, res.converged
        )

    top = nest((), 0)
    return QuadratureResult(top.value, top.error_estimate, eval_count[0], all_converged[0])
