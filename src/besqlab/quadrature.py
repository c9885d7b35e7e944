"""Tanh-sinh quadrature on finite intervals, with a nested variant.

The tanh-sinh substitution ``x = m + r tanh((pi/2) sinh t)`` pushes the
endpoints to infinity double-exponentially fast, so integrable endpoint
singularities like ``x**(alpha-1)`` cost nothing special: node weights decay
faster than any power of the distance to the endpoint.  Refinement halves the
step in ``t`` and reuses every previously evaluated node.

One level loop, :func:`integrate_rows`, drives every integral.  It
integrates a batch of rows that share the interval and the spec: the
integrand receives the indices of the rows still refining and a 1-D array of
abscissae, and returns one rows x nodes grid of log values in a single call.
The first call holds the nodes of levels 0 to 3 for every row: no row can
converge before level 2, and most rows go on to level 3.  Only where an
endpoint floor stops every row at level 2, or the budget ends there, does
the first call end at level 2.  Each later level is one call for the rows
still refining.  Each row keeps the scalar rule (its own error estimate and
stopping level), and its evaluations count every point it was called with.
The loop holds its running state only for the rows still refining, writes
each row's result as it stops, and ignores floating-point warnings in its
own bookkeeping only: the integrand's warnings reach the caller.
Integrands are never evaluated at the endpoints themselves.

Every row is a log row: the integrand returns the log of a nonnegative
integrand, and the row comes back as the log of its integral with a relative
error.  This is the one home of the log-space shift: each row sums its terms
relative to the largest weighted node it has seen, and rescales its running
sum whenever a level raises that maximum (the online normalizer of softmax),
so no point is evaluated only to choose a shift and no term can overflow.
:func:`integrate` is the one-row case for a nonnegative integrand given by
its values, and :func:`integrate_iterated` nests it once per outer node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

# Beyond this t the distance to the endpoint, 2/(1+exp(2*(pi/2)*sinh t)),
# underflows double precision entirely; nodes out there carry zero mass.
_T_MAX = math.asinh(745.0 / math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and refinement budget for one integration axis.

    ``left_exponent`` / ``right_exponent`` record the integrable endpoint
    behavior ``(x - a)**(exponent - 1)`` the caller expects.  Tanh-sinh does
    not need them to place nodes, but an exponent below 1 sets the row's
    representability floor: the share of the mass within one ulp of that
    endpoint, which no refinement can reach, joins every error estimate.

    ``rel_tol`` is the only tolerance: a row converges once its level
    difference is at most ``rel_tol`` times its value.  The row's error
    floor also holds ``|S| * 2**-52``, the spacing of log values at its
    shift ``S``.
    """

    rel_tol: float = 1e-9
    max_levels: int = 12
    left_exponent: float = 1.0
    right_exponent: float = 1.0

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        if self.max_levels < 2:
            raise DomainError("max_levels must be at least 2")
        if not (0.0 < self.left_exponent <= 1.0 and 0.0 < self.right_exponent <= 1.0):
            raise DomainError("endpoint exponents must lie in (0, 1]")


@dataclass
class QuadratureResult:
    """A linear integral and its absolute error, from :func:`integrate` or
    :func:`integrate_iterated`; :func:`integrate_rows` gives logs instead."""

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
    """Results of :func:`integrate_rows`, one array entry per row.

    ``levels`` is the refinement level each row stopped at: the level whose
    value it reports.
    """

    values: np.ndarray
    errors: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    levels: np.ndarray


# Convergence compares a level with the one before, and is tested from this
# level on.
_FIRST_CONVERGENT_LEVEL = 2

# The last level of a batch's first integrand call.  The kernel integrals'
# rows stop at level 3 or later, so an outer axis whose first call ends here
# often needs no second call, and with it no second batch of inner rows; a
# first call through level 4 would double the points of every row that stops
# at level 3.
_FIRST_CALL_LEVEL = 3

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
) -> QuadratureRows:
    """Integrate ``n_rows`` log-integrands over one open interval ``(a, b)``.

    Each row sums ``exp(log f + log w - S)``, for the largest ``log f + log
    w`` it has met as the shift ``S``; a level that raises ``S`` rescales
    the running sum and the previous value by ``exp(S_old - S_new)``.  So
    every term is at most 1, and the tiny weights of deep nodes keep an
    endpoint singularity from dragging the shift away from the body.

    Parameters
    ----------
    f : callable
        ``f(rows, xs)`` receives the integer indices of the rows still
        refining and 1-D abscissae, and returns their ``(rows.size,
        xs.size)`` grid of the logs of a nonnegative integrand.  The first
        call takes every row at the nodes of levels 0 to 3 together, or of
        levels 0 to 2 where the representability floor misses ``rel_tol``
        or ``max_levels`` is 2; each later call takes one level.  The
        abscissae lie inside ``(a, b)``, never on an endpoint, so an
        integrable endpoint singularity is fine.
    n_rows : int
        Number of integrands; they share the limits and ``spec``.
    a, b : float
        Finite limits with ``a < b``.
    spec : QuadratureSpec, optional
        Tolerance and budget; defaults to ``QuadratureSpec()``.

    Returns
    -------
    QuadratureRows
        The log of each row's integral, with a relative error.  Each row
        stops refining on its own: converged once its successive-level
        difference meets ``rel_tol``, or with ``error = inf`` and
        ``converged`` False only once its value is not finite.  A row whose
        rounding floor ``|S| * 2**-52`` alone misses ``rel_tol`` refines
        until its level difference reaches that floor, and stops unconverged
        with the floor as its error.  A row whose representability floor
        alone misses ``rel_tol`` stops unconverged, with its last level's
        value and error, at the first level that tests convergence; so does
        a row still refining when ``max_levels`` runs out.  ``levels`` is
        the level each row stopped at.  ``evaluations`` counts the points
        ``f`` was called with for each row, so a row that stops before the
        first call's last level still counts the whole first call.

    Raises
    ------
    ConvergenceError
        A row has no finite value on the first level.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integrate requires finite limits with a < b")

    m = 0.5 * (a + b)
    r = 0.5 * (b - a)

    # A singular endpoint cannot be approached closer than its ulp, or than
    # the smallest subnormal when it is exactly 0.0, and the mass inside that
    # band is lost to double precision no matter how deep the refinement
    # goes.  Fold that floor into the error estimate so convergence is never
    # claimed below what is representable; at 0.0 the band holds the share
    # (x_min / (b - a))**alpha of the mass of x**(alpha - 1).
    rep_floor = 0.0
    for endpoint, alpha in ((a, spec.left_exponent), (b, spec.right_exponent)):
        if alpha == 1.0:
            continue
        if endpoint == 0.0:
            rep_floor = max(rep_floor, (math.ulp(0.0) / (b - a)) ** alpha)
        else:
            gap = 0.5 * math.ulp(abs(endpoint)) / (b - a)
            rep_floor = max(rep_floor, gap**alpha / alpha)

    def level_nodes(level):
        # one level's abscissae in (a, b) and the logs of their weights.
        # Along a node table the nodes hug their limit ever closer, so
        # those that round onto it form a tail, cut from each side on its
        # own: near a singular endpoint one side keeps representable nodes
        # long after the other has lost them.  The centre joins level 0
        delta, weight = _nodes(level)
        offset = r * delta
        x_left = a + offset
        x_right = b - offset
        n_left = np.count_nonzero(x_left > a)
        n_right = np.count_nonzero(x_right < b)
        n = 1 if level == 0 else 0
        xs = np.concatenate(((m,) * n, x_left[:n_left], x_right[:n_right]))
        ws = np.concatenate(((0.5 * math.pi,) * n, weight[:n_left], weight[:n_right]))
        return xs, np.log(ws)

    # results, written for each row as it stops refining; a row's sums are
    # in units of exp(shift)
    values = np.full(n_rows, math.nan)
    errors = np.full(n_rows, math.inf)
    shifts = np.full(n_rows, -math.inf)
    evaluations = np.zeros(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    levels = np.zeros(n_rows, dtype=np.int64)
    # the state of the rows still refining, one entry per row of active:
    # running sum, shift, and the previous level's value and error
    active = np.arange(n_rows)
    acc = np.zeros(n_rows)
    shift = shifts.copy()
    prev = values.copy()
    err = errors.copy()

    # No row can converge before _FIRST_CONVERGENT_LEVEL, so every row
    # evaluates all the levels up to it unless it stops as non-finite, and
    # most rows go on to _FIRST_CALL_LEVEL: the nodes of the levels up to it
    # go to f in one call, and each of those levels reads its own columns.
    # A representability floor that misses rel_tol stops every row at the
    # first convergent level, so then the first call ends there.  Every later
    # level is one call of its own
    if rep_floor > spec.rel_tol:
        last = _FIRST_CONVERGENT_LEVEL
    else:
        last = min(_FIRST_CALL_LEVEL, spec.max_levels)
    first = [level_nodes(level) for level in range(last + 1)]
    grid = _evaluate(f, active, np.concatenate([xs for xs, _ in first]))
    n_evals = grid.shape[1]
    start = 0

    for level in range(spec.max_levels + 1):
        if level < len(first):
            xs, ws = first[level]
            fv = grid[:, start : start + xs.size]
            start += xs.size
        else:
            xs, ws = level_nodes(level)
            if xs.size:
                fv = _evaluate(f, active, xs)
                n_evals += xs.size
        # f has run: a +inf or nan met below stops its row
        with np.errstate(over="ignore", invalid="ignore"):
            if xs.size:
                terms = fv + ws
                if level == 0 and not np.isfinite(terms).any(axis=1).all():
                    raise ConvergenceError(
                        "log-integrand is not finite anywhere on the first level"
                    )
                new = np.maximum(shift, terms.max(axis=1))
                rescale = np.exp(shift - new)
                acc = acc * rescale + np.exp(terms - new[:, None]).sum(axis=1)
                prev *= rescale
                shift = new
            # the half interval r joins the log at the end
            value = 2.0 ** (-level) * acc
            # log values at a shift S lie |S| * 2**-52 apart, the rounding
            # floor of a row.  An inf or nan never refines away, and
            # rel_tol * value would otherwise accept it as converged
            finite = np.isfinite(value)
            if level >= 1:
                rounding = np.abs(shift) * 2.0**-52 * value
                err = np.maximum(np.abs(value - prev), np.maximum(rep_floor * value, rounding))
            # the last level stops every row still refining, with its value
            stop = ~finite | (level == spec.max_levels)
            if level >= _FIRST_CONVERGENT_LEVEL:
                done = finite & (err <= spec.rel_tol * value)
                # a row whose rounding floor misses rel_tol refines until its
                # level difference reaches that floor.  err is never below
                # rep_floor * value, so a row whose representability floor
                # misses rel_tol would refine for nothing
                stop |= done | (err <= rounding) | (rep_floor > spec.rel_tol)
        if stop.any():
            rows = active[stop]
            values[rows] = value[stop]
            # a row stopped as non-finite reports error inf
            errors[rows] = np.where(finite, err, math.inf)[stop]
            shifts[rows] = shift[stop]
            evaluations[rows] = n_evals
            levels[rows] = level
            if level >= _FIRST_CONVERGENT_LEVEL:
                converged[rows] = done[stop]
            keep = ~stop
            active, acc, shift, value, err = active[keep], acc[keep], shift[keep], value[keep], err[keep]
            if level < last:
                grid = grid[keep]
            if active.size == 0:
                break
        prev = value

    # a row that met +inf or nan keeps it as its value, with error inf
    ok = np.isfinite(shifts)
    errors = np.where(ok, errors / values, math.inf)
    values = np.where(ok, shifts + math.log(r) + np.log(values), shifts)
    return QuadratureRows(values, errors, evaluations, converged, levels)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate a nonnegative vectorized integrand over the open interval ``(a, b)``.

    The one-row case of :func:`integrate_rows`, on ``log f`` with ``log 0 =
    -inf``: a negative value of ``f`` raises ``DomainError``, and an ``f``
    that is 0 at every first-level node raises ``ConvergenceError``.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of points in ``(a, b)`` to nonnegative integrand
        values.  Endpoint singularities are fine because the endpoints
        themselves are never passed in.
    a, b : float
        Finite limits with ``a < b``.
    spec : QuadratureSpec, optional
        Tolerance and budget; defaults to ``QuadratureSpec()``.

    Returns
    -------
    QuadratureResult
        ``value`` is ``exp`` of the row's log, ``error_estimate`` is
        ``value`` times its relative error, and ``converged`` is False if
        the budget ran out first: no exception is raised, so the caller can
        inspect the partial value.  A value past the double range is
        ``inf``, with error ``inf`` and ``converged`` False.
    """

    def log_f(rows, xs):
        v = np.asarray(f(xs), dtype=float)
        if (v < 0.0).any():
            raise DomainError("integrate needs a nonnegative integrand")
        with np.errstate(divide="ignore"):
            return np.log(v)

    rows = integrate_rows(log_f, 1, a, b, spec)
    evaluations = int(rows.evaluations[0])
    with np.errstate(over="ignore"):
        value = float(np.exp(rows.values[0]))
    if not math.isfinite(value):
        return QuadratureResult(value, math.inf, evaluations, False)
    error = value * float(rows.errors[0])
    return QuadratureResult(value, error, evaluations, bool(rows.converged[0]))


def integrate_iterated(
    f: Callable[..., np.ndarray],
    boxes: Sequence[tuple],
    specs: Sequence[QuadratureSpec],
) -> QuadratureResult:
    """Iterated integral of a nonnegative integrand over up to three nested axes.

    Parameters
    ----------
    f : callable
        ``f(x1, ..., xd)`` where the leading ``d - 1`` arguments are scalars
        and the last is a 1-D array; returns nonnegative values of its shape.
    boxes : sequence of (lower, upper)
        One per axis, outermost first.  Each bound is a float or a callable
        receiving the outer coordinates (so inner limits may depend on them).
    specs : sequence of QuadratureSpec
        One per axis.

    Returns
    -------
    QuadratureResult
        ``evaluations`` counts innermost integrand evaluations.  Each axis
        adds its own quadrature error to the error its inner integrals carry
        in.  Since ``sum_j w_j e_j <= max_j(e_j / v_j) * sum_j w_j v_j``, the
        worst inner relative error scales the axis value; an inner value of
        zero has error zero.
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
        rel = max((e / v for v, e in inner_pairs if v > 0.0), default=0.0)
        return QuadratureResult(
            res.value, res.error_estimate + rel * res.value, res.evaluations, res.converged
        )

    top = nest((), 0)
    return QuadratureResult(top.value, top.error_estimate, eval_count[0], all_converged[0])
