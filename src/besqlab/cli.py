"""Command line front end: scenario configuration, sweeps, CSV/JSON emission.

Eight subcommands map onto the library modules:

    density      squared Bessel transition density at a point
    simulate     exact squared Bessel (or Bessel) path
    eigen        eigenvalue pair paths, from the matrix model or the SDE form
    ratio        conditional-density ratio of the weighted sum
    laplace      endpoint Laplace integral vs its asymptotic, over lambda
    lemma3       large-z2 double-ratio residual sweep
    markov-test  Monte Carlo Markov probe for the weighted sum
    cmx-test     the same probe for c*max - Brownian motion

Configuration can come from ``--config`` (a JSON file whose keys mirror the
subcommand's long-form flags with underscores; any other key is a
configuration error); explicit flags override file values.  Stochastic
commands require an explicit ``--seed``.  Exit codes: 0 success,
2 configuration error, 3 numeric non-convergence, 4 inconclusive statistics.
With ``--output``, a ``.meta.json`` sidecar records the parameters, the exit
status and the wall time on exits 0, 3 and 4; on exit 3 it also carries the
error message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, besq, dyson, nonmarkov, stattest
from .besq import BesqParams
from .errors import (
    BudgetExhaustedError,
    ConvergenceError,
    DomainError,
    UnreliableRatioError,
)

_STOCHASTIC = {"simulate", "eigen", "markov-test", "cmx-test"}


@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int | None
    output_path: str | None
    format: str


class _ConfigError(Exception):
    pass


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise _ConfigError(f"not a comma-separated float list: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besqlab",
        description="Squared Bessel laws, 2x2 eigenvalue processes, Markov probes.",
    )
    parser.add_argument("--version", action="version", version=f"besqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default):
        p.add_argument("--config", help="JSON file with flag values (flags override)")
        p.add_argument("--seed", type=int, help="RNG seed (required for stochastic commands)")
        p.add_argument("--output", help="output data file path")
        p.add_argument("--format", choices=["csv", "json"], default=fmt_default)

    p = sub.add_parser("density", help="transition density of BESQ(delta)")
    p.add_argument("--delta", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    common(p, "csv")

    p = sub.add_parser("simulate", help="exact BESQ or Bessel path")
    p.add_argument("--delta", type=float)
    p.add_argument(
        "--x0", type=float, default=0.0,
        help="start of the simulated process itself: the BESQ value, or for "
        "--kind bessel the Bessel value (squared internally)",
    )
    p.add_argument("--times", help="comma-separated increasing times")
    p.add_argument("--kind", choices=["besq", "bessel"], default="besq")
    common(p, "csv")

    p = sub.add_parser("eigen", help="eigenvalue pair paths")
    p.add_argument("--c", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--times")
    p.add_argument("--source", choices=["matrix", "sde"], default="matrix")
    common(p, "csv")

    p = sub.add_parser("ratio", help="conditional ratio of the weighted sum")
    p.add_argument("--c", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--z1", type=float)
    p.add_argument("--z2", type=float)
    p.add_argument("--z3", type=float)
    p.add_argument("--limit-eps", action="store_true", help="use the eps->0 kernel")
    common(p, "csv")

    p = sub.add_parser("laplace", help="Laplace integral vs asymptotic")
    p.add_argument("--problem", choices=sorted(nonmarkov.standard_laplace_problems()))
    p.add_argument("--lam", help="comma-separated lambda values")
    common(p, "csv")

    p = sub.add_parser("lemma3", help="large-z2 double-ratio residual sweep")
    p.add_argument("--c", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--z2", help="comma-separated z2 values")
    common(p, "csv")

    for name in ("markov-test", "cmx-test"):
        p = sub.add_parser(name, help="Monte Carlo Markov probe")
        p.add_argument("--c-values", help="comma-separated couplings")
        p.add_argument("--n-target", type=int)
        p.add_argument("--n-ref", type=int, help="reference arm size (default --n-target)")
        p.add_argument("--n-alt", type=int, help="alternative arm size (default --n-target)")
        p.add_argument("--alpha", type=float, default=0.001)
        p.add_argument("--eps-ref", type=float, default=0.5)
        p.add_argument("--eps-alt", type=float, default=0.5)
        p.add_argument("--w1-ref-center", type=float)
        p.add_argument("--w1-ref-halfwidth", type=float)
        p.add_argument("--w1-alt-center", type=float)
        p.add_argument("--w1-alt-halfwidth", type=float)
        p.add_argument("--w2-center", type=float)
        p.add_argument("--w2-halfwidth", type=float)
        if name == "markov-test":
            p.add_argument("--delta1", type=float, default=1.0)
            p.add_argument("--delta2", type=float, default=1.0)
        common(p, "json")

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                merged.update(json.load(fh))
        except (OSError, TypeError, ValueError) as exc:
            raise _ConfigError(f"cannot read config file: {exc}") from exc
        unknown = sorted(set(merged) - set(flags))
        if unknown:
            # a mistyped key would otherwise fall back to its default silently
            raise _ConfigError(
                f"unknown config key(s) for '{args.command}': {', '.join(map(repr, unknown))}"
            )
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    command = args.command
    seed = merged.pop("seed", None)
    output = merged.pop("output", None)
    fmt = merged.pop("format", "csv")
    if command in _STOCHASTIC and seed is None:
        raise _ConfigError(f"--seed is required for '{command}'")
    return RunConfig(command, merged, seed, output, fmt)


def _require(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _ConfigError(f"missing required value(s): {flags}")
    return [params[n] for n in names]


def _write_rows(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (int, float)) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _sidecar(config: RunConfig, started: float, status: int, error: str | None = None) -> None:
    if config.output_path is None:
        return
    meta = {
        "command": config.command,
        "params": {k: v for k, v in sorted(config.params.items())},
        "seed": config.seed,
        "status": status,
        "version": __version__,
        "wall_time_s": time.time() - started,
        "outputs": [] if error is not None else [config.output_path],
    }
    if error is not None:
        meta["error"] = error
    with open(config.output_path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Command bodies.

def _run_density(config: RunConfig) -> int:
    delta, t, x, y = _require(config.params, "delta", "t", "x", "y")
    if not (math.isfinite(float(x)) and math.isfinite(float(y))):
        raise _ConfigError("x and y must be finite")
    value = besq.transition_density(BesqParams(float(delta)), float(t), float(x), float(y))
    print(f"{value:.10g}")
    if config.output_path:
        _write_rows(
            config.output_path,
            ["delta", "t", "x", "y", "value"],
            [[delta, t, x, y, value]],
        )
    return 0


def _run_simulate(config: RunConfig) -> int:
    delta, times = _require(config.params, "delta", "times")
    grid = _float_list(times) if isinstance(times, str) else [float(v) for v in times]
    kind = config.params.get("kind", "besq")
    x0 = float(config.params.get("x0", 0.0))
    rng = _rng(config.seed)
    p = BesqParams(float(delta))
    if kind == "bessel":
        path = besq.bessel_path(rng, p, x0, grid)
    else:
        path = besq.sample_path(rng, p, x0, grid)
    _write_rows(
        config.output_path,
        ["t", "value"],
        [[t, v] for t, v in zip(path.times, path.values)],
    )
    return 0


def _run_eigen(config: RunConfig) -> int:
    c, delta, times = _require(config.params, "c", "delta", "times")
    grid = _float_list(times) if isinstance(times, str) else [float(v) for v in times]
    source = config.params.get("source", "matrix")
    rng = _rng(config.seed)
    if source == "sde":
        if float(c) != 1.0:
            raise _ConfigError("--source sde integrates the fully coupled system; needs --c 1")
        lam1, lam2 = dyson.integrate_dyson_sde(rng, float(delta), grid)
    else:
        cfg = dyson.MatrixProcessConfig(float(c), float(delta), tuple(grid))
        lam1, lam2 = dyson.eigen_paths(rng, cfg)
    _write_rows(
        config.output_path,
        ["t", "lambda1", "lambda2"],
        [[t, a, b] for t, a, b in zip(lam1.times, lam1.values, lam2.values)],
    )
    return 0


def _run_ratio(config: RunConfig) -> int:
    c, delta1, delta2, z1, z2, z3 = _require(
        config.params, "c", "delta1", "delta2", "z1", "z2", "z3"
    )
    limit_eps = bool(config.params.get("limit_eps", False))
    eps = config.params.get("eps")
    if not limit_eps and eps is None:
        raise _ConfigError("need --eps unless --limit-eps is given")
    s = nonmarkov.ScenarioParams(
        float(c), float(delta1), float(delta2), float(eps) if eps is not None else 0.5,
        float(z1), float(z2), float(z3),
    )
    detail = nonmarkov.conditional_ratio_detail(s, use_eps=not limit_eps)
    if not detail.converged:
        raise ConvergenceError("ratio quadrature did not converge")
    print(f"{detail.ratio:.10g}")
    if config.output_path:
        _write_rows(
            config.output_path,
            ["c", "delta1", "delta2", "eps", "z1", "z2", "z3", "use_eps", "ratio", "rel_error"],
            [[
                c, delta1, delta2, float(eps) if eps is not None else float("nan"),
                z1, z2, z3, 0.0 if limit_eps else 1.0, detail.ratio, detail.rel_error_estimate,
            ]],
        )
    return 0


def _run_laplace(config: RunConfig) -> int:
    problem_name, lam = _require(config.params, "problem", "lam")
    lams = _float_list(lam) if isinstance(lam, str) else [float(v) for v in lam]
    problems = nonmarkov.standard_laplace_problems()
    if problem_name not in problems:
        raise _ConfigError(f"unknown problem {problem_name!r}; choose from {sorted(problems)}")
    problem = problems[problem_name]
    rows = []
    for value in lams:
        numeric = nonmarkov.laplace_numeric(problem, value)
        asymptotic = nonmarkov.laplace_asymptotic(problem, value)
        rows.append([value, numeric, asymptotic, numeric / asymptotic])
    _write_rows(config.output_path, ["lambda", "numeric", "asymptotic", "ratio"], rows)
    return 0


def _run_lemma3(config: RunConfig) -> int:
    c, delta1, delta2, r1, r2, z2 = _require(
        config.params, "c", "delta1", "delta2", "r1", "r2", "z2"
    )
    z2_values = _float_list(z2) if isinstance(z2, str) else [float(v) for v in z2]
    rows = []
    for value in z2_values:
        residual = nonmarkov.lemma3_ratio_check(
            float(r1), float(r2), value, float(c), float(delta1), float(delta2)
        )
        rows.append([c, delta1, delta2, r1, r2, value, residual])
    _write_rows(
        config.output_path,
        ["c", "delta1", "delta2", "r1", "r2", "z2", "residual"],
        rows,
    )
    return 0


def _window(params: dict, prefix: str) -> stattest.ConditioningWindow:
    center, halfwidth = _require(params, f"{prefix}_center", f"{prefix}_halfwidth")
    return stattest.ConditioningWindow(float(center), float(halfwidth))


def _run_markov(config: RunConfig, process: str) -> int:
    c_values, n_target = _require(config.params, "c_values", "n_target")
    if isinstance(c_values, str):
        c_values = _float_list(c_values)
    kwargs = {}
    if process == "zc":
        kwargs["delta1"] = float(config.params.get("delta1", 1.0))
        kwargs["delta2"] = float(config.params.get("delta2", 1.0))
    n_ref = int(config.params.get("n_ref", n_target))
    n_alt = int(config.params.get("n_alt", n_target))
    ref = stattest.ArmSpec(
        float(config.params.get("eps_ref", 0.5)), _window(config.params, "w1_ref"), n_ref
    )
    alt = stattest.ArmSpec(
        float(config.params.get("eps_alt", 0.5)), _window(config.params, "w1_alt"), n_alt
    )
    test_config = stattest.MarkovTestConfig(
        process=process,
        cells=tuple(stattest.MarkovCell(float(v), ref, alt) for v in c_values),
        w2=_window(config.params, "w2"),
        seed=int(config.seed),
        alpha=float(config.params.get("alpha", 0.001)),
        **kwargs,
    )
    report = stattest.markov_discrepancy_report(test_config)
    _write_json(config.output_path, report.to_json_dict())
    if any(v == "inconclusive" for v in report.summary.values()):
        return 4
    return 0


def run(config: RunConfig) -> int:
    """Execute one validated command; returns the process exit code."""
    started = time.time()
    handlers = {
        "density": _run_density,
        "simulate": _run_simulate,
        "eigen": _run_eigen,
        "ratio": _run_ratio,
        "laplace": _run_laplace,
        "lemma3": _run_lemma3,
        "markov-test": lambda cfg: _run_markov(cfg, "zc"),
        "cmx-test": lambda cfg: _run_markov(cfg, "cmx"),
    }
    try:
        status = handlers[config.command](config)
    except (ConvergenceError, UnreliableRatioError) as exc:
        # a numeric failure leaves its evidence; main turns it into exit 3
        _sidecar(config, started, 3, str(exc))
        raise
    if status == 0 or status == 4:
        _sidecar(config, started, status)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        return run(config)
    except (_ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, UnreliableRatioError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BudgetExhaustedError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
