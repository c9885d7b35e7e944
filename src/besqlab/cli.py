"""Command line front end: scenario configuration, sweeps, CSV/JSON emission.

Seven subcommands map onto the library modules:

    density      squared Bessel transition density at a point
    simulate     exact squared Bessel (or Bessel) path
    eigen        eigenvalue pair paths, from the matrix model or the SDE form
    ratio        conditional-density ratio of the weighted sum
    lemma3       large-z2 double-ratio residual sweep
    markov-test  Monte Carlo Markov probe for the weighted sum
    cmx-test     the same probe for c*max - Brownian motion

Configuration can come from ``--config``, a JSON file whose keys mirror the
subcommand's long-form flags with underscores; any other key is a
configuration error.  A file value goes through the parser as its flag's
text, so it takes that flag's type and choices, and the order is flag over
file over default.  A list flag takes a number or a list of numbers, and a
switch such as ``--limit-eps`` takes true or false.  Stochastic commands
require an explicit nonnegative ``--seed``.  Exit codes: 0 success,
2 configuration error, 3 numeric non-convergence, 4 inconclusive statistics.
Exit 3 is only a ConvergenceError: for a kernel integral, a quadrature row
that did not converge.  With ``--output``, a ``.meta.json`` sidecar records
the parameters, the exit status and the wall time on exits 0, 3 and 4; on
exit 3 it also carries the error message, which for a kernel integral names
the quadrature axis whose rows failed.  An ``--output`` path that is a
directory, or whose directory is missing, is a configuration error refused
before the command runs; a write that fails later exits 2 as well.

The parser and the ``_COMMANDS`` table are built once per process, at
import.  The table maps each subcommand to its handler, which takes
``(params, seed, output)`` and returns the exit status, and says whether
the subcommand needs a seed.  :func:`main` is the one path from argv to exit
status: it parses, expands ``--config``, applies the seed rule, runs the
handler, writes the sidecar and maps the typed errors to exit codes.  It
keeps no per-call state: each parse makes a fresh namespace, no default is
mutable and every list value is a new list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__, besq, dyson, nonmarkov, stattest
from .besq import BesqParams
from .errors import ConvergenceError, DomainError


class _ConfigError(Exception):
    pass


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number or a list of numbers: {text!r}") from None
    if not values:
        # an empty sweep or grid would otherwise print a header alone and exit 0
        raise argparse.ArgumentTypeError(f"need at least one number: {text!r}")
    return values


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        # numpy's SeedSequence would refuse it later with a traceback
        raise argparse.ArgumentTypeError(f"a seed must be nonnegative, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besqlab",
        description="Squared Bessel laws, 2x2 eigenvalue processes, Markov probes.",
    )
    parser.add_argument("--version", action="version", version=f"besqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            help="JSON file of flag values; flag over file over default, and a file "
            "value takes its flag's type and choices",
        )
        p.add_argument("--seed", type=_seed, help="RNG seed (required for stochastic commands)")
        p.add_argument("--output", help="output data file path")

    p = sub.add_parser("density", help="transition density of BESQ(delta)")
    p.add_argument("--delta", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    common(p)

    p = sub.add_parser("simulate", help="exact BESQ or Bessel path")
    p.add_argument("--delta", type=float)
    p.add_argument(
        "--x0", type=float, default=0.0,
        help="start of the simulated process itself: the BESQ value, or for "
        "--kind bessel the Bessel value (squared internally)",
    )
    p.add_argument("--times", type=_float_list, help="comma-separated increasing times")
    p.add_argument("--kind", choices=["besq", "bessel"], default="besq")
    common(p)

    p = sub.add_parser("eigen", help="eigenvalue pair paths")
    p.add_argument("--c", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--times", type=_float_list)
    p.add_argument("--source", choices=["matrix", "sde"], default="matrix")
    common(p)

    p = sub.add_parser("ratio", help="conditional ratio of the weighted sum")
    p.add_argument("--c", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--z1", type=float)
    p.add_argument("--z2", type=float)
    p.add_argument("--z3", type=float)
    p.add_argument("--limit-eps", action="store_true", help="use the eps->0 kernel")
    common(p)

    p = sub.add_parser("lemma3", help="large-z2 double-ratio residual sweep")
    p.add_argument("--c", type=float)
    p.add_argument("--delta1", type=float)
    p.add_argument("--delta2", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--z2", type=_float_list, help="comma-separated z2 values")
    common(p)

    for name in ("markov-test", "cmx-test"):
        p = sub.add_parser(name, help="Monte Carlo Markov probe")
        p.add_argument("--c-values", type=_float_list, help="comma-separated couplings")
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
        common(p)

    return parser


_PARSER = _build_parser()


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The flags that the ``--config`` file of ``args`` stands for."""
    try:
        with open(args.config) as fh:
            values = dict(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:
        raise _ConfigError(f"cannot read config file: {exc}") from exc
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    unknown = sorted(set(values) - set(flags))
    if unknown:
        # a mistyped key would otherwise fall back to its default silently
        raise _ConfigError(
            f"unknown config key(s) for '{args.command}': {', '.join(map(repr, unknown))}"
        )
    argv = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        items = value if isinstance(value, list) else [value]
        if isinstance(flags[key], bool):  # a switch, such as --limit-eps
            if not isinstance(value, bool):
                raise _ConfigError(f"{key!r} takes true or false, not {value!r}")
            argv += [flag] if value else []
        elif isinstance(value, str):
            argv.append(f"{flag}={value}")
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
            # a number or a list of numbers stands for the flag's comma-separated text
            argv.append(f"{flag}={','.join(map(str, items))}")
        else:
            raise _ConfigError(f"{key!r} is not a number or a list of numbers: {value!r}")
    return argv


def _require(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _ConfigError(f"missing required value(s): {flags}")
    return [params[n] for n in names]


def _check_output(path: str) -> None:
    # refuse a path that cannot be written before any work is done
    if not path:
        raise _ConfigError("--output needs a file path, not an empty one")
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise _ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise _ConfigError(f"cannot write {path}: no directory {folder}")


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_rows(path, header: list[str], rows) -> None:
    # tolist() gives Python floats, whose repr (%r) is the shortest
    # round-trip text; one format call writes the whole table
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    _write(path, ",".join(header) + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# Command bodies.

def _run_density(params: dict, seed, output) -> int:
    delta, t, x, y = _require(params, "delta", "t", "x", "y")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise _ConfigError("x and y must be finite")
    value = besq.transition_density(BesqParams(delta), t, x, y)
    print(f"{value:.10g}")
    if output:
        _write_rows(output, ["delta", "t", "x", "y", "value"], [[delta, t, x, y, value]])
    return 0


def _run_simulate(params: dict, seed, output) -> int:
    delta, grid = _require(params, "delta", "times")
    x0 = params["x0"]
    rng = np.random.default_rng(seed)
    p = BesqParams(delta)
    if params["kind"] == "bessel":
        path = besq.bessel_path(rng, p, x0, grid)
    else:
        path = besq.sample_path(rng, p, x0, grid)
    _write_rows(output, ["t", "value"], np.column_stack((path.times, path.values)))
    return 0


def _run_eigen(params: dict, seed, output) -> int:
    c, delta, grid = _require(params, "c", "delta", "times")
    rng = np.random.default_rng(seed)
    if params["source"] == "sde":
        if c != 1.0:
            raise _ConfigError("--source sde integrates the fully coupled system; needs --c 1")
        lam1, lam2 = dyson.integrate_dyson_sde(rng, delta, grid)
    else:
        lam1, lam2 = dyson.eigen_paths(rng, c, delta, grid)
    _write_rows(
        output,
        ["t", "lambda1", "lambda2"],
        np.column_stack((lam1.times, lam1.values, lam2.values)),
    )
    return 0


def _run_ratio(params: dict, seed, output) -> int:
    c, delta1, delta2, z1, z2, z3 = _require(params, "c", "delta1", "delta2", "z1", "z2", "z3")
    limit_eps = params["limit_eps"]
    eps = params.get("eps")
    if not limit_eps and eps is None:
        raise _ConfigError("need --eps unless --limit-eps is given")
    s = nonmarkov.ScenarioParams(c, delta1, delta2, eps, z1, z2, z3)
    # a given --eps is checked even where the eps -> 0 kernel replaces it
    detail = nonmarkov.conditional_ratio_detail(replace(s, eps=None) if limit_eps else s)
    print(f"{detail.ratio:.10g}")
    if output:
        _write_rows(
            output,
            ["c", "delta1", "delta2", "eps", "z1", "z2", "z3", "limit_eps", "ratio", "rel_error"],
            [[
                c, delta1, delta2, eps if eps is not None else float("nan"),
                z1, z2, z3, float(limit_eps), detail.ratio, detail.rel_error_estimate,
            ]],
        )
    return 0


def _run_lemma3(params: dict, seed, output) -> int:
    c, delta1, delta2, r1, r2, z2_values = _require(
        params, "c", "delta1", "delta2", "r1", "r2", "z2"
    )
    rows = []
    for value in z2_values:
        residual = nonmarkov.lemma3_ratio_check(r1, r2, value, c, delta1, delta2)
        rows.append([c, delta1, delta2, r1, r2, value, residual])
    _write_rows(output, ["c", "delta1", "delta2", "r1", "r2", "z2", "residual"], rows)
    return 0


def _window(params: dict, prefix: str) -> stattest.ConditioningWindow:
    center, halfwidth = _require(params, f"{prefix}_center", f"{prefix}_halfwidth")
    return stattest.ConditioningWindow(center, halfwidth)


def _run_markov(process: str, params: dict, seed, output) -> int:
    c_values, n_target = _require(params, "c_values", "n_target")
    # only markov-test has --delta1 and --delta2
    kwargs = {k: params[k] for k in ("delta1", "delta2") if k in params}
    n_ref, n_alt = params.get("n_ref", n_target), params.get("n_alt", n_target)
    ref = stattest.ArmSpec(params["eps_ref"], _window(params, "w1_ref"), n_ref)
    alt = stattest.ArmSpec(params["eps_alt"], _window(params, "w1_alt"), n_alt)
    w2 = _window(params, "w2")
    test_config = stattest.MarkovTestConfig(
        process=process,
        cells=tuple(stattest.MarkovCell(v, ref, alt, w2) for v in c_values),
        seed=seed,
        alpha=params["alpha"],
        **kwargs,
    )
    report = stattest.markov_discrepancy_report(test_config)
    _write(output, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    if any(v == "inconclusive" for v in report.summary.values()):
        return 4
    return 0


# subcommand -> (handler, whether it draws random numbers and so needs --seed)
_COMMANDS = {
    "density": (_run_density, False),
    "simulate": (_run_simulate, True),
    "eigen": (_run_eigen, True),
    "ratio": (_run_ratio, False),
    "lemma3": (_run_lemma3, False),
    "markov-test": (partial(_run_markov, "zc"), True),
    "cmx-test": (partial(_run_markov, "cmx"), True),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    error = None
    try:
        args = _PARSER.parse_args(argv)
        if args.config is not None:
            # the file's flags go ahead of the command line's, so an explicit
            # flag wins; the parser converts and checks both alike
            at = argv.index(args.command) + 1
            args = _PARSER.parse_args([*argv[:at], *_config_argv(args), *argv[at:]])
        handler, needs_seed = _COMMANDS[args.command]
        if needs_seed and args.seed is None:
            raise _ConfigError(f"--seed is required for '{args.command}'")
        if args.output is not None:
            _check_output(args.output)
        skip = ("command", "config", "seed", "output")
        params = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
        started = time.perf_counter()
        status = handler(params, args.seed, args.output)
    except (_ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        # only a handler raises it, so a numeric failure leaves its evidence
        print(f"numeric failure: {exc}", file=sys.stderr)
        status, error = 3, str(exc)
    if args.output is not None:
        meta = {
            "command": args.command,
            "params": params,
            "seed": args.seed,
            "status": status,
            "version": __version__,
            "wall_time_s": time.perf_counter() - started,
            "outputs": [] if error is not None else [args.output],
        }
        if error is not None:
            meta["error"] = error
        text = json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n"
        try:
            _write(args.output + ".meta.json", text)
        except _ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
