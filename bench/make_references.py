"""Regenerate ``references.json``, the stored outputs the benchmark checks against.

    python3 bench/make_references.py

Needs mpmath (the package's ``test`` extra).  It takes several minutes on
two cores, so the benchmark never runs it; it reads the stored file.

* ``density`` and ``lemma3`` references are independent of the program:
  mpmath evaluates the Bessel kernels at 30-40 digits and integrates with
  tanh-sinh, split at the integrand's peak.
* ``ratio`` references are the program's own values at the commit that
  generated them, with the relative error the quadrature reported.  A later
  value passes when it lies within the sum of both reported errors.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import multiprocessing
import os
import sys

import mpmath as mp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402


def _log_density(delta, t, x, y):
    nu = delta / 2 - 1
    if x == 0:
        return (delta / 2 - 1) * mp.log(y) - y / (2 * t) - (delta / 2) * mp.log(2 * t) - mp.loggamma(delta / 2)
    return (
        (nu / 2) * (mp.log(y) - mp.log(x))
        - (x + y) / (2 * t)
        + mp.log(mp.besseli(nu, mp.sqrt(x * y) / t))
        - mp.log(2 * t)
    )


def density_reference(delta: float, x: float, y: float) -> float:
    mp.mp.dps = 40
    return float(mp.exp(_log_density(mp.mpf(delta), mp.mpf(1), mp.mpf(x), mp.mpf(y))))


def _log_peak_integral(log_f, upper, z2):
    # shift by the grid maximum, then split the interval around the peak so
    # that tanh-sinh resolves a bump of width ~sqrt(z2) on a range of 2 z2
    grid = [upper * mp.mpf(k) / 2000 for k in range(1, 2000)]
    values = [log_f(x) for x in grid]
    shift = max(values)
    peak = grid[values.index(shift)]
    step = mp.sqrt(z2) / 4
    points = {mp.mpf(0), upper}
    points.update(upper * mp.mpf(k) / 16 for k in range(1, 16))
    points.update(peak + k * step for k in range(-40, 41) if 0 < peak + k * step < upper)
    return shift + mp.log(mp.quad(lambda x: mp.exp(log_f(x) - shift), sorted(points)))


def lemma3_reference(delta: float, z2: float, r1: float, r2: float) -> dict:
    """Residual of the large-z2 double-ratio law, and its predicted limit."""
    mp.mp.dps = 30
    c = mp.mpf(inputs.LEMMA3_C)
    d = mp.mpf(delta)
    z2 = mp.mpf(z2)
    upper = z2 / c
    weights = -d * mp.log(2) - 2 * mp.loggamma(d / 2)
    logs = {}
    for r in (r1, r2):
        z1 = z2 * mp.mpf(r)

        def log_a21(x, z1=z1):
            return _log_density(d, 1, 0, x) + _log_density(d, 1, z1, z2 - c * x)

        def log_tilde(x, z1=z1):
            return log_a21(x) + weights - x / 2 - (z2 - c * x) / 2

        logs[r] = _log_peak_integral(log_tilde, upper, z2) - _log_peak_integral(log_a21, upper, z2)

    def d_of_r(r):
        return 1 + (1 - c) / (1 - c + mp.sqrt(r) * c)

    predicted = (d_of_r(mp.mpf(r1)) / d_of_r(mp.mpf(r2))) ** (-d / 2)
    double_ratio = mp.exp(logs[r1] - logs[r2])
    return {"residual": float(double_ratio - predicted), "double_ratio": float(double_ratio)}


def ratio_references(out_dir: str) -> dict:
    import contextlib

    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    from besqlab import cli

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "reference-ratio.csv")
    refs = {}
    for case in inputs.ratio_inputs():
        argv = inputs.ratio_argv(*case)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv + ["--output", path])
        if status != 0:
            raise SystemExit(f"reference op failed with exit {status}: {argv}")
        with open(path, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        refs[inputs.key(argv)] = {"ratio": float(row["ratio"]), "rel_error": float(row["rel_error"])}
    return refs


def main() -> int:
    density_cases = list(inputs.DENSITY_POINTS) + list(inputs.DEFECT_DENSITY)
    lemma3_cases = inputs.lemma3_inputs() + list(inputs.DEFECT_LEMMA3)
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        lemma3_jobs = {inputs.key(inputs.lemma3_argv(*c)): pool.submit(lemma3_reference, *c) for c in lemma3_cases}
        density = {inputs.key(inputs.density_argv(*c)): density_reference(*c) for c in density_cases}
        ratio = ratio_references(os.path.join(BENCH_DIR, "out"))
        lemma3 = {k: job.result() for k, job in lemma3_jobs.items()}
    table = {
        "generated_with": {
            "mpmath": mp.__version__,
            "density": "mpmath besseli, 40 digits",
            "lemma3": "mpmath tanh-sinh split at the peak, 30 digits",
            "ratio": "besqlab's own values and reported rel_error",
        },
        "density": density,
        "lemma3": lemma3,
        "ratio": ratio,
    }
    with open(os.path.join(BENCH_DIR, "references.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
