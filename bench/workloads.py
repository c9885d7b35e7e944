"""The four benchmark workloads: the CLI ops of one cycle and their output checks.

A workload is a fixed set of ops (one cycle).  Each cycle runs every op once,
in an order drawn from the benchmark seed; stochastic commands also get their
``--seed`` from it.  The program sees only the generated command lines.

A check takes the op's standard output and returns the op's units of work,
or raises :class:`CheckError`.  Checks hold for any benchmark seed: the
deterministic commands compare against ``references.json``; the stochastic
ones test verdicts or laws with false-failure odds far below one in a
million per op.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.json")

# paths: one 2000-step grid, t = 0.001, 0.002, ..., 2.0
PATH_GRID = np.round(0.001 * np.arange(1, 2001), 6)
PATH_TIMES = ",".join(inputs.fmt(t) for t in PATH_GRID)

# Law checks on one path of n steps.  The mean of n unit-variance martingale
# differences, times sqrt(n), is near standard normal: Gaussian odds beyond
# 8 are about 1e-15.  Mean squares get 12 for BESQ residuals, whose squares
# have heavy tails while the path sits near zero (the z spread measured 1.14
# at delta = 1 against 1.00 for Gaussian increments).  A wrong time step
# shows as a mean-square z near 30.
Z_LIMIT = 8.0
Z_LIMIT_BESQ_SQUARE = 12.0


class CheckError(Exception):
    """An op's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[str], int]


@dataclass
class Workload:
    unit: str
    warmup: tuple
    make_cycle: Callable[[random.Random], list]
    defects: tuple = ()
    reference: str = "interpreted"  # kind of SpeedReference task in run.py

    def cycles(self, seed: int):
        """Endless stream of cycles; the same seed gives the same stream."""
        rng = random.Random(seed)
        while True:
            ops = self.make_cycle(rng)
            rng.shuffle(ops)
            yield ops


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output parsing.

def _rows(text: str, header: list[str]) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckError(f"expected CSV header {','.join(header)}")
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckError(f"non-numeric CSV field: {exc}") from None
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise CheckError("ragged CSV rows")
    return rows


def _scalar(text: str) -> float:
    try:
        return float(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise CheckError(f"expected one number on stdout, got {text[:60]!r}") from None


def _close(value: float, want: float, rel: float, what: str) -> None:
    if not (math.isfinite(value) and abs(value - want) <= rel * abs(want)):
        raise CheckError(f"{what} = {value!r}, reference {want!r} (rel tol {rel:.1e})")


# ---------------------------------------------------------------------------
# ratio

def _ratio_check(ref: dict, csv_path: str) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        printed = _scalar(stdout)
        with open(csv_path, newline="") as fh:
            row = list(csv.DictReader(fh))[-1]
        value, rel_error = float(row["ratio"]), float(row["rel_error"])
        _close(printed, value, 1e-9, "printed ratio vs CSV ratio")
        _close(value, ref["ratio"], rel_error + ref["rel_error"], "ratio")
        return 1

    return check


def ratio_workload(references: dict, out_dir: str) -> Workload:
    csv_path = os.path.join(out_dir, "ratio.csv")
    base = []
    for case in inputs.ratio_inputs():
        argv = inputs.ratio_argv(*case)
        ref = references["ratio"][inputs.key(argv)]
        base.append(Op(tuple(argv + ["--output", csv_path]), _ratio_check(ref, csv_path)))
    return Workload(
        "ratios",
        tuple(inputs.ratio_argv(2.0, 3.0, 4.0, True)),
        lambda rng: list(base),
    )


# ---------------------------------------------------------------------------
# limit

def lemma3_check(ref: dict) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        rows = _rows(stdout, ["c", "delta1", "delta2", "r1", "r2", "z2", "residual"])
        if rows.shape[0] != 1:
            raise CheckError("expected one lemma3 row")
        # the residual is a difference against an O(1) limit: compare on the
        # scale of the double ratio itself, 10x the quadrature rel_tol
        residual = rows[0, -1]
        if not abs(residual - ref["residual"]) <= 1e-6 * abs(ref["double_ratio"]):
            raise CheckError(f"lemma3 residual {residual!r}, reference {ref['residual']!r}")
        return 1

    return check


def density_check(ref: float) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        # ten printed digits, so 1e-8 is the printing floor with margin
        _close(_scalar(stdout), ref, 1e-8, "density")
        return 1

    return check


def limit_ops(references: dict, cases, density_cases) -> list[Op]:
    ops = []
    for case in cases:
        argv = inputs.lemma3_argv(*case)
        ops.append(Op(tuple(argv), lemma3_check(references["lemma3"][inputs.key(argv)])))
    for case in density_cases:
        argv = inputs.density_argv(*case)
        ops.append(Op(tuple(argv), density_check(references["density"][inputs.key(argv)])))
    return ops


def limit_workload(references: dict, out_dir: str) -> Workload:
    base = limit_ops(references, inputs.lemma3_inputs(), inputs.DENSITY_POINTS)
    defects = limit_ops(references, inputs.DEFECT_LEMMA3, inputs.DEFECT_DENSITY)
    return Workload(
        "rows",
        tuple(inputs.lemma3_argv(3.0, 10.0, 0.5, 2.0)),
        lambda rng: list(base),
        tuple(defects),
    )


# ---------------------------------------------------------------------------
# probe

def _window(name: str, center: float, halfwidth: float) -> list[str]:
    return [f"--{name}-center", inputs.fmt(center), f"--{name}-halfwidth", inputs.fmt(halfwidth)]


# (command, c, n_target, eps_ref, w1_ref, eps_alt, w1_alt, w2, expected verdict)
# Null cells keep their frozen arm sizes and run at alpha 1e-6, so that the
# benchmark's own false-failure odds stay near one in a million per op.  The
# cmx c=0.5 cell is cut from 6000 to 2000 per arm at alpha 1e-3: its KS gap
# of 0.117 still sits 3.5 sd above the 0.062 threshold (power above 0.999).
# Sampler cost moves in whole 50k-proposal batches; the c=1 and c=2 cells,
# where the run's median op falls, need about 8 batches per arm at 4000.
PROBE_CELLS = (
    ("markov-test", 1.0, 4000, 0.3, (0.6, 0.06), 0.7, (1.4, 0.14), (2.0, 0.2), "consistent"),
    ("markov-test", 0.0, 5000, 0.5, (1.0, 0.1), 0.5, (2.0, 0.2), (4.0, 0.4), "consistent"),
    ("cmx-test", 0.5, 2000, 0.5, (-0.6, 0.1), 0.5, (1.2, 0.12), (0.2, 0.06), "rejected"),
    ("cmx-test", 1.0, 4000, 0.5, (0.15, 0.05), 0.5, (1.0, 0.1), (0.35, 0.07), "consistent"),
    ("cmx-test", 2.0, 4000, 0.5, (0.5, 0.05), 0.5, (1.8, 0.18), (1.1, 0.11), "consistent"),
)


def probe_argv(cell, seed: int) -> list[str]:
    command, c, n, eps_ref, w_ref, eps_alt, w_alt, w2, verdict = cell
    alpha = 1e-3 if verdict == "rejected" else 1e-6
    return (
        [command, "--c-values", inputs.fmt(c), "--n-target", str(n), "--alpha", inputs.fmt(alpha)]
        + ["--eps-ref", inputs.fmt(eps_ref), "--eps-alt", inputs.fmt(eps_alt)]
        + _window("w1-ref", *w_ref) + _window("w1-alt", *w_alt) + _window("w2", *w2)
        + ["--seed", str(seed)]
    )


def probe_check(cell) -> Callable[[str], int]:
    n_target, expected = cell[2], cell[-1]

    def check(stdout: str) -> int:
        try:
            report = json.loads(stdout)
            (result,) = report["cells"]
            verdict, n_samples = result["verdict"], int(result["n_samples"])
            statistic = float(result["statistic"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"malformed probe report: {exc!r}") from None
        if n_samples != 2 * n_target or not 0.0 <= statistic <= 1.0:
            raise CheckError(f"n_samples {n_samples}, statistic {statistic}")
        if verdict != expected:
            raise CheckError(f"c={cell[1]}: verdict {verdict}, expected {expected}")
        return n_samples

    return check


def probe_workload(references: dict, out_dir: str) -> Workload:
    def make_cycle(rng: random.Random) -> list[Op]:
        return [
            Op(tuple(probe_argv(cell, rng.randrange(2**31))), probe_check(cell))
            for cell in PROBE_CELLS
        ]

    return Workload(
        "samples",
        tuple(probe_argv(PROBE_CELLS[0], 0)),
        make_cycle,
        reference="vectorised",
    )


# ---------------------------------------------------------------------------
# paths

def _unit_z(r: np.ndarray) -> tuple[float, float]:
    """Standardized mean and mean square of n unit-variance residuals."""
    n = r.size
    return float(np.mean(r) * math.sqrt(n)), float((np.mean(r * r) - 1.0) * math.sqrt(n / 2.0))


def besq_law_z(times: np.ndarray, values: np.ndarray, delta: float) -> tuple[float, float]:
    """Law check of one BESQ(delta) path from 0: z of the one-step residuals.

    Exact transitions give ``E[X(t+h) | X(t)] = X(t) + delta h`` and
    ``Var = 4 X(t) h + 2 delta h^2``, so the standardized increments are
    martingale differences of unit variance.  This is ``E[BESQ(t)] =
    delta t`` step by step.
    """
    h = np.diff(np.concatenate([[0.0], times]))
    previous = np.concatenate([[0.0], values[:-1]])
    return _unit_z((values - previous - delta * h) / np.sqrt(4.0 * previous * h + 2.0 * delta * h * h))


def brownian_law_z(times: np.ndarray, values: np.ndarray, variance: float) -> tuple[float, float]:
    """Law check of one Brownian path from 0 with the given variance per unit time."""
    h = np.diff(np.concatenate([[0.0], times]))
    return _unit_z(np.diff(np.concatenate([[0.0], values])) / np.sqrt(variance * h))


def _require_law(z: tuple[float, float], what: str, square_limit: float = Z_LIMIT) -> None:
    mean_z, square_z = z
    if not (abs(mean_z) <= Z_LIMIT and abs(square_z) <= square_limit):
        raise CheckError(f"{what}: mean z {mean_z:.2f}, mean-square z {square_z:.2f}")


def path_check(command: str, kind: str, c: float, delta: float) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        header = ["t", "lambda1", "lambda2"] if command == "eigen" else ["t", "value"]
        rows = _rows(stdout, header)
        if rows.shape[0] != PATH_GRID.size or not np.allclose(rows[:, 0], PATH_GRID, rtol=0, atol=1e-12):
            raise CheckError("output time grid differs from the input grid")
        if not np.all(np.isfinite(rows)):
            raise CheckError("non-finite path value")
        times = rows[:, 0]
        if command == "simulate":
            values = rows[:, 1]
            if np.any(values < 0.0):
                raise CheckError("negative BESQ/Bessel value")
            squared = values * values if kind == "bessel" else values
            _require_law(besq_law_z(times, squared, delta), f"BESQ({delta}) law", Z_LIMIT_BESQ_SQUARE)
        else:
            lam1, lam2 = rows[:, 1], rows[:, 2]
            if np.any(lam1 < lam2):
                raise CheckError("eigenvalues out of order")
            # lambda1 + lambda2 = B1 + B2, a Brownian motion of variance 2t
            _require_law(brownian_law_z(times, lam1 + lam2, 2.0), "trace law")
            if c == 1.0:
                # at c = 1 the half squared gap is BESQ(1 + delta)
                gap = lam1 - lam2
                _require_law(
                    besq_law_z(times, 0.5 * gap * gap, 1.0 + delta), "gap law", Z_LIMIT_BESQ_SQUARE
                )
        return int(rows.shape[0])

    return check


# (command, kind/source, c, delta)
PATH_CASES = (
    ("eigen", "sde", 1.0, 1.0),
    ("eigen", "sde", 1.0, 3.0),
    ("eigen", "matrix", 1.0, 2.0),
    ("eigen", "matrix", 0.5, 2.0),
    ("simulate", "besq", 0.0, 1.0),
    ("simulate", "besq", 0.0, 2.5),
    ("simulate", "bessel", 0.0, 1.5),
    ("simulate", "bessel", 0.0, 3.0),
)


def path_argv(case, seed: int) -> list[str]:
    command, kind, c, delta = case
    if command == "eigen":
        head = ["eigen", "--source", kind, "--c", inputs.fmt(c)]
    else:
        head = ["simulate", "--kind", kind]
    return head + ["--delta", inputs.fmt(delta), "--times", PATH_TIMES, "--seed", str(seed)]


def paths_workload(references: dict, out_dir: str) -> Workload:
    def make_cycle(rng: random.Random) -> list[Op]:
        return [
            Op(tuple(path_argv(case, rng.randrange(2**31))), path_check(*case))
            for case in PATH_CASES
        ]

    return Workload(
        "points",
        tuple(path_argv(PATH_CASES[0], 0)),
        make_cycle,
    )


WORKLOADS = {
    "ratio": ratio_workload,
    "limit": limit_workload,
    "probe": probe_workload,
    "paths": paths_workload,
}
