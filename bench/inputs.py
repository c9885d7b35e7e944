"""The fixed input grids of the benchmark workloads, shared by the runner and
the reference generator.

Every grid here is fixed; a run's ``--seed`` only shuffles the order of each
cycle and, for the stochastic commands, draws the program's ``--seed``.  That
keeps the stored references valid for any benchmark seed.
"""

from __future__ import annotations

# ratio: c, eps, (z1, z2) fixed; d < 2 against d >= 2 switches the tolerances
# and the singular endpoints of every quadrature axis.
RATIO_C = 0.5
RATIO_EPS = 0.5
RATIO_Z1 = 1.0
RATIO_Z2 = 4.0
RATIO_DIMS = ((1.0, 1.0), (2.0, 3.0))
RATIO_Z3 = (1.0, 4.0, 8.0)

# limit: lemma3 over delta1 = delta2, one z2 per op.  The second r pair stops
# at r = 1.5: at r = 4 and z2 = 3000 the pair integral is e^-1500, which the
# program refuses by design (UnreliableRatioError), not by defect.
LEMMA3_C = 0.5
LEMMA3_DELTAS = (1.0, 3.0, 8.0, 20.0, 60.0)
LEMMA3_Z2 = (10.0, 100.0, 1000.0, 3000.0)
LEMMA3_R_PAIRS = ((0.5, 2.0), (0.25, 1.5))

# density: large orders and tiny positive starts, all at t = 1.
DENSITY_POINTS = (
    (8.0, 1e-200, 4.0),
    (12.0, 1e-100, 4.0),
    (30.0, 50.0, 60.0),
    (40.0, 100.0, 120.0),
    (50.0, 400.0, 420.0),
    (60.0, 100.0, 100.0),
)

# Ops that fail at the seed commit.  They run once per `limit` run, outside
# the timed loop; see README.md for the ROADMAP item that should clear each.
DEFECT_LEMMA3 = tuple(
    (60.0, z2, r1, r2) for z2 in (1000.0, 3000.0) for r1, r2 in LEMMA3_R_PAIRS
)
DEFECT_DENSITY = (
    (8.0, 1e-300, 4.0),
    (12.0, 1e-200, 4.0),
    (82.0, 900.0, 900.0),
)


def fmt(value: float) -> str:
    """Shortest round-tripping text of a float, as passed on the command line."""
    return repr(float(value))


def ratio_argv(d1: float, d2: float, z3: float, limit_eps: bool) -> list[str]:
    argv = [
        "ratio", "--c", fmt(RATIO_C), "--delta1", fmt(d1), "--delta2", fmt(d2),
        "--eps", fmt(RATIO_EPS), "--z1", fmt(RATIO_Z1), "--z2", fmt(RATIO_Z2),
        "--z3", fmt(z3),
    ]
    return argv + ["--limit-eps"] if limit_eps else argv


def ratio_inputs() -> list[tuple[float, float, float, bool]]:
    return [
        (d1, d2, z3, limit_eps)
        for d1, d2 in RATIO_DIMS
        for z3 in RATIO_Z3
        for limit_eps in (False, True)
    ]


def lemma3_argv(delta: float, z2: float, r1: float, r2: float) -> list[str]:
    return [
        "lemma3", "--c", fmt(LEMMA3_C), "--delta1", fmt(delta), "--delta2", fmt(delta),
        "--r1", fmt(r1), "--r2", fmt(r2), "--z2", fmt(z2),
    ]


def lemma3_inputs() -> list[tuple[float, float, float, float]]:
    return [
        (delta, z2, r1, r2)
        for delta in LEMMA3_DELTAS
        for z2 in LEMMA3_Z2
        for r1, r2 in LEMMA3_R_PAIRS
        if (delta, z2, r1, r2) not in DEFECT_LEMMA3
    ]


def density_argv(delta: float, x: float, y: float) -> list[str]:
    return ["density", "--delta", fmt(delta), "--t", "1.0", "--x", fmt(x), "--y", fmt(y)]


def key(argv) -> str:
    """Reference-table key of an op: its command line."""
    return " ".join(argv)
