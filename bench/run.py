"""besqlab benchmark: closed-loop CLI workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload ratio|limit|probe|paths --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from ``src/``.
One op is one in-process ``besqlab.cli.main(argv)`` call.  A single client
issues the ops in a closed loop: each op starts when the previous returns.
The loop runs whole cycles of the workload's op set; it starts another
cycle only if at least half of it is expected to fit in ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and traced (same command line), and reports per-layer
metrics from spans around besqlab's public functions, plus the tracing
overhead.  The last line of standard output is the result object; the line
before it is a detail record with the run context, the op_p90_ms rule, the
failure share and, for ``limit``, the known-defect ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# one client: BLAS/OpenMP worker pools would only compete with it for cores
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_RUNS = 5
SETUP_CODE = "import json, sys; from besqlab import cli; sys.exit(cli.main(json.loads(sys.argv[1])))"
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

# Per-layer metrics: wrapped function -> fields.  Counts and self time are per
# traced CLI op; the rates divide the function's inclusive time by its count.
LAYER_FIELDS = {
    "besq.log_transition_density": ("calls", "points", "self_s", "us_per_call", "nonfinite"),
    "quadrature.integrate": ("calls", "evals", "self_s", "nonconverged"),
    "quadrature.integrate_iterated": ("calls", "evals", "self_s"),
    "nonmarkov.conditional_ratio_detail": ("calls", "evals", "self_s", "rel_error_max"),
    "specfun.bessel_i_scaled": ("calls", "points", "self_s", "ns_per_point"),
    "specfun.ln_gamma": ("calls", "self_s"),
    "nonmarkov.lemma3_ratio_check": ("calls", "self_s", "failed"),
    "stattest.conditional_sample_cmx": ("proposed", "accepted", "accept_rate", "self_s", "proposals_per_s"),
    "stattest.conditional_sample": ("proposed", "accepted", "accept_rate", "self_s", "proposals_per_s"),
    "besq.sample_transitions": ("calls", "draws", "ns_per_draw"),
    "stattest.ks_two_sample": ("calls", "self_s"),
    "stattest.markov_discrepancy_report": ("calls", "self_s", "inconclusive"),
    "besq.sample_path": ("calls", "steps", "us_per_step"),
    "dyson.integrate_dyson_sde": ("calls", "steps", "self_s"),
    "dyson.eigen_paths": ("calls", "steps", "self_s"),
    "cli.main": ("calls", "self_s", "nonzero_exit"),
}
# field -> (unit, better, (numerator, denominator, scale) or None for per-op)
FIELD_RULES = {
    "self_s": ("s/op", "lower", None),
    "us_per_call": ("us", "lower", ("inclusive_s", "calls", 1e6)),
    "ns_per_point": ("ns", "lower", ("inclusive_s", "points", 1e9)),
    "ns_per_draw": ("ns", "lower", ("inclusive_s", "draws", 1e9)),
    "us_per_step": ("us", "lower", ("inclusive_s", "steps", 1e6)),
    "accept_rate": ("ratio", "higher", ("accepted", "proposed", 1.0)),
    "proposals_per_s": ("1/s", "higher", ("proposed", "inclusive_s", 1.0)),
    "rel_error_max": ("ratio", "lower", ("rel_error_max", None, 1.0)),
    "accepted": ("1/op", "higher", None),
}
TRACE_OVERHEAD = (
    ("trace.untraced_units_per_s", "1/s", "higher"),
    ("trace.traced_units_per_s", "1/s", "higher"),
    ("trace.overhead_units_per_s", "1/s", "higher"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer, fields in LAYER_FIELDS.items():
        for field in fields:
            unit, better, _ = FIELD_RULES.get(field, ("1/op", "lower", None))
            spec.append((f"{layer}.{field}", unit, better))
    return spec + list(TRACE_OVERHEAD)


def percentile(values, q: float) -> float:
    """q-th percentile, linear between the closest ranks (NumPy's default rule).

    Op latencies cluster by input class; interpolating keeps a median that
    falls between two classes from jumping to one side or the other.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    fraction = position - low
    # exact ranks and equal neighbours need no arithmetic, which keeps
    # failed ops (infinite latency) from producing inf - inf
    if fraction == 0.0 or ordered[low + 1] == ordered[low]:
        return ordered[low]
    return ordered[low] + fraction * (ordered[low + 1] - ordered[low])


def tail_percentile(values, q: float) -> tuple[float | None, str | None]:
    """The q-th percentile if at least TAIL_SAMPLES samples lie beyond it, else a reason."""
    needed = math.ceil(TAIL_SAMPLES * 100.0 / (100.0 - q) - 1e-9)
    if len(values) < needed:
        return None, (
            f"absent: {len(values)} ops leave fewer than {TAIL_SAMPLES} samples beyond p{q:g},"
            f" which needs {needed} ops per run"
        )
    return percentile(values, q), None


def layer_metrics(totals: dict, n_ops: int) -> dict[str, float]:
    out = {}
    for layer, fields in LAYER_FIELDS.items():
        t = totals.get(layer, {})
        for field in fields:
            rule = FIELD_RULES.get(field, (None, None, None))[2]
            if rule is None:
                value = t.get(field, 0.0) / n_ops if n_ops else 0.0
            else:
                num, den, scale = rule
                base = 1.0 if den is None else t.get(den, 0.0)
                value = scale * t.get(num, 0.0) / base if base else 0.0
            out[f"{layer}.{field}"] = float(value)
    return out


# ---------------------------------------------------------------------------
# Running ops.

def run_op(cli, op, tracer=None) -> dict:
    """One CLI call; failures (non-zero exit, exception, wrong output) are counted, not raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    status = None
    if tracer is not None:
        tracer.op_id += 1
    started = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # argparse exits; anything else is a failed op
        error = f"raised {exc!r}"
    latency = time.perf_counter() - started
    units = 0
    if error is None and status != 0:
        error = f"exit {status}: {err.getvalue().strip()[-200:]}"
    if error is None:
        try:
            units = op.check(out.getvalue())
        except Exception as exc:  # CheckError or a parse failure inside the check
            error = f"check: {exc}"
    return {"latency_s": latency, "units": units, "error": error, "argv": op.argv}


class SpeedReference:
    """A fixed task outside besqlab, timed between ops to track machine speed.

    On a shared machine whole runs drift by up to 1.8x.  A task that does the
    same kind of work as the workload drifts with it, so times scaled by
    ``NOMINAL_S / median(task time)`` compare across runs.  Two kinds:

    * ``interpreted``: an interpreted loop, small NumPy calls and one
      cache-sized sort, like the quadrature and path code;
    * ``vectorised``: normal draws and maxima on 50k-element arrays and
      Poisson-Gamma draws, like the rejection samplers.
    """

    NOMINAL_S = 0.004
    SHARE = 0.08  # of the loop's op time spent on the task

    def __init__(self, kind: str):
        import numpy as np

        self._np = np
        self._task = {"interpreted": self._interpreted, "vectorised": self._vectorised}[kind]
        self._small = np.arange(8.0)
        self._data = np.random.default_rng(0).random(20_000)
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []
        self.cycle: list[int] = []
        self.current_cycle = -1

    def _interpreted(self) -> None:
        np = self._np
        total = 0
        for i in range(20_000):
            total += i * i % 7
        for _ in range(500):
            np.exp(self._small).sum()
        np.sort(self._data)

    def _vectorised(self) -> None:
        np, rng = self._np, self._rng
        x = rng.normal(0.0, 0.1, 50_000)
        m = np.maximum(0.0, x)
        rng.gamma(0.5 + rng.poisson(10.0 * m[:20_000]), 2.0)

    def sample(self) -> float:
        started = time.perf_counter()
        self._task()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.cycle.append(self.current_cycle)
        return elapsed

    def keep_share(self, op_seconds: float) -> None:
        """Sample until the task has taken SHARE of ``op_seconds``."""
        while sum(self.samples) < self.SHARE * op_seconds:
            self.sample()

    def scale(self, samples) -> float:
        """Factor that maps a time measured alongside ``samples`` to nominal speed."""
        return self.NOMINAL_S / statistics.median(samples)

    def cycle_scales(self) -> dict[int, float]:
        """Scale of each loop cycle, from the samples taken during it."""
        by_cycle: dict[int, list[float]] = {}
        for cycle, sample in zip(self.cycle, self.samples):
            by_cycle.setdefault(cycle, []).append(sample)
        return {cycle: self.scale(samples) for cycle, samples in by_cycle.items()}


def run_loop(cli, cycles, seconds: float, reference: SpeedReference, tracer=None) -> tuple[list, list, int]:
    """Closed loop over whole cycles; returns (untraced records, traced records, cycles)."""
    plain, traced = [], []
    started = time.perf_counter()
    op_seconds = 0.0
    count = 0
    while True:
        cycle_start = time.perf_counter()
        reference.current_cycle = count
        reference.sample()  # every cycle gets at least one
        for i, op in enumerate(next(cycles)):
            runs = [(plain, None)]
            if tracer is not None:
                # each op runs untraced and traced, alternating which goes
                # first, so that first-touch costs do not land on one side
                runs.insert(i % 2, (traced, tracer))
            for records, with_tracer in runs:
                record = run_op(cli, op, with_tracer)
                record["cycle"] = count
                op_seconds += record["latency_s"]
                records.append(record)
            reference.keep_share(op_seconds)
        count += 1
        now = time.perf_counter()
        # start another cycle only if at least half of it fits
        if now - started + 0.5 * (now - cycle_start) > seconds:
            return plain, traced, count


def summarize(records: list, scales: dict | None = None) -> dict:
    """Counts, throughput and latency percentiles.

    With ``scales`` (cycle -> factor), each op's time is multiplied by the
    factor of its cycle.  Throughput is the median over cycles of units per
    busy second, so one disturbed cycle cannot drag a run.
    """
    def scaled(r):
        return r["latency_s"] * (scales[r["cycle"]] if scales else 1.0)

    latencies = [scaled(r) if r["error"] is None else math.inf for r in records]
    failed = sum(r["error"] is not None for r in records)
    units: dict[int, float] = {}
    busy: dict[int, float] = {}
    for r in records:
        cycle = r.get("cycle", 0)
        units[cycle] = units.get(cycle, 0) + r["units"]
        busy[cycle] = busy.get(cycle, 0.0) + scaled(r)
    p50 = percentile(latencies, 50)
    p90, p90_reason = tail_percentile(latencies, 90)
    # a failed op misses any latency limit; JSON has no infinity
    return {
        "ops": len(records),
        "failed": failed,
        "units": sum(units.values()),
        "busy_s": sum(busy.values()),
        "units_per_s": statistics.median(units[c] / busy[c] for c in units),
        "op_p50_ms": 1e3 * p50 if math.isfinite(p50) else sys.float_info.max,
        "op_p90_ms": p90_reason if p90 is None else 1e3 * p90 if math.isfinite(p90) else sys.float_info.max,
        "fail_frac": failed / len(records),
        "errors": [{"argv": " ".join(r["argv"])[:160], "error": r["error"]} for r in records if r["error"]][:10],
    }


def measure_setup(warmup_argv, reference: SpeedReference) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import besqlab and finish one warm-up op.

    Returns the raw times and the times scaled by reference samples taken
    just before each process.
    """
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_PINS)
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        scale = reference.scale([reference.sample() for _ in range(3)])
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(list(warmup_argv))],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - started)
        scaled.append(scale * times[-1])
        if done.returncode != 0:
            raise RuntimeError(f"set-up process exited {done.returncode}: {done.stderr.decode()[-300:]}")
    return times, scaled


# ---------------------------------------------------------------------------
# Run context.

def git_commit(root: str) -> str:
    """HEAD of the tree's own .git, read from files; never a parent repository's."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def run_context() -> dict:
    import numpy
    import scipy

    package = os.path.join(SRC, "besqlab")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_PINS},
        "src_lines": lines,
        "clients": 1,
        "loop": "closed",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ratio", "limit", "probe", "paths"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besqlab", "__init__.py")):
        print(f"no besqlab source tree under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)

    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.load_references(), OUT_DIR)
    reference = SpeedReference(workload.reference)
    setup_raw, setup = measure_setup(workload.warmup, reference)

    import besqlab
    from besqlab import cli

    if not os.path.abspath(besqlab.__file__).startswith(SRC + os.sep):
        print(f"besqlab imported from {besqlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warm = run_op(cli, workloads.Op(workload.warmup, lambda text: 1))
    if warm["error"] is not None:
        print(f"warm-up op failed: {warm['error']}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(besqlab)
    reference.samples.clear()
    reference.cycle.clear()
    plain, traced, n_cycles = run_loop(cli, workload.cycles(args.seed), args.seconds, reference, tracer)
    scales = reference.cycle_scales()
    summary = summarize(plain, scales)
    raw = summarize(plain)

    defects = []
    for op in workload.defects:
        record = run_op(cli, op, tracer)
        defects.append({
            "argv": " ".join(op.argv),
            "status": "fails" if record["error"] else "cleared",
            "error": record["error"],
        })

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "unit": workload.unit,
        "cycles": n_cycles,
        "context": run_context(),
        "speed_scale": statistics.median(scales.values()),
        "reference_samples": len(reference.samples),
        "setup_runs_s": setup,
        "setup_runs_raw_s": setup_raw,
        **summary,
        "raw": {k: raw[k] for k in ("busy_s", "units_per_s", "op_p50_ms", "op_p90_ms")},
        "known_defects": defects,
        "fail_frac_with_defects": (
            (summary["failed"] + sum(d["status"] == "fails" for d in defects))
            / (summary["ops"] + len(defects))
        ),
    }
    attempted, failed = summary["ops"], summary["failed"]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "units_per_s": summary["units_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "ok_frac": 1.0 - summary["fail_frac"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        # per-layer times are raw span times; overhead compares ops that ran
        # back to back, so it needs no scaling either
        traced_raw = summarize(traced)
        metrics = layer_metrics(tracer.layer_totals(), len(traced) + len(defects))
        metrics["trace.untraced_units_per_s"] = raw["units_per_s"]
        metrics["trace.traced_units_per_s"] = traced_raw["units_per_s"]
        metrics["trace.overhead_units_per_s"] = traced_raw["units_per_s"] - raw["units_per_s"]
        units = {name: unit for name, unit, _ in per_layer_spec()}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        tracer.write(spans_path)
        detail["traced"] = {k: traced_raw[k] for k in ("ops", "failed", "units", "busy_s", "errors")}
        detail["spans"] = {"count": len(tracer.start), "file": os.path.relpath(spans_path, ROOT)}
        attempted += traced_raw["ops"]
        failed += traced_raw["failed"]

    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
