"""Tests of the benchmark's own rules: percentiles, self time, failure counting, wrappers."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import besqlab  # noqa: E402
from besqlab import besq, cli, quadrature  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Percentiles and the op_p90_ms absence rule.

def test_percentile_interpolates_like_numpy():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    for q in (0, 10, 50, 90, 100):
        assert run.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert run.percentile([7.0], 90) == 7.0
    # a median between two clusters lands between them
    assert run.percentile([1.0, 1.1, 2.0, 2.1], 50) == pytest.approx(1.55)


def test_p90_needs_ten_samples_beyond_it():
    value, reason = run.tail_percentile(list(range(99)), 90)
    assert value is None and "absent" in reason and "100 ops" in reason
    value, reason = run.tail_percentile(list(range(100)), 90)
    assert reason is None and value == pytest.approx(89.1)


def test_failed_op_counts_as_missing_the_latency():
    ok = {"latency_s": 0.001, "units": 1, "error": None, "argv": ("x",)}
    bad = {"latency_s": 0.0, "units": 0, "error": "check: wrong", "argv": ("x",)}
    summary = run.summarize([ok, ok, bad])
    assert summary["failed"] == 1 and summary["fail_frac"] == pytest.approx(1 / 3)
    assert summary["op_p50_ms"] == pytest.approx(1.0)
    assert run.summarize([ok, ok, bad, bad])["op_p50_ms"] == sys.float_info.max


def test_scaled_times_and_median_of_cycle_throughput():
    def record(cycle, latency):
        return {"latency_s": latency, "units": 10, "error": None, "argv": ("x",), "cycle": cycle}

    # cycle 1 ran on a machine twice as slow; its scale halves its times
    records = [record(0, 1.0), record(0, 1.0), record(1, 2.0), record(1, 2.0), record(2, 1.0)]
    raw = run.summarize(records)
    scaled = run.summarize(records, {0: 1.0, 1: 0.5, 2: 1.0})
    assert raw["units_per_s"] == pytest.approx(10.0)  # median of 10, 5, 10
    assert scaled["units_per_s"] == pytest.approx(10.0)
    assert scaled["op_p50_ms"] == pytest.approx(1000.0)
    assert raw["op_p50_ms"] == pytest.approx(1000.0) and raw["busy_s"] == pytest.approx(7.0)
    assert scaled["busy_s"] == pytest.approx(5.0)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "no besqlab source tree" in done.stderr


# ---------------------------------------------------------------------------
# Self time on synthetic nested spans.

def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] > 1 [1, 4] > 2 [2, 3];  0 > 3 [5, 9];  4 [11, 12] is a root
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    own = spans.self_times(start, end, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0, 1.0])
    assert own.sum() == pytest.approx(11.0)  # total root time


# ---------------------------------------------------------------------------
# Failures are counted, not raised.

def test_corrupted_output_is_a_failure():
    argv = inputs.density_argv(*inputs.DENSITY_POINTS[0])
    ref = workloads.load_references()["density"][inputs.key(argv)]
    op = workloads.Op(tuple(argv), workloads.density_check(ref))
    assert run.run_op(cli, op)["error"] is None

    class Corrupting:
        @staticmethod
        def main(args):
            print(f"{ref * (1 + 1e-6):.10g}")
            return 0

    record = run.run_op(Corrupting, op)
    assert record["error"].startswith("check:") and record["units"] == 0


def test_nonzero_exit_and_exceptions_are_failures():
    op = workloads.Op(("density", "--delta", "2", "--t", "1", "--x", "0"), lambda text: 1)
    assert run.run_op(cli, op)["error"].startswith("exit 2")
    bad_flag = workloads.Op(("density", "--no-such-flag"), lambda text: 1)
    assert "SystemExit" in run.run_op(cli, bad_flag)["error"]


def test_path_law_check_catches_a_wrong_time_step():
    rng = np.random.default_rng(3)
    grid = workloads.PATH_GRID
    good = besq.sample_path(rng, besq.BesqParams(1.0), 0.0, grid).values
    bad = besq.sample_path(rng, besq.BesqParams(1.0), 0.0, 2 * grid).values
    check = workloads.path_check("simulate", "besq", 0.0, 1.0)
    text = "t,value\n" + "\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(grid, good))
    assert check(text) == grid.size
    text = "t,value\n" + "\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(grid, bad))
    with pytest.raises(workloads.CheckError, match="law"):
        check(text)


# ---------------------------------------------------------------------------
# Wrappers see nested calls and restore the originals.

def test_wrappers_see_nested_integrate_calls():
    original = quadrature.integrate
    tracer = spans.Tracer(besqlab)
    with tracer:
        assert quadrature.integrate is not original
        res = quadrature.integrate_iterated(
            lambda x, y: np.exp(-x - y), [(0.0, 1.0), (0.0, 1.0)],
            [quadrature.QuadratureSpec(), quadrature.QuadratureSpec()],
        )
    assert quadrature.integrate is original
    assert res.value == pytest.approx((1 - np.exp(-1.0)) ** 2, rel=1e-9)
    totals = tracer.layer_totals()
    outer = totals["quadrature.integrate_iterated"]
    inner = totals["quadrature.integrate"]
    assert outer["calls"] == 1 and outer["evals"] == res.evaluations
    # one outer-axis integral plus one per outer node
    assert inner["calls"] > 10
    cols = tracer.columns()
    names = np.array(tracer.names)[cols["name"]]
    iterated = np.flatnonzero(names == "quadrature.integrate_iterated")[0]
    integrate_spans = np.flatnonzero(names == "quadrature.integrate")
    assert cols["parent"][integrate_spans[0]] == iterated
    assert outer["self_s"] < outer["inclusive_s"]


def test_layer_metrics_cover_every_declared_name():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == run.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    metrics = run.layer_metrics({}, 0)
    assert set(metrics) | {n for n, _, _ in run.TRACE_OVERHEAD} == {n for n, _, _ in declared}
