"""Spans around besqlab's public functions, recorded from outside the program.

:class:`Tracer` replaces module attributes (``besq.log_transition_density``
and so on) with wrappers, so calls between modules are seen too: the
``integrate`` calls that ``integrate_iterated`` makes through its module
globals, the ``specfun`` calls inside ``besq``.  Each call becomes one span
(name, start, end, parent span, op id) kept in flat in-memory arrays; counts
come from return values at the same boundary.

Self time is a span's duration minus the durations of its child spans.  The
program is single-threaded and spans nest, so children never overlap and
their durations add.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import defaultdict

import numpy as np


def _add(field: str, measure):
    def count(c, result):
        c[field] += measure(result)

    return count


def _density(c, result):
    c["points"] += np.size(result)
    c["nonfinite"] += int(np.count_nonzero(~np.isfinite(result)))


def _quadrature(c, result):
    c["evals"] += result.evaluations
    c["nonconverged"] += not result.converged


def _ratio(c, result):
    c["evals"] += result.evaluations
    c["rel_error_max"] = max(c["rel_error_max"], result.rel_error_estimate)


def _sampler(c, result):
    c["proposed"] += result.n_proposed
    c["accepted"] += result.n_accepted


_pair_steps = _add("steps", lambda pair: pair[0].times.size)

# (module, function, counter) for every wrapped public function.  Counters
# read the return value; "calls", "failed" (raised) and the times come from
# the spans themselves.
LAYERS = (
    ("specfun", "bessel_i_scaled", _add("points", np.size)),
    ("specfun", "ln_gamma", None),
    ("besq", "log_transition_density", _density),
    ("besq", "sample_transitions", _add("draws", np.size)),
    ("besq", "sample_path", _add("steps", lambda path: path.times.size)),
    ("quadrature", "integrate", _quadrature),
    ("quadrature", "integrate_iterated", _quadrature),
    ("nonmarkov", "conditional_ratio_detail", _ratio),
    ("nonmarkov", "lemma3_ratio_check", None),
    ("stattest", "conditional_sample", _sampler),
    ("stattest", "conditional_sample_cmx", _sampler),
    ("stattest", "ks_two_sample", None),
    ("stattest", "markov_discrepancy_report",
     _add("inconclusive", lambda report: sum(v == "inconclusive" for v in report.summary.values()))),
    ("dyson", "integrate_dyson_sde", _pair_steps),
    ("dyson", "eigen_paths", _pair_steps),
    ("cli", "main", _add("nonzero_exit", lambda status: status != 0)),
)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


class Tracer:
    """Span recorder that wraps the functions listed in ``LAYERS``.

    Use as a context manager around the calls to trace; leaving it restores
    the original attributes.  Spans accumulate across uses.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters: dict[str, defaultdict] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, counter in LAYERS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, name: str, original, counter):
        if name not in self.counters:
            self.names.append(name)
            self.counters[name] = defaultdict(float)
        name_id = self.names.index(name)
        counts = self.counters[name]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                counts["failed"] += 1
                raise
            tracer._close(idx)
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def columns(self) -> dict[str, np.ndarray]:
        # copies: a live buffer view would stop the arrays from growing
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
        }

    def write(self, path: str) -> None:
        """Save every span as columns of a NumPy ``.npz`` file, with the names."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: span count, inclusive and self seconds, counters."""
        cols = self.columns()
        own = self_times(cols["start"], cols["end"], cols["parent"])
        duration = cols["end"] - cols["start"]
        totals = {}
        for i, name in enumerate(self.names):
            mask = cols["name"] == i
            totals[name] = {
                "calls": float(np.count_nonzero(mask)),
                "inclusive_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
                **self.counters[name],
            }
        return totals
