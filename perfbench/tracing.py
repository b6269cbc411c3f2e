"""Per-layer tracing from outside gf1d.

``install`` replaces public functions of gf1d with wrappers in every module
namespace that binds them (``green`` and ``sl3`` import ``interval_triple``
and ``semi_infinite_coefficients`` by name, ``born`` and ``transfer`` import
``evaluate_f``, the package re-exports most of them).  A wrapper either
records a span (name, parent span, start, end) or, for the hot leaf calls
that run thousands of times per value, only counts.  Spans stay in memory
as flat arrays and are written out once, at the end of the run.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

PER_LAYER = (
    ("transfer.propagate.calls_per_eval", "count"),
    ("transfer.propagate.self_us", "us"),
    ("transfer.pieces_per_eval", "count"),
    ("transfer.interval_distinct_ratio", "ratio"),
    ("transfer.semi_infinite.calls_per_eval", "count"),
    ("transfer.semi_infinite.self_us", "us"),
    ("transfer.share", "ratio"),
    ("polyrep.apply_U.P64.self_us", "us"),
    ("polyrep.apply_U.P128.self_us", "us"),
    ("polyrep.inner_product.P64.self_us", "us"),
    ("polyrep.inner_product.P128.self_us", "us"),
    ("polyrep.apply_generator.self_us", "us"),
    ("polyrep.inverse_operator.self_us", "us"),
    ("polyrep.ops_per_eval", "count"),
    ("polyrep.share", "ratio"),
    ("born.order2.ms_per_call", "ms"),
    ("born.order3.ms_per_call", "ms"),
    ("born.f_evals_per_call", "count"),
    ("born.share", "ratio"),
    ("transfer.rk4.ms_per_length", "ms"),
    ("transfer.riccati.ms_per_length", "ms"),
    ("transfer.rk4.steps_per_eval", "count"),
    ("green.self_us", "us"),
    ("sl3.green_wronskian.self_us", "us"),
    ("potential.evaluate_f.calls_per_eval", "count"),
    ("potential.segment_at.calls_per_eval", "count"),
    ("cli.self_ms_per_job", "ms"),
    ("cli.rows_per_job", "count"),
    ("trace.spans_per_job", "count"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Spans as parallel arrays, plus plain counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.intervals = set()
        self.job = -1

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.t1.append(math.nan)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, fn, namer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def counter(self, fn, *keys):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in keys:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """(names, per-span name ids, durations, self times) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, dur, dur - child

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
        )


def _rebind(old, new):
    """Point every gf1d namespace that binds ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "gf1d" or modname.startswith("gf1d."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def install(tracer):
    """Wrap gf1d's public layer functions; returns nothing, patches in place."""
    from gf1d import born, cli, green, polyrep, potential, sl3, transfer

    t = tracer

    def propagate_name(spec, x1, x2, k, *args, **kwargs):
        method = kwargs.get("method", args[0] if args else "exact_piecewise")
        t.intervals.add((t.job, complex(k), x1, x2, method))
        t.counts["transfer.propagate.calls"] += 1
        if method == "rk4":
            step = kwargs.get("step", args[1] if len(args) > 1 else 1e-3)
            t.counts["transfer.rk4.length"] += x2 - x1
            t.counts["transfer.rk4.steps"] += max(1, math.ceil((x2 - x1) / step))
            return "transfer.propagate.rk4"
        return "transfer.propagate"

    def riccati_name(spec, x1, x2, k, *args, **kwargs):
        t.counts["transfer.riccati.length"] += x2 - x1
        return "transfer.riccati"

    spans = [
        (transfer.propagate, propagate_name),
        (transfer.interval_triple, lambda *a, **kw: "transfer.interval_triple"),
        (transfer.semi_infinite_coefficients, lambda *a, **kw: "transfer.semi_infinite"),
        (transfer.riccati_coefficients, riccati_name),
        (polyrep.apply_U, lambda action, v, *a, **kw: f"polyrep.apply_U.P{v.P}"),
        (polyrep.inner_product, lambda left, right: f"polyrep.inner_product.P{left.P}"),
        (polyrep.apply_generator, lambda *a, **kw: "polyrep.apply_generator"),
        (polyrep.inverse_operator, lambda *a, **kw: "polyrep.inverse_operator"),
        (born.born_series, lambda *a, **kw: f"born.order{kw.get('max_order', 3)}"),
        (sl3.green_wronskian, lambda *a, **kw: "sl3.green_wronskian"),
        (cli.main, lambda *a, **kw: "cli.main"),
    ]
    for name in green.__all__:
        fn = getattr(green, name)
        if callable(fn) and name.startswith("green_"):
            spans.append((fn, lambda *a, _n=name, **kw: f"green.{_n}"))
    for name in ("lambda_r", "lambda_l", "lambda_r_power", "lambda_l_power",
                 "mu_over_one_minus_c_xi"):
        spans.append((getattr(polyrep, name), lambda *a, **kw: "polyrep.vectors"))
    for fn, namer in spans:
        _rebind(fn, t.span(fn, namer))

    # counters only: these run per quadrature node or per piece
    transfer.constant_step_matrix = t.counter(
        transfer.constant_step_matrix, "transfer.pieces"
    )
    f = potential.evaluate_f
    _rebind(f, t.counter(f, "potential.evaluate_f"))
    born.evaluate_f = t.counter(f, "potential.evaluate_f", "born.f_evals")
    potential.PotentialSpec.segment_at = t.counter(
        potential.PotentialSpec.segment_at, "potential.segment_at"
    )


def layer_metrics(tracer, evals, jobs, rows, traced_s, untraced_s):
    """Per-layer figures of a traced phase.

    ``evals`` and ``jobs`` are the values returned and jobs run while
    tracing; ``rows`` the CLI output rows; ``traced_s``/``untraced_s`` the
    scaled job time of the traced phase and of the untraced phase before
    it, over the same number of jobs.
    """
    name, dur, self_t = tracer.self_times()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    calls = np.bincount(name, minlength=len(names)) if len(names) else np.zeros(0)
    self_sum = np.bincount(name, weights=self_t, minlength=len(names))
    dur_sum = np.bincount(name, weights=dur, minlength=len(names))
    c = tracer.counts

    def n_calls(*keys):
        return int(sum(calls[ids[k]] for k in keys if k in ids))

    def self_of(*keys):
        return float(sum(self_sum[ids[k]] for k in keys if k in ids))

    def dur_of(*keys):
        return float(sum(dur_sum[ids[k]] for k in keys if k in ids))

    def prefixed(prefix):
        return [n for n in names if n.startswith(prefix)]

    def per(a, b, unit=1.0):
        return a / b * unit if b else 0.0

    def self_us(*keys):
        return per(self_of(*keys), n_calls(*keys), 1e6)

    job_time = dur_of("job")
    polyrep_ops = [n for n in prefixed("polyrep.") if n != "polyrep.vectors"]
    green_spans = prefixed("green.")
    born_calls = n_calls(*prefixed("born."))
    out = {
        "transfer.propagate.calls_per_eval": per(c["transfer.propagate.calls"], evals),
        "transfer.propagate.self_us": self_us("transfer.propagate"),
        "transfer.pieces_per_eval": per(c["transfer.pieces"], evals),
        "transfer.interval_distinct_ratio": per(
            len(tracer.intervals), c["transfer.propagate.calls"]
        ),
        "transfer.semi_infinite.calls_per_eval": per(
            n_calls("transfer.semi_infinite"), evals
        ),
        "transfer.semi_infinite.self_us": self_us("transfer.semi_infinite"),
        "transfer.share": per(self_of(*prefixed("transfer.")), job_time),
        "polyrep.apply_U.P64.self_us": self_us("polyrep.apply_U.P64"),
        "polyrep.apply_U.P128.self_us": self_us("polyrep.apply_U.P128"),
        "polyrep.inner_product.P64.self_us": self_us("polyrep.inner_product.P64"),
        "polyrep.inner_product.P128.self_us": self_us("polyrep.inner_product.P128"),
        "polyrep.apply_generator.self_us": self_us("polyrep.apply_generator"),
        "polyrep.inverse_operator.self_us": self_us("polyrep.inverse_operator"),
        "polyrep.ops_per_eval": per(n_calls(*polyrep_ops), evals),
        "polyrep.share": per(self_of(*prefixed("polyrep.")), job_time),
        "born.order2.ms_per_call": per(dur_of("born.order2"), n_calls("born.order2"), 1e3),
        "born.order3.ms_per_call": per(dur_of("born.order3"), n_calls("born.order3"), 1e3),
        "born.f_evals_per_call": per(c["born.f_evals"], born_calls),
        "born.share": per(self_of(*prefixed("born.")), job_time),
        "transfer.rk4.ms_per_length": per(
            self_of("transfer.propagate.rk4"), c["transfer.rk4.length"], 1e3
        ),
        "transfer.riccati.ms_per_length": per(
            self_of("transfer.riccati"), c["transfer.riccati.length"], 1e3
        ),
        "transfer.rk4.steps_per_eval": per(c["transfer.rk4.steps"], evals),
        "green.self_us": per(self_of(*green_spans), n_calls(*green_spans), 1e6),
        "sl3.green_wronskian.self_us": self_us("sl3.green_wronskian"),
        "potential.evaluate_f.calls_per_eval": per(c["potential.evaluate_f"], evals),
        "potential.segment_at.calls_per_eval": per(c["potential.segment_at"], evals),
        "cli.self_ms_per_job": per(self_of("cli.main"), jobs, 1e3),
        "cli.rows_per_job": per(rows, jobs),
        "trace.spans_per_job": per(len(tracer.t0), jobs),
        "trace.overhead": per(traced_s, untraced_s),
    }
    return out
