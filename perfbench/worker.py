"""One workload in its own process: a closed loop of timed jobs.

Run by ``run.py``; prints one JSON line per job and a last ``end`` line.
A single caller in a single thread waits for each job before it starts the
next.  Job inputs are built before the clock starts; a calibration slice
follows every job, so each job is bracketed by the slice before it and the
slice after it.

With ``--trace 1`` the loop runs twice over fresh jobs of the same
workload: untraced for half the time, then traced for as many jobs, so the
ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")


def _value(z):
    return [z.real, z.imag]


class Runner:
    """Turns plain job inputs into gf1d calls; ``prepare`` is untimed."""

    def __init__(self, gf1d, workload):
        self.gf1d = gf1d
        self.workload = workload
        self.path = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}.json")

    def attempt(self, ops, name, fn):
        """Run one operation; record its value or the type of its failure."""
        try:
            v = fn()
        except (ArithmeticError, ValueError, self.gf1d.errors.Gf1dError) as exc:
            ops.append({"op": name, "err": type(exc).__name__})
            return
        if hasattr(v, "value"):
            ops.append({"op": name, "v": _value(v.value), "loss": v.truncation_loss})
        else:
            t = _value(v.tau) + _value(v.r_right) + _value(v.r_left)
            ops.append({"op": name, "t": t})

    def spec(self, medium):
        return self.gf1d.load_potential(io.StringIO(json.dumps(medium)))

    def prepare(self, job):
        if self.workload == "cli_grid":
            with open(self.path, "w") as fh:
                json.dump(job["medium"], fh)
            lo, hi, n = job["grid"]
            argv = ["green", "--route", "B", "--potential", self.path,
                    f"--grid={lo!r}:{hi!r}:{n}"]
            for kr, ki in job["ks"]:
                argv += ["--k", f"{kr!r},{ki!r}"]
            return argv
        if self.workload == "smooth_ode":
            cases = [dict(c, spec=self.spec(c["medium"]), k=complex(*c["k"]))
                     for c in job["cases"]]
            return dict(job, cases=cases)
        prepared = dict(job, spec=self.spec(job["medium"]), k=complex(*job["k"]))
        if self.workload == "point_series":
            g = self.gf1d
            prepared["overflow"] = [
                (g.slab(*q["medium"]) if q["medium"] else g.PotentialSpec(),
                 q["x"], q["y"], complex(*q["k"]))
                for q in workloads.OVERFLOW_QUERIES
            ]
        return prepared

    def run(self, job):
        """The timed part: returns the list of operation records."""
        g = self.gf1d
        ops = []
        if self.workload == "cli_grid":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = g.cli.main(job)
            return [{"op": "cli", "rc": code, "csv": buf.getvalue()}]
        if self.workload == "smooth_ode":
            step = job["step"]
            for j, c in enumerate(job["cases"]):
                spec, x, y, k = c["spec"], c["x"], c["y"], c["k"]
                x_l, x_r = spec.support
                self.attempt(ops, f"rk4.{j}", lambda: g.green_closed_form(
                    spec, x, y, k, method="rk4", step=step))
                self.attempt(ops, f"riccati.{j}", lambda: g.riccati_coefficients(
                    spec, x_l, x_r, k, step=step))
            return ops
        spec, x, y, k = job["spec"], job["x"], job["y"], job["k"]
        if self.workload == "point_series":
            P, pairs = workloads.P_SERIES, job["pairs"]
            self.attempt(ops, "A", lambda: g.green_wronskian(spec, x, y, k))
            self.attempt(ops, "B", lambda: g.green_closed_form(spec, x, y, k))
            self.attempt(ops, "C", lambda: g.green_polyrep(spec, x, y, k, P=P))
            self.attempt(ops, "C-asym", lambda: g.green_polyrep(
                spec, x, y, k, P=P, variant="asymmetric"))
            self.attempt(ops, "power2", lambda: g.green_power(spec, x, y, k, 2, P=P))
            self.attempt(ops, "negpower1", lambda: g.green_negative_power(
                spec, x, y, k, 1, P=P))
            self.attempt(ops, "product2", lambda: g.green_product(spec, pairs[:2], k, P=P))
            self.attempt(ops, "product3", lambda: g.green_product(
                spec, pairs, k, P=workloads.P_PRODUCT3))
            for j, (s, qx, qy, qk) in enumerate(job["overflow"]):
                self.attempt(ops, f"overflow{j}", lambda: g.green_closed_form(s, qx, qy, qk))
        else:
            for order, nodes in workloads.BORN_NODES.items():
                self.attempt(ops, f"born{order}", lambda: g.born_series(
                    spec, x, y, k, max_order=order, n_nodes=nodes)[0])
        return ops


def peak_rss_kb():
    """High-water resident set of this process in KiB.

    ``ru_maxrss`` keeps the parent's peak across fork and exec on Linux, so
    the kernel's per-image ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def returned(ops):
    """Values an operation list returned: CLI rows, Green values or triples."""
    return sum(op["csv"].count("\n") - 1 if "csv" in op else int("v" in op or "t" in op)
               for op in ops)


def loop(runner, seed, first, budget_s, max_jobs, emit, tracer=None):
    """Run jobs from index ``first`` until the budget or ``max_jobs`` is spent.

    Returns (jobs run, summed scaled job time, values returned).
    """
    before = calib.run_slice()
    start = time.perf_counter()
    n, scaled, values = 0, 0.0, 0
    while n < max_jobs and (n == 0 or time.perf_counter() - start < budget_s):
        i = first + n
        job = runner.prepare(workloads.make_job(runner.workload, seed, i))
        if tracer is not None:
            tracer.job = i
            span = tracer.open("job")
        t0 = time.perf_counter()
        ops = runner.run(job)
        raw = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        after = calib.run_slice()
        scaled += calib.scale(raw, before, after)
        values += returned(ops)
        emit({"kind": "job", "i": i, "traced": tracer is not None, "raw_s": raw,
              "slices": [before, after], "ops": ops})
        before = after
        n += 1
    return n, scaled, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gf1d
    import gf1d.cli

    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(gf1d, args.workload)
    out = sys.stdout

    def emit(record):
        out.write(json.dumps(record) + "\n")

    calib.run_slice()  # warm the kernel once before the first bracket
    end = {"kind": "end"}
    try:
        if not args.trace:
            loop(runner, args.seed, 0, args.seconds, float("inf"), emit)
            end["peak_rss_kb"] = peak_rss_kb()
        else:
            from tracing import Tracer, install, layer_metrics

            n, untraced, _ = loop(runner, args.seed, 0, args.seconds / 2, float("inf"), emit)
            tracer = Tracer()
            install(tracer)
            _, traced, evals = loop(runner, args.seed, n, float("inf"), n, emit, tracer)
            rows = evals if args.workload == "cli_grid" else 0
            end["layers"] = layer_metrics(tracer, evals, n, rows, traced, untraced)
            tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.npz"))
    finally:
        if os.path.exists(runner.path):
            os.remove(runner.path)
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
