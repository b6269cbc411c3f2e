"""Benchmark of gf1d: four workloads, calibrated job times, a traced run.

    python3 perfbench/run.py --workload cli_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # all four workloads in turn

Each workload runs in its own worker process (``worker.py``), one after
another, as a closed loop with one caller.  This process measures set-up
time with fresh interpreters, checks every output of the worker against the
references in ``reference.py`` and prints each metric with its unit.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")

SETUP_STARTS = 9
THREADS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure_setup(workload, seed, env):
    """Seconds from a fresh interpreter to gf1d imported and a medium loaded.

    Returns (scaled, raw) medians over SETUP_STARTS starts.  One start is
    too short to bracket on its own, so the scale comes from the median of
    all the slices run between starts.
    """
    path = os.path.join(OUT_DIR, f"{workload}-setup-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(workloads.medium_of(workloads.make_job(workload, seed, 0)), fh)
    slices, raw = [], []
    try:
        for _ in range(SETUP_STARTS):
            slices += [calib.run_slice(), calib.run_slice()]
            t0 = time.perf_counter()
            # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
            # and the start time comes out in 50 ms steps
            code = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), path],
                                    env=env).wait()
            raw.append(time.perf_counter() - t0)
            if code != 0:
                raise subprocess.CalledProcessError(code, "probe.py")
    finally:
        os.remove(path)
    wall = statistics.median(raw)
    s = statistics.median(slices)
    return calib.scale(wall, s, s), wall


def run_worker(workload, seed, seconds, trace, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=2 * seconds + 90)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    if not records or records[-1].get("kind") != "end":
        raise RuntimeError(f"worker for {workload} ended without its summary")
    return [r for r in records if r["kind"] == "job"], records[-1]


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, printable report lines)."""
    env = dict(os.environ, **THREADS_ENV)
    setup_s, setup_raw = measure_setup(workload, seed, env)
    jobs, end = run_worker(workload, seed, seconds, trace, env)
    import reference  # scipy, imported only once nothing is timed any more

    attempted = failed = values = 0
    problems = []
    for r in jobs:
        job = workloads.make_job(workload, seed, r["i"])
        a, f = reference.count(workload, job, r["ops"])
        attempted += a
        failed += f
        if not r["traced"]:
            values += a - f
        problems += [f"job {r['i']}: {p}" for p in reference.check_job(workload, job, r["ops"])]

    timed = [r for r in jobs if not r["traced"]]
    scaled = [calib.scale(r["raw_s"], *r["slices"]) for r in timed]
    raw = [r["raw_s"] for r in timed]
    slices = [s for r in timed for s in r["slices"]]
    lines = [
        f"{workload} seed={seed}: {len(jobs)} jobs, {attempted} attempted, {failed} failed, "
        + ("outputs correct" if not problems else f"{len(problems)} wrong outputs"),
    ]
    if trace:
        metrics = {name: {"value": end["layers"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "evals_per_s": {"value": values / sum(scaled), "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": end["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    for name, m in metrics.items():
        lines.append(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    lines += [
        "  unscaled, for reference only:",
        f"    evals_per_s {values / sum(raw):.6g} 1/s, job_p50_ms "
        f"{statistics.median(raw) * 1e3:.6g} ms, setup_s {setup_raw:.6g} s",
        f"    calibration slice median {statistics.median(slices) * 1e3:.4g} ms "
        f"(reference {calib.REF_SLICE_S * 1e3:.4g} ms)",
    ]
    lines += [f"  WRONG {p}" for p in problems[:20]]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gf1d", "__init__.py")):
        print("perfbench: no gf1d sources under src/gf1d", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
