"""Seeded inputs of the four workloads, as plain data.

Nothing here imports gf1d: the worker turns these inputs into gf1d calls and
the checker turns them into independent reference values.  Job ``i`` of a
workload under seed ``s`` is drawn from its own generator, so the same seed
always gives the same jobs in the same order, however many a run reaches.

Each generator keeps the structure of a job fixed (number of pieces, which
pieces the query points fall in, grid size, series cutoffs) and draws only
the values, so that jobs are of near-equal size and a median over a run
does not depend on which jobs the seed drew.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli_grid", "point_series", "born_weak", "smooth_ode")

# cli_grid: one `gf1d green --route B` invocation per job
GRID = (-1.8, 1.8, 12)
GRID_KS = 2

# point_series: series cutoffs of the bundle
P_SERIES = 64
P_PRODUCT3 = 128

# Queries with a large Im k |x - y|.  They do not depend on the seed and
# fail every time today (OverflowError in the closed-form piece step); the
# exact values underflow to 0.
OVERFLOW_QUERIES = (
    {"medium": None, "x": 30.0, "y": -30.0, "k": [1.0, 20.0]},
    {"medium": (0.8, -10.0, 10.0), "x": 9.0, "y": -9.0, "k": [1.0, 60.0]},
)

# born_weak: Gauss nodes per panel for the order-2 and order-3 sums
BORN_NODES = {2: 16, 3: 12}

# smooth_ode: fixed RK4 step
ODE_STEP = 1e-3


def job_rng(workload, seed, i):
    return random.Random(f"{workload}:{seed}:{i}")


def _k(rng, re, im):
    return [rng.uniform(*re), rng.uniform(*im)]


def _constant_medium(rng, lo, hi, n, fmax, tail_max=0.0):
    width = (hi - lo) / n
    edges = [lo] + [lo + width * (j + rng.uniform(-0.25, 0.25)) for j in range(1, n)]
    edges.append(hi)
    segments = [
        {
            "x_start": a,
            "x_end": b,
            "profile": {"type": "constant", "c": rng.uniform(-fmax, fmax)},
        }
        for a, b in zip(edges, edges[1:])
    ]
    doc = {"segments": segments}
    if tail_max:
        doc["left_tail"] = {"type": "constant", "c": rng.uniform(-tail_max, tail_max)}
    return doc


def cli_grid(rng):
    """Six slabs inside the grid, a constant left tail, two wavenumbers."""
    return {
        "medium": _constant_medium(rng, -1.5, 1.5, 6, 1.2, tail_max=0.5),
        "grid": GRID,
        "ks": [_k(rng, (0.5, 3.0), (0.1, 0.5)) for _ in range(GRID_KS)],
    }


def point_series(rng):
    """A fresh five-slab medium, one k, one point pair and three nested pairs."""
    lo = rng.uniform(-1.5, -0.5)
    hi = lo + rng.uniform(1.5, 2.5)
    medium = _constant_medium(rng, lo, hi, 5, 0.8, tail_max=0.4)
    # points inside the support: outside it, a vacuum side makes the
    # multiple-reflection vectors sparse and the job several times cheaper
    pts = sorted(rng.uniform(lo, hi) for _ in range(6))
    x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
    return {
        "medium": medium,
        "k": _k(rng, (0.8, 2.5), (0.2, 0.6)),
        "x": x,
        "y": y,
        "pairs": [[pts[5], pts[0]], [pts[4], pts[1]], [pts[3], pts[2]]],
    }


def born_weak(rng):
    """Three weak slabs on [0, 1]; y in the first slab, x in the last.

    ``s`` = max|f| times the support length is drawn in [0.08, 0.15].
    """
    s = rng.uniform(0.08, 0.15)
    medium = _constant_medium(rng, 0.0, 1.0, 3, 1.0)
    fs = [seg["profile"]["c"] for seg in medium["segments"]]
    peak = max(abs(c) for c in fs)
    for seg in medium["segments"]:
        seg["profile"]["c"] *= s / peak
    e = [seg["x_start"] for seg in medium["segments"]] + [1.0]
    return {
        "medium": medium,
        "k": _k(rng, (0.5, 2.0), (0.05, 0.3)),
        "x": rng.uniform(e[2] + 0.1 * (e[3] - e[2]), e[3] - 0.1 * (e[3] - e[2])),
        "y": rng.uniform(e[0] + 0.1 * (e[1] - e[0]), e[1] - 0.1 * (e[1] - e[0])),
        "s": s,
    }


def _smooth_case(rng, profile_type):
    length = rng.uniform(1.4, 1.6)
    if profile_type == "linear":
        profile = {
            "type": "linear",
            "c0": rng.uniform(-1.0, 1.0),
            "c1": rng.uniform(-1.0, 1.0) / length,
        }
    else:
        xs = [length * j / 4 for j in range(5)]
        profile = {"type": "sampled", "points": [[x, rng.uniform(-1.0, 1.0)] for x in xs]}
    return {
        "medium": {"segments": [{"x_start": 0.0, "x_end": length, "profile": profile}]},
        "k": _k(rng, (0.5, 2.5), (0.1, 0.5)),
        "x": rng.uniform(0.6, 0.9) * length,
        "y": rng.uniform(0.1, 0.4) * length,
    }


def smooth_ode(rng):
    """A linear and a five-point sampled profile, each with its own k and points."""
    return {"cases": [_smooth_case(rng, t) for t in ("linear", "sampled")], "step": ODE_STEP}


def make_job(workload, seed, i):
    make = {"cli_grid": cli_grid, "point_series": point_series, "born_weak": born_weak,
            "smooth_ode": smooth_ode}[workload]
    return make(job_rng(workload, seed, i))


def medium_of(job):
    """The (first) medium document of a job."""
    return job["medium"] if "medium" in job else job["cases"][0]["medium"]


def grid_points(grid):
    start, stop, n = grid
    step = (stop - start) / (n - 1)
    return [start + j * step for j in range(n)]
