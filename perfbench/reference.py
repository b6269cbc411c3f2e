"""Reference values made apart from gf1d, and the checks that use them.

The wave amplitudes u obey u' = A(x) u with A = [[-ik, f], [f, ik]]; the
Schrodinger solution is psi = u1 + u2 and chi = u2 - u1 satisfies
psi' = ik chi + f psi, so for two solutions the combination
psi_a chi_b - chi_a psi_b is constant in x.  With psi_- decaying to the
left and psi_+ decaying to the right,

    2ik G(x, y) = 2 psi_+(max) psi_-(min) / (psi_- chi_+ - chi_- psi_+),

which is e^{ik|x-y|} in vacuum.  A constant piece propagates by
``scipy.linalg.expm`` of A times its length; a linear or sampled piece by
``scipy.integrate.solve_ivp`` at tight tolerance.  Nothing here imports
gf1d: the medium is read from the same plain document gf1d loads.

Every ``check_*`` function returns a list of failure messages, empty when
the output passes.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import workloads

# agreement of an exact route with the expm reference, relative to max(1, |ref|)
TOL_EXACT = 1e-9
# route C, powers and products: this plus the reported truncation loss
TOL_SERIES = 1e-8
# fixed-step RK4 routes against the tight solve_ivp reference
TOL_ODE = 1e-7
# G(x, y) = G(y, x) on the CLI grid, relative
TOL_SYMMETRY = 1e-12
# |R| <= 1 for Im k >= 0, up to rounding
TOL_REFLECTION = 1e-12
# |value| below which the large Im k |x - y| queries count as underflowed
UNDERFLOW = 1e-200


def _tail(node):
    return 0.0 if node in (None, "vacuum") else float(node["c"])


class Medium:
    """f(x) of a plain medium document, with its breakpoints."""

    def __init__(self, doc):
        self.segments = [
            (float(s["x_start"]), float(s["x_end"]), s["profile"]) for s in doc["segments"]
        ]
        self.left = _tail(doc.get("left_tail"))
        self.right = _tail(doc.get("right_tail"))
        if self.segments:
            self.x_l, self.x_r = self.segments[0][0], self.segments[-1][1]
        else:
            self.x_l = self.x_r = 0.0
        pts = set()
        for a, b, prof in self.segments:
            pts.update((a, b))
            if prof["type"] == "sampled":
                pts.update(p[0] for p in prof["points"])
        self.breaks = sorted(pts)

    def piece(self, a, b):
        """(constant f or None, f callable) on the open interval (a, b)."""
        mid = 0.5 * (a + b)
        if not self.segments or mid < self.x_l:
            return self.left, None
        if mid > self.x_r:
            return self.right, None
        for x0, x1, prof in self.segments:
            if x0 <= mid <= x1:
                break
        if prof["type"] == "constant":
            return float(prof["c"]), None
        if prof["type"] == "linear":
            c0, c1 = float(prof["c0"]), float(prof["c1"])
            return None, lambda x: c0 + c1 * (x - x0)
        xs = np.array([p[0] for p in prof["points"]], dtype=float)
        fs = np.array([p[1] for p in prof["points"]], dtype=float)
        return None, lambda x: float(np.interp(x, xs, fs))


def _generator(f, k):
    return np.array([[-1j * k, f], [f, 1j * k]], dtype=complex)


class Propagator:
    """Evolution matrices of one medium at one k, cached per elementary piece."""

    def __init__(self, medium, k):
        self.m = medium
        self.k = complex(k)
        self._cache = {}

    def _piece(self, a, b):
        """U(b, a) for a < b with no breakpoint inside."""
        key = (a, b)
        if key not in self._cache:
            c, f = self.m.piece(a, b)
            if f is None:
                u = expm(_generator(c, self.k) * (b - a))
            else:
                k = self.k

                def rhs(x, y):
                    fx = f(x)
                    u = y.reshape(2, 2)
                    return np.array([[-1j * k, fx], [fx, 1j * k]]).dot(u).ravel()

                sol = solve_ivp(rhs, (a, b), np.eye(2, dtype=complex).ravel(),
                                method="DOP853", rtol=1e-12, atol=1e-14)
                u = sol.y[:, -1].reshape(2, 2)
            self._cache[key] = u
        return self._cache[key]

    def matrix(self, a, b):
        """U(b, a): maps amplitudes at a to amplitudes at b (either order)."""
        lo, hi = min(a, b), max(a, b)
        nodes = [lo] + [p for p in self.m.breaks if lo < p < hi] + [hi]
        u = np.eye(2, dtype=complex)
        for p, q in zip(nodes, nodes[1:]):
            if q > p:
                u = self._piece(p, q) @ u
        return u if b >= a else np.linalg.inv(u)

    def decaying(self, side):
        """Amplitudes at the support edge of the solution decaying on ``side``."""
        c = self.m.left if side == "left" else self.m.right
        w, v = np.linalg.eig(_generator(c, self.k))
        # left: grows to the right (Re > 0); right: decays to the right
        j = int(np.argmax(w.real)) if side == "left" else int(np.argmin(w.real))
        return v[:, j]

    def sweep(self, anchor, u0, points):
        """Amplitudes at every point, propagated outward from ``anchor``."""
        out = {}
        for direction in (sorted(p for p in points if p >= anchor),
                          sorted((p for p in points if p < anchor), reverse=True)):
            pos, u = anchor, u0
            for p in direction:
                u = self.matrix(pos, p) @ u
                out[p] = u
                pos = p
        return out

    def green2ik(self, pairs):
        """2ikG at each (x, y) pair."""
        pts = sorted({p for pair in pairs for p in pair})
        um = self.sweep(self.m.x_l, self.decaying("left"), pts)
        up = self.sweep(self.m.x_r, self.decaying("right"), pts)
        p0 = pts[0]
        psi_m, chi_m = um[p0][0] + um[p0][1], um[p0][1] - um[p0][0]
        psi_p, chi_p = up[p0][0] + up[p0][1], up[p0][1] - up[p0][0]
        wr = psi_m * chi_p - chi_m * psi_p
        out = []
        for x, y in pairs:
            hi, lo = max(x, y), min(x, y)
            out.append(complex(2.0 * (up[hi][0] + up[hi][1]) * (um[lo][0] + um[lo][1]) / wr))
        return out

    def triple(self, x1, x2):
        """(tau, R_r, R_l) of [x1, x2] from U(x2, x1)."""
        u = self.matrix(x1, x2)
        return u[0, 0] ** -1, u[1, 0] / u[0, 0], -u[0, 1] / u[0, 0]


# ---------------------------------------------------------------------------
# checks

def _z(pair):
    return complex(pair[0], pair[1])


def check_close(what, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{what}: |{got} - {want}| = {abs(got - want):.3e} > {tol:.3e}"]
    return []


def check_symmetry(values):
    """``values`` maps (x, y, k) to 2ikG; G(x, y) must equal G(y, x)."""
    bad = []
    for (x, y, k), v in values.items():
        w = values.get((y, x, k))
        if w is None:
            bad.append(f"symmetry: no row for ({y}, {x}, {k})")
        elif not abs(v - w) <= TOL_SYMMETRY * max(1.0, abs(v)):
            bad.append(f"symmetry: G({x},{y}) - G({y},{x}) = {abs(v - w):.3e} at k={k}")
    return bad


def check_reflection_bound(what, r):
    if not abs(r) <= 1.0 + TOL_REFLECTION:
        return [f"{what}: |R| = {abs(r):.15f} > 1"]
    return []


def check_overflow_query(op):
    """The large Im k |x - y| queries: OverflowError today, ~0 once fixed."""
    if "err" in op:
        return [] if op["err"] == "OverflowError" else [f"{op['op']}: raised {op['err']}"]
    if not abs(_z(op["v"])) <= UNDERFLOW:
        return [f"{op['op']}: |2ikG| = {abs(_z(op['v'])):.3e}, expected underflow to 0"]
    return []


def born_bound(s, order):
    """Bound on the error of the partial sum up to ``order``.

    For Im k >= 0 every phase factor has modulus <= 1, so each of the two
    region integrals of order m is at most s**m with s = max|f| L; the
    remainder after ``order`` is at most 2 s**(order+1) / (1 - s).
    """
    return 2.0 * s ** (order + 1) / (1.0 - s)


def parse_cli(text):
    """CSV rows of `gf1d green` as {(x, y, k): 2ikG}, None for a pole row."""
    rows = list(csv.DictReader(io.StringIO(text)))
    out = {}
    for r in rows:
        key = (float(r["x"]), float(r["y"]), complex(float(r["k_re"]), float(r["k_im"])))
        if r["route"] == "pole":
            out[key] = None
        else:
            out[key] = complex(float(r["two_ik_g_re"]), float(r["two_ik_g_im"]))
    return out


def check_job(workload, job, ops):
    """All failures of one job's operations against the references."""
    if workload == "cli_grid":
        return _check_cli(job, ops[0])
    bad = [f"{op['op']}: raised {op['err']}" for op in ops
           if "err" in op and not op["op"].startswith("overflow")]
    if bad:
        return bad
    by = {op["op"]: op for op in ops}
    if workload == "smooth_ode":
        for j, case in enumerate(job["cases"]):
            bad += _check_smooth(case, by[f"rk4.{j}"], by[f"riccati.{j}"])
        return bad
    prop = Propagator(Medium(job["medium"]), _z(job["k"]))
    x, y = job["x"], job["y"]
    k2 = 2j * _z(job["k"])
    if workload == "point_series":
        g, g1, g2, g3 = prop.green2ik([(x, y)] + [tuple(p) for p in job["pairs"]])
        for name in ("A", "B"):
            bad += check_close(name, k2 * _z(by[name]["v"]), g, TOL_EXACT * max(1.0, abs(g)))
        # series routes: plain routes return G, the others the power or product of 2ikG
        for name, scale, want in (
            ("C", k2, g), ("C-asym", k2, g), ("power2", 1.0, g * g),
            ("negpower1", 1.0, 1.0 / g), ("product2", 1.0, g1 * g2),
            ("product3", 1.0, g1 * g2 * g3),
        ):
            bad += check_close(name, scale * _z(by[name]["v"]), want,
                               TOL_SERIES * max(1.0, abs(want)) + by[name]["loss"])
        for j in range(len(workloads.OVERFLOW_QUERIES)):
            bad += check_overflow_query(by[f"overflow{j}"])
    else:
        (g,) = prop.green2ik([(x, y)])
        for order in workloads.BORN_NODES:
            bad += check_close(f"born{order}", k2 * _z(by[f"born{order}"]["v"]), g,
                               born_bound(job["s"], order))
    return bad


def _check_smooth(case, rk4, riccati):
    m = Medium(case["medium"])
    prop = Propagator(m, _z(case["k"]))
    (g,) = prop.green2ik([(case["x"], case["y"])])
    bad = check_close(rk4["op"], 2j * _z(case["k"]) * _z(rk4["v"]), g,
                      TOL_ODE * max(1.0, abs(g)))
    t = riccati["t"]
    got = (complex(t[0], t[1]), complex(t[2], t[3]), complex(t[4], t[5]))
    for name, a, b in zip(("tau", "R_r", "R_l"), got, prop.triple(m.x_l, m.x_r)):
        bad += check_close(f"{riccati['op']} {name}", a, b, TOL_ODE)
    bad += check_reflection_bound(f"{riccati['op']} R_r", got[1])
    bad += check_reflection_bound(f"{riccati['op']} R_l", got[2])
    return bad


def _check_cli(job, op):
    if op["rc"] != 0:
        return [f"cli: exit code {op['rc']}"]
    values = parse_cli(op["csv"])
    pts = workloads.grid_points(job["grid"])
    want_keys = {(x, y, _z(k)) for k in job["ks"] for x in pts for y in pts}
    if set(values) != want_keys:
        return [f"cli: {len(values)} rows for {len(want_keys)} grid pairs"]
    bad = []
    poles = [key for key, v in values.items() if v is None]
    if poles:
        return [f"cli: pole rows at {poles[:3]}"]
    for k in job["ks"]:
        kz = _z(k)
        pairs = [(x, y) for x in pts for y in pts]
        ref = Propagator(Medium(job["medium"]), kz).green2ik(pairs)
        for (x, y), g in zip(pairs, ref):
            bad += check_close(f"cli ({x},{y},{kz})", values[(x, y, kz)], g,
                               TOL_EXACT * max(1.0, abs(g)))
    return bad + check_symmetry(values)


def count(workload, job, ops):
    """(attempted, failed) operations of one job; one operation is one value."""
    if workload == "cli_grid":
        attempted = job["grid"][2] ** 2 * len(job["ks"])
        if ops[0]["rc"] != 0:
            return attempted, attempted
        values = parse_cli(ops[0]["csv"])
        return attempted, attempted - sum(1 for v in values.values() if v is not None)
    return len(ops), sum(1 for op in ops if "err" in op)
