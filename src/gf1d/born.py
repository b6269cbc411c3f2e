"""Multiple-scattering expansion of the Green function in powers of f.

Each order m <= 3 contributes one or two region integrals: paths whose
phase accumulates e^{+ik...} (labelled A) and their reversed counterparts
(labelled B).  The integrands vanish outside the support of f, so all
infinite integration ranges are clipped to the support; Gauss-Legendre
panels are aligned with the segment breakpoints and the endpoints x, y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureBudget
from .green import GreenValue
from .potential import check_point, check_wavenumber, evaluate_f

__all__ = ["SeriesTerm", "born_series", "path_term_count"]


@dataclass(frozen=True)
class SeriesTerm:
    order: int
    region: str
    sign: int
    value: complex


def path_term_count(order):
    """Number of region integrals contributing at the given order."""
    if order < 0:
        raise ConfigError("order", f"order must be >= 0, got {order}")
    return 1 if order == 0 else 2


class _Quad:
    """Gauss-Legendre panels clipped to the support, with a node budget."""

    def __init__(self, spec, n_nodes, budget):
        self.spec = spec
        self.nodes, self.weights = np.polynomial.legendre.leggauss(n_nodes)
        self.breaks = spec.breakpoints()
        self.budget = budget
        self.spent = 0

    def panels(self, lo, hi):
        x_l, x_r = self.spec.support
        lo, hi = max(lo, x_l), min(hi, x_r)
        if lo >= hi:
            return []
        pts = [lo, hi] + [b for b in self.breaks if lo < b < hi]
        pts = sorted(set(pts))
        return list(zip(pts, pts[1:]))

    def grid(self, lo, hi):
        """(z, w) arrays covering [lo, hi] within the support."""
        zs, ws = [], []
        for a, b in self.panels(lo, hi):
            zs.append(0.5 * (b - a) * self.nodes + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * self.weights)
        if not zs:
            return np.empty(0), np.empty(0)
        z = np.concatenate(zs)
        w = np.concatenate(ws)
        self.spent += z.size
        if self.spent > self.budget:
            raise QuadratureBudget(
                f"node budget {self.budget} exceeded ({self.spent})"
            )
        return z, w


def _f_values(spec, z):
    return np.array([evaluate_f(spec, zi) for zi in z])


def born_series(spec, x, y, k, max_order=3, n_nodes=32, node_budget=2_000_000):
    """Terms of the expansion of 2ikG(x, y) up to max_order.

    Returns (GreenValue, [SeriesTerm]); the value is the partial sum over
    all returned terms divided by 2ik.
    """
    if not 0 <= max_order <= 3:
        raise ConfigError("order", f"orders 0..3 are implemented, got {max_order}")
    k = check_wavenumber(k)
    x_in, y_in = check_point(x, "x"), check_point(y, "y")
    if x < y:
        x, y = y, x
    quad = _Quad(spec, n_nodes, node_budget)
    e = lambda phase: np.exp(1j * k * phase)
    terms = [SeriesTerm(0, "A0", +1, e(x - y))]

    if max_order >= 1:
        z, w = quad.grid(-np.inf, y)
        f = _f_values(spec, z)
        terms.append(SeriesTerm(1, "A1", +1, np.sum(w * f * e(x - 2 * z + y))))
        z, w = quad.grid(x, np.inf)
        f = _f_values(spec, z)
        terms.append(SeriesTerm(1, "B1", -1, -np.sum(w * f * e(-(x - 2 * z + y)))))

    if max_order >= 2:
        # A2: z1 <= y, z2 >= x; the double integral separates
        z1, w1 = quad.grid(-np.inf, y)
        f1 = _f_values(spec, z1)
        z2, w2 = quad.grid(x, np.inf)
        f2 = _f_values(spec, z2)
        i1 = np.sum(w1 * f1 * e(-2 * z1))
        i2 = np.sum(w2 * f2 * e(2 * z2))
        terms.append(SeriesTerm(2, "A2", -1, -e(-(x - y)) * i1 * i2))
        # B2: z1 >= y, z2 <= min(x, z1); nested
        z1, w1 = quad.grid(y, np.inf)
        f1 = _f_values(spec, z1)
        acc = 0j
        for z1i, w1i, f1i in zip(z1, w1, f1):
            z2, w2 = quad.grid(-np.inf, min(x, z1i))
            f2 = _f_values(spec, z2)
            acc += w1i * f1i * np.sum(
                w2 * f2 * e(x - 2 * z2 + 2 * z1i - y)
            )
        terms.append(SeriesTerm(2, "B2", -1, -acc))

    if max_order >= 3:
        # A3: z1 <= y, z2 >= z1, z3 <= min(z2, x)
        z1, w1 = quad.grid(-np.inf, y)
        f1 = _f_values(spec, z1)
        acc = 0j
        for z1i, w1i, f1i in zip(z1, w1, f1):
            z2, w2 = quad.grid(z1i, np.inf)
            f2 = _f_values(spec, z2)
            for z2i, w2i, f2i in zip(z2, w2, f2):
                z3, w3 = quad.grid(-np.inf, min(z2i, x))
                f3 = _f_values(spec, z3)
                acc += (
                    w1i
                    * f1i
                    * w2i
                    * f2i
                    * np.sum(w3 * f3 * e(x - 2 * z3 + 2 * z2i - 2 * z1i + y))
                )
        terms.append(SeriesTerm(3, "A3", -1, -acc))
        # B3: z1 >= y, z3 >= x, z2 <= min(z1, z3)
        z1, w1 = quad.grid(y, np.inf)
        f1 = _f_values(spec, z1)
        z3, w3 = quad.grid(x, np.inf)
        f3 = _f_values(spec, z3)
        acc = 0j
        for z1i, w1i, f1i in zip(z1, w1, f1):
            for z3i, w3i, f3i in zip(z3, w3, f3):
                z2, w2 = quad.grid(-np.inf, min(z1i, z3i))
                f2 = _f_values(spec, z2)
                acc += (
                    w1i
                    * f1i
                    * w3i
                    * f3i
                    * np.sum(
                        w2 * f2 * e(-(x - 2 * z3i + 2 * z2 - 2 * z1i + y))
                    )
                )
        terms.append(SeriesTerm(3, "B3", +1, acc))

    total = sum(t.value for t in terms)
    gv = GreenValue(total / (2j * k), x_in, y_in, k, f"born_{max_order}")
    return gv, terms
