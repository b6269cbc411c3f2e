"""Multiple-scattering expansion of the Green function in powers of f.

An order-m path leaves y, scatters at z_1, ..., z_m and arrives at x,
turning at each scatterer: its directions alternate as d_i = d_0 (-1)^i.
Paths that leave y to the left (d_0 = -1) form the region labelled A, those
that leave to the right (d_0 = +1) the region labelled B.  With
phi_1(z) = e^{ik|z - y|} on the side d_0 (z - y) > 0, the chain

    phi_{i+1}(z) = int_{d_i (z - z') > 0} e^{ik|z - z'|} (-d_{i-1}) f(z') phi_i(z') dz'

gives the order-m term as phi_{m+1}(x).  Each link is one cumulative
integral on a grid of Gauss-Legendre panels whose edges are the support
edges, every breakpoint, and x and y, so every kink of the integrand sits
on a panel edge and the sums converge spectrally in the node count.  Every
phase factor is referred to a point upstream of it on the same panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureBudget
from .green import GreenValue
from .potential import check_point, check_wavenumber
from .quadrature import gauss_legendre

__all__ = ["SeriesTerm", "born_series"]


@dataclass(frozen=True)
class SeriesTerm:
    order: int
    region: str
    sign: int
    value: complex


def _split(knots, parts):
    """Panel edges: each span between knots cut into its number of equal parts.

    With no part wider than 2/|k|, no phase factor on a panel exceeds e^1 in
    modulus, and every panel resolves e^{ikz} alike.
    """
    spans = zip(knots, knots[1:], parts.tolist())
    cuts = (a + j * ((b - a) / n) for a, b, n in spans for j in range(int(n)))
    return np.array([*cuts, knots[-1]])


class _Panels:
    """f and the phase factors at the nodes of every panel, at one k."""

    def __init__(self, spec, edges, k, n_nodes):
        t, self.w, self.S = gauss_legendre(n_nodes)
        a = edges[:-1]
        self.h = 0.5 * np.diff(edges)
        self.z = (a + self.h)[:, None] + self.h[:, None] * t
        # f is linear between breakpoints, and no panel straddles one
        e = edges.tolist()
        ends = [spec.ends(za, zb) for za, zb in zip(e, e[1:])]
        fa, fb = np.reshape(ends, (-1, 2, 1)).transpose(1, 0, 2)
        self.f = fa + (fb - fa) * (0.5 * (t + 1))
        self.e = np.exp(1j * k * self.h[:, None] * t)  # node from panel midpoint
        self.e_inv = 1.0 / self.e
        self.e_half = np.exp(1j * k * self.h)  # midpoint from panel edge
        self.across = self.e_half**2

    def cumulative(self, psi, d):
        """int_{d (z - z') > 0} e^{ik|z - z'|} psi(z') dz' at the nodes and edges."""
        if d > 0:
            inward, outward, S = self.e_inv, self.e, self.S
        else:
            inward, outward, S = self.e, self.e_inv, self.w - self.S
        g = psi * inward  # psi referred to the panel midpoint
        inner = self.h[:, None] * outward * (g @ S.T)
        total = self.h * self.e_half * (g @ self.w)  # panel's share at its far edge
        at_edges = np.zeros(len(total) + 1, complex)
        if d > 0:
            for p in range(len(total)):
                at_edges[p + 1] = at_edges[p] * self.across[p] + total[p]
            near_edge = at_edges[:-1]
        else:
            for p in reversed(range(len(total))):
                at_edges[p] = at_edges[p + 1] * self.across[p] + total[p]
            near_edge = at_edges[1:]
        return (near_edge * self.e_half)[:, None] * outward + inner, at_edges


def born_series(spec, x, y, k, max_order=3, n_nodes=32, node_budget=2_000_000):
    """Terms of the expansion of 2ikG(x, y) up to max_order.

    Returns (GreenValue, [SeriesTerm]); the value is the partial sum over
    all returned terms divided by 2ik.  Each order costs two cumulative
    passes of n_nodes nodes per panel, and the rule's n_nodes x n_nodes
    integration matrix costs n_nodes**2, all counted against node_budget.
    """
    if max_order < 0:
        raise ConfigError("order", f"order must be >= 0, got {max_order}")
    if n_nodes < 1:
        raise ConfigError("n_nodes", f"must be >= 1, got {n_nodes}")
    k = check_wavenumber(k)
    x_in, y_in = check_point(x, "x"), check_point(y, "y")
    for name in ("left_tail", "right_tail"):
        if getattr(spec, name) not in (None, 0.0):
            raise ConfigError(name, "the Born series needs vacuum tails")
    if x < y:
        x, y = y, x
    terms = [SeriesTerm(0, "A0", +1, np.exp(1j * k * (x - y)))]
    # every place where the integrands may kink: the knots of the support
    # and x and y clipped to it
    x_l, x_r = spec.support
    x_c, y_c = min(max(x, x_l), x_r), min(max(y, x_l), x_r)
    knots = sorted({*spec.knots(x_l, x_r), x_c, y_c})
    parts = np.ceil(0.5 * abs(k) * np.diff(knots))
    spent = 2 * max_order * n_nodes * parts.sum() + (n_nodes**2 if max_order else 0)
    if spent > node_budget:
        raise QuadratureBudget(f"node budget {node_budget} exceeded ({spent:g})")
    if max_order:
        edges = _split(knots, parts)
        grid = _Panels(spec, edges, k, n_nodes)
        # vacuum propagation from y and to x onto the support
        outside = np.exp(1j * k * (abs(x - x_c) + abs(y - y_c)))
        at_x = np.searchsorted(edges, x_c)
        from_y = np.exp(1j * k * abs(grid.z - y_c))
        by_order = []
        for region, d in (("A", -1), ("B", +1)):
            phi, sign = np.where(d * (grid.z - y_c) > 0, from_y, 0), 1
            for m in range(1, max_order + 1):
                d_in, d = d, -d
                sign *= -d_in
                phi, at_edges = grid.cumulative(-d_in * grid.f * phi, d)
                by_order.append((m, f"{region}{m}", sign, outside * at_edges[at_x]))
        terms += [SeriesTerm(*t) for t in sorted(by_order)]
    total = sum(t.value for t in terms)
    gv = GreenValue(total / (2j * k), x_in, y_in, k, f"born_{max_order}")
    return gv, terms
