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
on a panel edge and the sums converge spectrally in the node count.  A and
B integrate in opposite directions at every order, so one stacked pass
carries both; the last forms only the sums it reads at x.  Every phase
factor is referred to a point upstream of it on the same panel.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .errors import ConfigError, QuadratureBudget, ResonanceDivision
from .green import GreenValue
from .potential import check_point, check_wavenumber
from .quadrature import gauss_legendre

__all__ = ["SeriesTerm", "born_series"]

NODE_BUDGET = 2_000_000  # quadrature nodes one call may spend


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


def _running(factors, shares):
    """Edge sums s_0 = 0, s_{p+1} = s_p * factors[p] + shares[p]."""
    return [*accumulate(zip(factors, shares), lambda s, p: s * p[0] + p[1], initial=0j)]


def _passes(spec, edges, k, n_nodes, x_c, y_c, max_order):
    """Yield each order's two values at x_c, one stacked pass per order: slot 0
    integrates forward, slot 1 backward; node values trade slots as paths turn."""
    t, w, S = gauss_legendre(n_nodes)
    h = 0.5 * (edges[1:] - edges[:-1])
    z = (edges[:-1] + h)[:, None] + h[:, None] * t
    # f is linear between breakpoints, and no panel straddles one
    ends = np.array([spec.ends(a, b) for a, b in pairwise(edges.tolist())])
    fa, fb = ends.reshape(-1, 2).T[..., None]
    f = fa + (fb - fa) * (0.5 * (t + 1))
    f = np.array([f, -f])  # times -d_{i-1}: +1 forward, -1 backward
    # node to panel midpoint (inward) and back (outward), slot by slot
    inward = np.empty(f.shape, complex)
    np.exp(1j * k * h[:, None] * t, out=inward[1])
    np.divide(1.0, inward[1], out=inward[0])
    outward, h_outward = inward[::-1], h[:, None] * inward[::-1]
    e_half = np.exp(1j * k * h)  # midpoint from panel edge
    to_edge, across = h * e_half, (e_half**2).tolist()
    n, at_x = len(h), np.searchsorted(edges, x_c)
    # A leaves y to the left, so its first link runs forward
    phi = np.where([z < y_c, z > y_c], np.exp(1j * k * abs(z - y_c)), 0)
    for m in range(1, max_order + 1):
        g = f * phi * inward  # referred to the panel midpoints
        forward, backward = (to_edge * (g @ w)).tolist()
        start, stop = (at_x, at_x) if m == max_order else (0, n)
        fwd = _running(across[:stop], forward[:stop])
        bwd = _running(across[start:][::-1], backward[start:][::-1])
        yield fwd[at_x], bwd[n - at_x]
        if m < max_order:
            # h_outward stays the left factor: numpy, reusing a temporary right
            # operand in place, would swap the factors and round differently
            phi = g @ S.transpose(0, 2, 1)
            np.multiply(h_outward, phi, out=phi)
            near = np.array([fwd[:-1], bwd[-2::-1]]) * e_half  # upstream edges
            phi += np.multiply(near[..., None], outward, out=g)
            phi = phi[::-1]


@np.errstate(over="ignore", invalid="ignore")
def born_series(spec, x, y, k, max_order=3, n_nodes=32):
    """Terms of the expansion of 2ikG(x, y) up to max_order.

    Returns (GreenValue, [SeriesTerm]); the value is the partial sum over
    all returned terms divided by 2ik.  Each order spends 2 * n_nodes nodes
    per panel and the rule n_nodes**2, all counted against NODE_BUDGET.  A
    term or sum that leaves the float range raises ``ResonanceDivision``.
    """
    for field, n, least in (("order", max_order, 0), ("n_nodes", n_nodes, 1)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
            raise ConfigError(field, f"must be an integer >= {least}, got {n!r}")
    k = check_wavenumber(k)
    x_in, y_in = check_point(x, "x"), check_point(y, "y")
    for name in ("left_tail", "right_tail"):
        if getattr(spec, name) not in (None, 0.0):
            raise ConfigError(name, "the Born series needs vacuum tails")
    if x < y:
        x, y = y, x
    terms = [SeriesTerm(0, "A0", +1, complex(np.exp(1j * k * (x - y))))]
    # every place where the integrands may kink: the knots of the support
    # and x and y clipped to it
    x_l, x_r = spec.support
    x_c, y_c = min(max(x, x_l), x_r), min(max(y, x_l), x_r)
    knots = sorted({*spec.knots(x_l, x_r), x_c, y_c})
    parts = np.ceil(0.5 * abs(k) * np.diff(knots))
    spent = 2 * max_order * n_nodes * parts.sum() + (n_nodes**2 if max_order else 0)
    if spent > NODE_BUDGET:
        raise QuadratureBudget(f"node budget {NODE_BUDGET} exceeded ({spent:g})")
    if max_order:
        # vacuum propagation from y and to x onto the support
        outside = np.exp(1j * k * (abs(x - x_c) + abs(y - y_c)))
        passes = _passes(spec, _split(knots, parts), k, n_nodes, x_c, y_c, max_order)
        for m, at_x in enumerate(passes, 1):
            # -1 per backward link: A runs backward at even orders, B at odd
            for region, v in zip("AB", at_x if m % 2 else at_x[::-1]):
                sign = (-1) ** ((m + (region == "B")) // 2)
                terms.append(SeriesTerm(m, f"{region}{m}", sign, complex(outside * v)))
    # numpy's complex division: CPython's rounds differently
    total = np.complex128(sum((t.value for t in terms), 0j)) / (2j * k)
    if not np.isfinite(total):  # so is every term that is not finite
        raise ResonanceDivision(f"the Born series leaves the float range at k = {k}")
    gv = GreenValue(complex(total), x_in, y_in, k, f"born_{max_order}")
    return gv, terms
