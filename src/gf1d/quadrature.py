"""Gauss-Legendre rules on [-1, 1], built once per node count."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["gauss_legendre"]


@functools.lru_cache(maxsize=32)
def gauss_legendre(n):
    """(t, w, S): nodes, weights and integration matrices of the n-point rule.

    S[0][i, j] is the integral of the j-th Lagrange basis polynomial from -1
    to t[i], so h * S[0] @ g integrates the interpolant of g from a panel's
    left edge to its nodes; S[1] = w - S[0] integrates from the nodes to the
    right edge.  The arrays are read-only: callers share them.
    """
    leg = np.polynomial.legendre
    t, w = leg.leggauss(n)
    # Lagrange basis in Legendre coefficients, by the discrete orthogonality
    # of P_0..P_{n-1} under the rule
    to_legendre = (np.arange(n) + 0.5)[:, None] * leg.legvander(t, n - 1).T * w
    antiderivative = leg.legvander(t, n) @ leg.legint(np.eye(n), lbnd=-1)
    S = antiderivative @ to_legendre
    S = np.stack([S, w - S])
    for a in (t, w, S):
        a.flags.writeable = False
    return t, w, S
