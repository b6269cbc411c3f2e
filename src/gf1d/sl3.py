"""3x3 matrix realization of the scattering algebra.

Nine traceless generators built from three overlapping sl2 triples
(J, K, L) whose diagonal elements sum to zero.  The 2x2 evolution
matrix embeds into the upper-left block; its Gauss factorization

    U = exp(-R_r J+) tau^(2 J3) exp(R_l J-)

holds exactly in this realization because 2*J3 has integer spectrum.
The module also carries the Green function route built from the two
decaying solutions and their Wronskian.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import LogBranch, ResonanceDivision, WronskianZero
from .green import GreenValue, _entries
from .polyrep import RELATIONS

__all__ = [
    "GeneratorSet3",
    "commutation_table_check",
    "embed_transfer",
    "gauss_factorization",
    "gauss_factorization_check",
    "intertwiner_check",
    "green_wronskian",
]

WRONSKIAN_THRESHOLD = 1e-12


def _m(rows):
    return np.array(rows, dtype=complex)


class GeneratorSet3:
    """The nine generators as 3x3 matrices, keyed by name."""

    def __init__(self):
        self.matrices = {
            "J3": _m([[-0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]]),
            "J+": _m([[0, 0, 0], [-1, 0, 0], [0, 0, 0]]),
            "J-": _m([[0, -1, 0], [0, 0, 0], [0, 0, 0]]),
            "K3": _m([[0, 0, 0], [0, -0.5, 0], [0, 0, 0.5]]),
            "K+": _m([[0, 0, 0], [0, 0, 0], [0, -1, 0]]),
            "K-": _m([[0, 0, 0], [0, 0, -1], [0, 0, 0]]),
            "L3": _m([[0.5, 0, 0], [0, 0, 0], [0, 0, -0.5]]),
            "L+": _m([[0, 0, -1], [0, 0, 0], [0, 0, 0]]),
            "L-": _m([[0, 0, 0], [0, 0, 0], [-1, 0, 0]]),
        }

    def __getitem__(self, name):
        return self.matrices[name]

    def perturbed(self, name, eps):
        """Copy with entry (0, 2) of one generator shifted (negative control)."""
        out = GeneratorSet3()
        out.matrices = {k: v.copy() for k, v in self.matrices.items()}
        out.matrices[name][0, 2] += eps
        return out


def commutation_table_check(gens=None):
    """Residual of every bracket relation, plus the hermitian sl2 combinations.

    Returns a list of (relation-id, residual) using the same table as the
    polynomial realization, extended with the J1/J2/J3 form of the J triple
    and the zero-sum of the three diagonal generators.
    """
    if gens is None:
        gens = GeneratorSet3()
    report = []
    for rel_id, a, b, rhs in RELATIONS:
        lhs = gens[a] @ gens[b] - gens[b] @ gens[a]
        want = np.zeros((3, 3), dtype=complex)
        for gname, coeff in rhs.items():
            want = want + coeff * gens[gname]
        report.append((rel_id, float(np.max(np.abs(lhs - want)))))
    j1 = 0.5 * (gens["J+"] + gens["J-"])
    j2 = (gens["J+"] - gens["J-"]) / 2j
    j3 = gens["J3"]
    for rel_id, a, b, c in (
        ("[J1,J2]", j1, j2, 1j * j3),
        ("[J2,J3]", j2, j3, 1j * j1),
        ("[J3,J1]", j3, j1, 1j * j2),
    ):
        report.append((rel_id, float(np.max(np.abs(a @ b - b @ a - c)))))
    report.append(
        ("J3+K3+L3", float(np.max(np.abs(gens["J3"] + gens["K3"] + gens["L3"]))))
    )
    return report


def embed_transfer(m):
    """3x3 evolution: 2x2 amplitude block extended by an invariant direction."""
    u = np.eye(3, dtype=complex)
    u[:2, :2] = m.as_matrix()
    return u


def gauss_factorization(triple, gens=None):
    """Product of the three factors exp(-R_r J+) tau^(2 J3) exp(R_l J-).

    The nilpotent exponentials terminate after the linear term; the
    diagonal factor is diag(1/tau, tau, 1), single-valued in tau because
    2*J3 has eigenvalues (-1, 1, 0).
    """
    if gens is None:
        gens = GeneratorSet3()
    if triple.tau == 0:
        raise LogBranch("tau == 0: diagonal Gauss factor undefined")
    eye = np.eye(3, dtype=complex)
    upper = eye - triple.r_right * gens["J+"]
    diag = np.diag([1.0 / triple.tau, triple.tau, 1.0]).astype(complex)
    lower = eye + triple.r_left * gens["J-"]
    return upper @ diag @ lower


def gauss_factorization_check(m, triple, gens=None):
    """Max entry residual between the embedded evolution and its factorization."""
    return float(
        np.max(np.abs(embed_transfer(m) - gauss_factorization(triple, gens)))
    )


def intertwiner_check(m, triple, gens=None):
    """Exchange identities between the evolution and the endpoint ladders.

    Returns [(id, residual)] for the four first-order identities and the
    quadratic element L+ L- + K- K+ that commutes with the evolution.
    """
    if gens is None:
        gens = GeneratorSet3()
    u = embed_transfer(m)
    tau, rr, rl = triple.tau, triple.r_right, triple.r_left
    lm, lp = gens["L-"], gens["L+"]
    km, kp = gens["K-"], gens["K+"]
    checks = [
        ("U.L- exchange", u @ lm - (tau * lm @ u + rl * u @ kp)),
        ("K+.U exchange", kp @ u - (tau * u @ kp + rr * lm @ u)),
        ("U.K- exchange", u @ km - (tau * km @ u - rl * u @ lp)),
        ("L+.U exchange", lp @ u - (tau * u @ lp - rr * km @ u)),
    ]
    cas = lp @ lm + km @ kp
    checks.append(("quadratic commutant", cas @ u - u @ cas))
    return [(cid, float(np.max(np.abs(r)))) for cid, r in checks]


def _across(num, tau, interval):
    """num / tau of [x1, x2]: a decaying solution read on the far side of x0,
    where it grows."""
    if tau == 0 or not cmath.isfinite(phi := num / tau):
        raise ResonanceDivision(
            f"|tau| = {abs(tau):.3e} on {interval}: the decaying solution overflows"
        )
    return phi


def _phi(sweep, p, mid, side):
    """The solution decaying to the right (side > 0) or to the left (side < 0)
    at the table entry p, normalized at the entry mid, from the coefficients
    of the interval between them."""
    r_tail = sweep.rl_of if side > 0 else sweep.rr_of
    r = r_tail(p)
    lo, hi = (p, mid) if p.x <= mid.x else (mid, p)
    tau, rr_t, rl_t, _ = sweep.between(lo, hi)
    r_t = rr_t if side > 0 else rl_t
    if (p.x - mid.x) * side >= 0:
        return (1.0 + r) * tau / (1.0 - r * r_t)
    # p is on the growing side: there the solution is the inverse evolution,
    # written in the forward triple and the tail at mid so it has no cancellation
    return _across((1.0 + r) * (1.0 - r_t * r_tail(mid)), tau, (lo.x, hi.x))


def green_wronskian(spec, x, y, k, method="exact_piecewise", step=1e-3):
    """Green function from the two decaying solutions.

    G(x, y) = -phi_plus(max) phi_minus(min) / W with the x-independent
    Wronskian evaluated at the support midpoint x0, where it reduces to
    W = -2ik (1 - R_l(+inf, x0) R_r(x0, -inf)).
    """
    sweep, q, p = _entries(spec, x, y, k, method, step)
    value, loss = wronskian_at(sweep, q, p)
    return GreenValue(value, x, y, sweep.k, "wronskian", loss)


def wronskian_at(sweep, q, p):
    """Route A's (G, truncation loss) at the sweep's table entries q of y and
    p of x, y <= x."""
    k = sweep.k
    x_l, x_r = sweep.spec.support
    (mid,) = sweep.points((0.5 * (x_l + x_r),))
    denom = 1.0 - sweep.rl_of(mid) * sweep.rr_of(mid)
    if abs(denom) < WRONSKIAN_THRESHOLD:
        raise WronskianZero(
            f"|W| / |2ik| = {abs(denom):.3e} below threshold at k = {k}"
        )
    two_ik_g = _phi(sweep, p, mid, 1) * _phi(sweep, q, mid, -1) / denom
    return two_ik_g / (2j * k), 0.0
