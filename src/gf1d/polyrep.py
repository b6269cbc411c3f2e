"""Representation of the scattering algebra on polynomials in two variables.

Vectors live in the span of xi**p * mu**q with integer p in [0, P] and q
running over q0 + integers (q0 = 0 for the default space).  The nine
generators act as first-order differential operators; the evolution
operator acts by the substitution xi -> Lhat(xi), mu -> That(xi, mu) with

    Lhat(xi) = R_l + xi tau**2 / (1 - xi R_r),
    That(xi, mu) = mu tau / (1 - xi R_r),

expanded as truncated power series in xi.  Coefficients dropped beyond the
cutoff are tallied into a scalar truncation-loss estimate carried on each
vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DomainViolation, GammaPole, TruncationOverflow

__all__ = [
    "PolyVec",
    "MobiusAction",
    "GENERATORS",
    "apply_generator",
    "inner_product",
    "basis_weight",
    "apply_U",
    "lambda_r",
    "lambda_l",
    "lambda_r_power",
    "lambda_l_power",
    "mu_over_one_minus_c_xi",
    "ladder_power",
    "inverse_operator",
    "adjoint_check",
    "inner_product_integral_check",
    "commutation_action_check",
]

GENERATORS = ("J+", "J-", "J3", "K+", "K-", "K3", "L+", "L-", "L3")

class PolyVec:
    """Vector stored as mu-degree rows.

    ``rows[n]`` is the coefficient array c[0..P] of xi**p mu**(q0+n); rows
    that are all zero are dropped and no row is modified in place.  The
    constructor also takes the sparse form {(p, n): c}; ``coeffs`` is a
    read-only view in that form.
    """

    def __init__(self, coeffs, P, q0=0.0, loss=0.0):
        _check_cutoff(P)
        rows = {}
        for (p, n), c in coeffs.items():
            if not 0 <= p <= P:
                raise ValueError(f"xi-degree {p} outside [0, {P}]")
            rows.setdefault(n, np.zeros(P + 1, dtype=complex))[p] = c
        self._set(rows, P, q0, loss)

    def _set(self, rows, P, q0, loss):
        self.P, self.q0, self.loss = P, q0, loss
        self.rows = {n: rows[n] for n in sorted(rows) if np.count_nonzero(rows[n])}

    @classmethod
    def _of_rows(cls, rows, P, q0, loss):
        """Vector owning ``rows``, each already of length P+1."""
        v = cls.__new__(cls)
        v._set(rows, P, q0, loss)
        return v

    @classmethod
    def basis(cls, p, n, P, q0=0.0):
        return cls({(p, n): 1.0 + 0j}, P, q0)

    @classmethod
    def from_components(cls, comps, P, q0=0.0, loss=0.0):
        """Vector from {n: array}; each array is cut or zero-padded to P+1."""
        _check_cutoff(P)
        rows = {}
        for n, arr in comps.items():
            arr = np.asarray(arr)[: P + 1]
            rows[n] = np.zeros(P + 1, dtype=complex)
            rows[n][: arr.size] = arr
        return cls._of_rows(rows, P, q0, loss)

    @property
    def coeffs(self):
        return MappingProxyType(
            {
                (int(p), n): complex(row[p])
                for n, row in self.rows.items()
                for p in np.flatnonzero(row)
            }
        )

    def q_of(self, n):
        return self.q0 + n

    def mu_degrees(self):
        return list(self.rows)

    def component(self, n):
        """Coefficient array c[p] of the mu-degree-(q0+n) part, length P+1."""
        row = self.rows.get(n)
        return np.zeros(self.P + 1, dtype=complex) if row is None else row.copy()

    def __add__(self, other):
        if self.P != other.P or self.q0 != other.q0:
            raise ValueError("incompatible vectors")
        rows = dict(self.rows)
        for n, row in other.rows.items():
            rows[n] = rows[n] + row if n in rows else row
        return PolyVec._of_rows(rows, self.P, self.q0, self.loss + other.loss)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        rows = {n: row * scalar for n, row in self.rows.items()}
        return PolyVec._of_rows(rows, self.P, self.q0, self.loss * abs(scalar))

    __rmul__ = __mul__

    def max_abs_diff(self, other):
        return max(
            (
                float(np.max(np.abs(self.component(n) - other.component(n))))
                for n in self.rows.keys() | other.rows.keys()
            ),
            default=0.0,
        )


def _check_cutoff(P):
    if P < 1:
        raise ConfigError("P", f"series cutoff must be >= 1, got {P}")


# generator -> (xi-degree shift, mu-degree shift, coefficient(p, q))
_GENERATOR_ACTION = {
    "J+": (1, 0, lambda p, q: -(p + q)),
    "J-": (-1, 0, lambda p, q: p),
    "K+": (-1, 1, lambda p, q: p),
    "K-": (1, -1, lambda p, q: q),
    "L+": (0, -1, lambda p, q: -q),
    "L-": (0, 1, lambda p, q: p + q),
    "J3": (0, 0, lambda p, q: p + q / 2.0),
    "K3": (0, 0, lambda p, q: (q - p) / 2.0),
    "L3": (0, 0, lambda p, q: -q - p / 2.0),
}


def apply_generator(name, v):
    """Action of one generator; coefficients pushed beyond P are tallied as loss."""
    if name not in _GENERATOR_ACTION:
        raise ValueError(f"unknown generator {name!r}")
    dp, dn, coefficient = _GENERATOR_ACTION[name]
    p = np.arange(v.P + 1)
    rows = {}
    lost = 0.0
    for n, row in v.rows.items():
        # padded[j] holds xi-degree j-1; slot 0 receives only the p = 0
        # term of a lowering, which has coefficient p = 0
        padded = np.zeros(v.P + 3, dtype=complex)
        padded[1 + dp : v.P + 2 + dp] = coefficient(p, v.q_of(n)) * row
        lost += abs(padded[-1])
        rows[n + dn] = padded[1:-1]
    return PolyVec._of_rows(rows, v.P, v.q0, v.loss + lost)


def basis_weight(p, q):
    """Diagonal inner-product weight Gamma(p+1)Gamma(q+1)/Gamma(p+q)."""
    if p == 0 and q == 0:
        return 0.0
    if float(q).is_integer() and float(p + q).is_integer():
        qi, si = int(round(q)), int(round(p + q))
        if qi + 1 <= 0 or (si <= 0 and (p, qi) != (0, 0)):
            raise GammaPole(f"weight undefined at (p, q) = ({p}, {q})")
        # p! q! / (p+q-1)! exactly
        return float(
            Fraction(math.factorial(p) * math.factorial(qi), math.factorial(si - 1))
        )
    try:
        return math.exp(
            math.lgamma(p + 1) + math.lgamma(q + 1) - math.lgamma(p + q)
        ) * math.copysign(1.0, math.gamma(q + 1)) * math.copysign(
            1.0, math.gamma(p + q)
        )
    except ValueError as exc:
        raise GammaPole(f"weight undefined at (p, q) = ({p}, {q})") from exc


def inner_product(left, right):
    """Conjugate-linear in left, linear in right."""
    if left.q0 != right.q0:
        raise ValueError("inner product needs matching q-offsets")
    total = 0j
    for n, lrow in left.rows.items():
        rrow = right.rows.get(n)
        if rrow is None:
            continue
        q = left.q_of(n)
        p = np.flatnonzero((lrow != 0) & (rrow != 0))
        w = np.array([basis_weight(int(j), q) for j in p])
        total += complex(np.vdot(lrow[p] * w, rrow[p]))
    return total


# ---------------------------------------------------------------------------
# evolution action

@dataclass(frozen=True)
class MobiusAction:
    tau: complex
    r_right: complex
    r_left: complex

    @classmethod
    def from_triple(cls, t):
        return cls(tau=t.tau, r_right=t.r_right, r_left=t.r_left)

    @classmethod
    def identity(cls):
        return cls(1.0 + 0j, 0j, 0j)


def _series_mul(a, b, n):
    """Truncated Cauchy product of coefficient arrays, length n+1."""
    return np.convolve(a[: n + 1], b[: n + 1])[: n + 1]


def _compose_series(g, lhat, n):
    """g(lhat(xi)) truncated at order n, by Horner over the series lhat."""
    out = np.zeros(n + 1, dtype=complex)
    for c in g[::-1]:
        out = _series_mul(out, lhat, n)
        out[0] += c
    return out


def apply_U(action, v, tol=None):
    """Evolution applied to v, expanded to the cutoff of v.

    Each mu-homogeneous component mu**q g(xi) maps to
    tau**q (1 - xi R_r)**(-q) g(Lhat(xi)).
    """
    tau, rr, rl = action.tau, action.r_right, action.r_left
    n_work = v.P + 1  # one extra order for the tail estimate
    lhat = np.zeros(n_work + 1, dtype=complex)
    lhat[0] = rl
    lhat[1] = tau * tau
    for m in range(2, n_work + 1):
        lhat[m] = lhat[m - 1] * rr
    rows = {}
    tail = 0.0
    emp_ratio = 0.0
    for n, row in v.rows.items():
        q = v.q_of(n)
        g = np.zeros(n_work + 1, dtype=complex)
        g[: v.P + 1] = row
        res = _compose_series(g, lhat, n_work)
        # (1 - xi R_r)^(-q): binomial series, valid for any real/complex q
        b = np.zeros(n_work + 1, dtype=complex)
        b[0] = 1.0
        for m in range(1, n_work + 1):
            b[m] = b[m - 1] * rr * (q + m - 1) / m
        res = _series_mul(res, b, n_work)
        if float(q).is_integer():
            tq = tau ** int(round(q))
        else:
            tq = cmath.exp(q * cmath.log(tau))
        res *= tq
        tail += abs(res[n_work])
        if abs(res[n_work - 1]) > 0:
            emp_ratio = max(emp_ratio, abs(res[n_work]) / abs(res[n_work - 1]))
        rows[n] = res[: v.P + 1]
    # geometric extrapolation of the dropped tail; no bound when the
    # coefficient ratio reaches 1
    rho = max(abs(rr), emp_ratio)
    loss = math.inf if rho >= 1.0 else (v.loss + tail) / (1.0 - rho)
    if tol is not None and loss > tol:
        raise TruncationOverflow(f"estimated truncation loss {loss:.3e} > {tol:.3e}")
    return PolyVec._of_rows(rows, v.P, v.q0, loss)


# ---------------------------------------------------------------------------
# generating vectors

def lambda_r(r, P):
    """(1 + r) sum_p r**p Psi_{p,1}: the resummed multiple-reflection vector."""
    row = []
    c = 1.0 + r
    for _ in range(P + 1):
        row.append(c)
        c = c * r
    return PolyVec.from_components({1: row}, P)


def lambda_l(r_l, P):
    """Left counterpart; stored conjugated so the left inner-product slot
    reproduces (1 + R_l) sum R_l**p."""
    return lambda_r(complex(r_l).conjugate(), P)


def lambda_r_power(r, n, P):
    """Coefficient-wise n-th function power of lambda_r: (1+r)**n (mu/(1 - r xi))**n."""
    return mu_over_one_minus_c_xi(n, r, P, (1.0 + r) ** n)


def lambda_l_power(r_l, n, P):
    return lambda_r_power(complex(r_l).conjugate(), n, P)


def mu_over_one_minus_c_xi(m, c, P, scale=1.0):
    """Truncated coefficients of scale * (mu / (1 - c xi))**m."""
    row = []
    b = 1.0 + 0j
    for p in range(P + 1):
        row.append(scale * b)
        b = b * c * (m + p) / (p + 1)
    return PolyVec.from_components({m: row}, P)


def ladder_power(n, m, c, P):
    """(L- + K+)**n applied to (mu/(1 - c xi))**m, by repeated generator action.

    Computed with an enlarged internal cutoff so that the returned
    coefficients up to P are free of truncation artifacts; equals
    [(m+n-1)!/(m-1)!] (1+c)**n (mu/(1-c xi))**(m+n) truncated at P.
    """
    if m < 1 or n < 1:
        raise ValueError("needs m >= 1 and n >= 1")
    v = mu_over_one_minus_c_xi(m, c, P + n)
    for _ in range(n):
        v = apply_generator("L-", v) + apply_generator("K+", v)
    return PolyVec.from_components(v.rows, P)


# ---------------------------------------------------------------------------
# inverse operators

def inverse_operator(name, v):
    """Inverses of the endpoint ladder operators on their stated domains.

    ``L+inv`` and ``(L+-K-)inv`` integrate in mu (input must vanish at
    mu = 0); ``L-inv`` and ``(L-+K+)inv`` act on mu-homogeneous input of
    degree m > 1 and are diagonal in the xi- and (1+xi)-power bases.
    """
    if name in ("L+inv", "(L+-K-)inv"):
        rows = {}
        for n, row in v.rows.items():
            q = v.q_of(n)
            if q.real < 1:
                raise DomainViolation(
                    f"{name} needs input vanishing at mu=0; found mu-degree {q}"
                )
            g = -row / (q + 1)
            if name == "(L+-K-)inv":
                inv1pxi = np.array(
                    [(-1.0) ** m for m in range(v.P + 1)], dtype=complex
                )
                g = _series_mul(g, inv1pxi, v.P)
            rows[n + 1] = g
        return PolyVec._of_rows(rows, v.P, v.q0, v.loss)
    if name in ("L-inv", "(L-+K+)inv"):
        if len(v.rows) != 1:
            raise DomainViolation(f"{name} needs a mu-homogeneous input")
        (n, g), = v.rows.items()
        m = v.q_of(n)
        if not m.real > 1:
            raise DomainViolation(f"{name} needs mu-degree m > 1, got {m}")
        if name == "L-inv":
            out = g / np.array([m + j - 1 for j in range(v.P + 1)])
        else:
            # solve (m-1+p) w_p + (p+1) w_{p+1} = g_p backward; diagonal in
            # powers of 1+xi, but this bidiagonal form is numerically stable
            out = np.zeros(v.P + 1, dtype=complex)
            out[v.P] = g[v.P] / (m + v.P - 1)
            for p in range(v.P - 1, -1, -1):
                out[p] = (g[p] - (p + 1) * out[p + 1]) / (m + p - 1)
        return PolyVec._of_rows({n - 1: out}, v.P, v.q0, v.loss)
    raise ValueError(f"unknown inverse operator {name!r}")


# ---------------------------------------------------------------------------
# reporting checks

_ADJOINT = {
    "J+": ("J-", -1.0),
    "J-": ("J+", -1.0),
    "K+": ("K-", 1.0),
    "K-": ("K+", 1.0),
    "L+": ("L-", -1.0),
    "L-": ("L+", -1.0),
    "J3": ("J3", 1.0),
    "K3": ("K3", 1.0),
    "L3": ("L3", 1.0),
}


def adjoint_check(P, q_values=(0, 1, 2, 3), q0=0.0):
    """Verify <Psi', A Psi> = <A^dag Psi', Psi> on all basis pairs up to P."""
    report = []
    for name in GENERATORS:
        dag, sign = _ADJOINT[name]
        worst = 0.0
        for n in q_values:
            for p in range(P):
                psi = PolyVec.basis(p, n, P, q0)
                a_psi = apply_generator(name, psi)
                for m, row in a_psi.rows.items():
                    for p2 in np.flatnonzero(row):
                        psi2 = PolyVec.basis(p2, m, P, q0)
                        lhs = inner_product(psi2, a_psi)
                        rhs = sign * inner_product(apply_generator(dag, psi2), psi)
                        worst = max(worst, abs(lhs - rhs))
        report.append((name, worst))
    return report


def inner_product_integral_check(p, q, n_nodes=80):
    """Radial quadrature of the diagonal weight vs the factorial formula."""
    if p + q < 1:
        raise ValueError("needs p + q >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    integral = float(np.sum(w * r ** (2 * p + 1) * (1.0 - r**2) ** q))
    quad = 2.0 * (1 + p + q) * (p + q) * integral
    formula = basis_weight(p, q)
    return quad, formula


def _build_relations():
    rel = []
    for x in ("J", "K", "L"):
        rel.append((f"[{x}+,{x}-]", f"{x}+", f"{x}-", {f"{x}3": 2.0}))
        rel.append((f"[{x}3,{x}+]", f"{x}3", f"{x}+", {f"{x}+": 1.0}))
        rel.append((f"[{x}3,{x}-]", f"{x}3", f"{x}-", {f"{x}-": -1.0}))
    for a, b in (("J", "K"), ("K", "L"), ("L", "J")):
        rel.append((f"[{a}3,{b}+]", f"{a}3", f"{b}+", {f"{b}+": -0.5}))
        rel.append((f"[{a}3,{b}-]", f"{a}3", f"{b}-", {f"{b}-": 0.5}))
        rel.append((f"[{b}3,{a}+]", f"{b}3", f"{a}+", {f"{a}+": -0.5}))
        rel.append((f"[{b}3,{a}-]", f"{b}3", f"{a}-", {f"{a}-": 0.5}))
    third = {("J", "K"): "L", ("K", "L"): "J", ("L", "J"): "K"}
    for (a, b), c in third.items():
        rel.append((f"[{a}+,{b}+]", f"{a}+", f"{b}+", {f"{c}-": 1.0}))
        rel.append((f"[{a}-,{b}-]", f"{a}-", f"{b}-", {f"{c}+": -1.0}))
        rel.append((f"[{a}+,{b}-]", f"{a}+", f"{b}-", {}))
        rel.append((f"[{a}-,{b}+]", f"{a}-", f"{b}+", {}))
    for a, b in (("J", "K"), ("K", "L"), ("L", "J")):
        rel.append((f"[{a}3,{b}3]", f"{a}3", f"{b}3", {}))
    return rel


# the full bracket table: (id, A, B, {generator: coefficient})
RELATIONS = _build_relations()


def commutation_action_check(P, q_values=(0, 1, 2, 3), q0=0.0):
    """Residual of every bracket relation acting on basis vectors p <= P-2."""
    report = []
    for rel_id, a, b, rhs in RELATIONS:
        worst = 0.0
        for n in q_values:
            for p in range(P - 1):
                psi = PolyVec.basis(p, n, P, q0)
                lhs = apply_generator(a, apply_generator(b, psi)) - apply_generator(
                    b, apply_generator(a, psi)
                )
                want = PolyVec({}, P, q0)
                for gname, coeff in rhs.items():
                    want = want + coeff * apply_generator(gname, psi)
                worst = max(worst, lhs.max_abs_diff(want))
        report.append((rel_id, worst))
    return report
