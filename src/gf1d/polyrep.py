"""Representation of the scattering algebra on polynomials in two variables.

Vectors live in the span of xi**p * mu**q with integer p in [0, P] and a
weight q, an integer for every vector but the fractional powers.  The nine
generators act as first-order differential operators; the evolution
operator acts by the substitution xi -> Lhat(xi), mu -> That(xi, mu) with

    Lhat(xi) = R_l + xi tau**2 / (1 - xi R_r),
    That(xi, mu) = mu tau / (1 - xi R_r),

expanded as truncated power series in xi; (tau, R_r, R_l) are read from
the interval's scattering triple.  The generating vectors and their powers
are scale * (mu / (1 - c xi))**m; their coefficients, those of the factor
(1 - xi R_r)**(-q), of Lhat and of 1 / (1 + xi) all come from one binomial
series, ``_binomial``.  A vector (``PolyVec``) has one form: a coefficient
array over xi-degrees 0..P per mu-degree, P being the largest degree it
keeps.  Coefficients dropped beyond P, and those the evolution leaves
unread or unformed below NEGLIGIBLE = 2**-64 of a row's largest, are
tallied into a scalar truncation-loss estimate carried on each vector.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import ConfigError, CutoffBudget, DomainViolation, GammaPole
from .quadrature import gauss_legendre

__all__ = [
    "PolyVec",
    "GENERATORS",
    "check_cutoff",
    "apply_generator",
    "inner_product",
    "basis_weight",
    "apply_U",
    "lambda_r",
    "lambda_l",
    "lambda_r_power",
    "lambda_l_power",
    "mu_over_one_minus_c_xi",
    "inverse_operator",
    "adjoint_check",
    "inner_product_integral_check",
    "commutation_action_check",
]

GENERATORS = ("J+", "J-", "J3", "K+", "K-", "K3", "L+", "L-", "L3")

# a truncated product at cutoff P costs (P + 1)**2 coefficient products, and
# apply_U keeps about sqrt(P) series of P + 2 coefficients; this budget
# admits P up to 4095, a few seconds and some 40 MB per value
CUTOFF_BUDGET = 2**24


class PolyVec:
    """Vector stored as mu-degree rows.

    ``rows[q]`` is the coefficient array c[0..P] of xi**p mu**q: a row's key
    is its weight q.  The constructor keeps a complex array of at least P+1
    entries as its first P+1, not copied, and casts and cuts or zero-pads any
    other; rows that are all zero are dropped.  No row is ever written.
    """

    def __init__(self, rows, P, loss=0.0):
        check_cutoff(P)
        self.P, self.loss, self.rows = P, loss, {}
        for q in sorted(rows):
            row = np.asarray(rows[q], dtype=complex)[: P + 1]
            if row.size <= P:
                row, short = np.zeros(P + 1, dtype=complex), row
                row[: short.size] = short
            if np.count_nonzero(row):
                self.rows[q] = row

    @classmethod
    def basis(cls, p, q, P):
        check_cutoff(P)
        if not 0 <= p <= P:
            raise ConfigError("p", f"xi-degree {p} outside [0, {P}]")
        return cls({q: np.eye(1, P + 1, p, dtype=complex)[0]}, P)

    def component(self, q):
        """Coefficient array c[p] of the mu-degree-q part, length P+1."""
        row = self.rows.get(q)
        return np.zeros(self.P + 1, dtype=complex) if row is None else row.copy()

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self + other * -1.0 where ``negate``."""
        _check_same_cutoff(self, other)
        rows = dict(self.rows)
        for q, row in other.rows.items():
            if negate:  # not -row: the product's signed zeros and nans
                row = row * -1.0
            rows[q] = rows[q] + row if q in rows else row
        loss = other.loss * 1.0 if negate else other.loss
        return PolyVec(rows, self.P, self.loss + loss)

    def __mul__(self, scalar):
        rows = {q: row * scalar for q, row in self.rows.items()}
        return PolyVec(rows, self.P, self.loss * abs(scalar))

    __rmul__ = __mul__

    def max_abs_diff(self, other):
        return max(
            (
                float(np.max(np.abs(self.component(q) - other.component(q))))
                for q in self.rows.keys() | other.rows.keys()
            ),
            default=0.0,
        )


def check_cutoff(P):
    """P is an integer >= 1 whose series work fits CUTOFF_BUDGET; checked
    before any array of P + 1 coefficients is built."""
    # an int skips the slower ABC check
    odd = type(P) is not int and (isinstance(P, bool) or not isinstance(P, numbers.Integral))
    if odd or P < 1:
        raise ConfigError("P", f"series cutoff must be an integer >= 1, got {P!r}")
    if (P + 1) ** 2 > CUTOFF_BUDGET:
        raise CutoffBudget(
            f"series cutoff {P} costs {(P + 1) ** 2:.3g} coefficient products "
            f"per truncated product, over the budget of {CUTOFF_BUDGET}"
        )


def _check_same_cutoff(a, b):
    if a.P != b.P:
        raise ConfigError("P", f"vectors at cutoffs {a.P} and {b.P} do not combine")


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
        raise ConfigError("name", f"unknown generator {name!r}")
    dp, dn, coefficient = _GENERATOR_ACTION[name]
    p = np.arange(v.P + 1)
    rows = {}
    lost = 0.0
    for q, row in v.rows.items():
        # padded[j] holds xi-degree j-1; slot 0 receives only the p = 0
        # term of a lowering, which has coefficient p = 0
        padded = np.zeros(v.P + 3, dtype=complex)
        np.multiply(coefficient(p, q), row, out=padded[1 + dp : v.P + 2 + dp])
        lost += abs(padded[-1])
        rows[q + dn] = padded[1:-1]
    return PolyVec(rows, v.P, v.loss + lost)


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


@functools.lru_cache(maxsize=64)
def _weight_row(P, q):
    """(w, poles): read-only weights basis_weight(p, q) for p <= P, with 0
    at the xi-degrees where the weight is undefined, listed in ``poles``."""
    w = np.zeros(P + 1)
    poles = []
    for p in range(P + 1):
        try:
            w[p] = basis_weight(p, q)
        except GammaPole:
            poles.append(p)
    w.flags.writeable = False
    poles = np.array(poles, dtype=int)
    poles.flags.writeable = False
    return w, poles


def inner_product(left, right):
    """Conjugate-linear in left, linear in right."""
    _check_same_cutoff(left, right)
    total = 0j
    for q, lrow in left.rows.items():
        rrow = right.rows.get(q)
        if rrow is None:
            continue
        w, poles = _weight_row(left.P, q)
        if poles.size and np.any((lrow[poles] != 0) & (rrow[poles] != 0)):
            raise GammaPole(f"weight undefined at q = {q} on a nonzero term")
        total += complex(np.vdot(lrow * w, rrow))
    return total


# ---------------------------------------------------------------------------
# evolution action

def _series_mul(padded, b):
    """Truncated Cauchy product, to order n = b.size - 1, of b and the
    series padded[n:], which n zeros precede in ``padded``.

    Only the orders up to n are formed: the orders above n of two decaying
    series underflow into subnormal numbers, which cost many times more.
    """
    return np.convolve(padded, b, mode="valid")


@functools.lru_cache(maxsize=256, typed=True)
def _binomial_index(m, n):
    """Read-only (m + k, k + 1) for k < n; typed, since m + k takes its
    dtype from the type of m."""
    k = np.arange(n)
    mk, k1 = m + k, k + 1
    mk.flags.writeable = k1.flags.writeable = False
    return mk, k1


def _binomial(m, c, n):
    """Coefficients 0..n of (1 - c xi)**(-m), for any real or complex m; real
    for real c and m, whose ratios a complex division would round otherwise."""
    mk, k1 = _binomial_index(m, n)
    out = np.empty(n + 1, dtype=np.result_type(c, mk, 1.0))
    out[0] = 1.0
    ratios = out[1:]
    np.multiply(c, mk, out=ratios)
    np.divide(ratios, k1, out=ratios)
    return np.multiply.accumulate(out, out=out)  # np.cumprod, without its wrapper


_EPS = np.finfo(float).eps

# a coefficient below this fraction of its row's largest cannot change a
# value; apply_U neither reads nor forms such coefficients
NEGLIGIBLE = 2.0**-64


def apply_U(t, v):
    """Evolution of the interval whose (tau, R_r, R_l) are t[:3], applied to v.

    Expanded to the cutoff P of v, each mu-homogeneous component mu**q g(xi)
    maps to tau**q (1 - xi R_r)**(-q) g(Lhat(xi)).  The composition g(Lhat)
    is evaluated by baby and giant steps (Paterson and Stockmeyer): in
    blocks of B coefficients, g(Lhat) = sum_b S_b(Lhat) Lhat**(B b), where
    every S_b is summed from one table of Lhat**0 .. Lhat**(B-1) and the
    blocks are combined by Horner in Lhat**B.  Every partial sum is a value
    of the composition; re-expanding g about R_l instead would be cheaper
    but loses every digit when |R| approaches 1.

    The work follows each row's numerical degree s, the last coefficient
    above NEGLIGIBLE of the row's largest (weighted by the growth of
    Lhat**p where Lhat leaves the unit disk, as on a reversed interval): a
    row is read to s only, and with B near sqrt(s + 1) it costs about
    2 sqrt(s) truncated products.  The output is formed to order
    L = max(32, 2 s), or further where |R_r|**p alone decays slower, and
    kept when the geometric tail estimate the loss uses is below
    NEGLIGIBLE of the row's largest coefficient; otherwise one second pass
    forms it to the order that estimate asks for, or to P + 1.  P stays the
    largest degree kept, and a series that does not decay (s = P,
    L = P + 1) is formed as it would be without the cut.
    """
    tau, rr, rl = t[:3]
    P = v.P
    gain = _disk_gain(tau, rr, rl)
    degrees, carried = {}, v.loss
    for q, g in v.rows.items():
        degrees[q], unread = _degree(g, gain)
        # coefficients left unread enter the loss as a carried-in loss does
        carried += unread
    s = max(degrees.values(), default=0)
    B = min(s + 1, math.isqrt(max(1, len(degrees) + sum(degrees.values())) - 1) + 1)
    # the output falls no faster than |R_r|**p (Lhat's pole at 1/R_r), so
    # no order below that rate's own estimate can end the tail
    L = min(P + 1, max(32, 2 * s, _order_needed(0, 1.0, abs(rr), 1.0)))
    rows = _compose(tau, rr, rl, v.rows, degrees, B, L)
    tails = [_tail(res, rr) for res in rows.values()]
    if L <= P:
        wanted = max((_order_needed(L, *tail) for tail in tails), default=L)
        if wanted > L:
            L = min(P + 1, wanted)
            rows = _compose(tau, rr, rl, v.rows, degrees, B, L)
            tails = [_tail(res, rr) for res in rows.values()]
    # geometric extrapolation of the dropped tail; no bound when the
    # coefficient ratio reaches 1
    rho = max((r for _, r, _ in tails), default=abs(rr))
    lost = carried + sum(last for last, _, _ in tails)
    loss = math.inf if rho >= 1.0 else lost / (1.0 - rho)
    return PolyVec(rows, P, loss)


def _disk_gain(tau, rr, rl):
    """max(1, largest |Lhat| on the unit circle), which bounds the growth of
    the coefficients of Lhat**p.  Lhat maps that circle onto the circle of
    centre R_l + tau**2 conj(R_r) / (1 - |R_r|**2) and radius
    |tau|**2 / (1 - |R_r|**2); a passive interval keeps it in the unit disk."""
    d = 1.0 - abs(rr) ** 2
    if not d > 0.0:
        return math.inf
    return max(1.0, abs(rl + tau * tau * complex(rr).conjugate() / d) + abs(tau) ** 2 / d)


def _degree(g, gain):
    """(s, unread): the last index p of the row g where |g[p]| gain**p is
    above NEGLIGIBLE of its largest |coefficient|, and the sum of
    |g[p]| gain**p beyond it; s is the last index if g is not finite."""
    a = np.abs(g)
    top = float(a.max())
    if not math.isfinite(top):
        return a.size - 1, 0.0
    if gain == 1.0:  # a passive interval: gain**p is 1
        s = int((a > NEGLIGIBLE * top).nonzero()[0][-1])
        rest = a[s + 1 :]
        return s, float(rest[rest > 0.0].sum())
    shrink = (1.0 / gain) ** np.arange(a.size)  # gain**-p, underflowing to 0
    s = int((a > NEGLIGIBLE * top * shrink).nonzero()[0][-1])
    rest, shrink = a[s + 1 :], shrink[s + 1 :]
    kept = rest > 0.0  # shrink is not 0 where rest is not
    return s, float((rest[kept] / shrink[kept]).sum())


def _compose(tau, rr, rl, rows, degrees, B, n):
    """{q: tau**q (1 - xi R_r)**(-q) g(Lhat)} to order n for each row g,
    read to its degree, by blocks of B coefficients."""
    # Lhat**0 .. Lhat**B and then the Horner sum, each after n zeros, so
    # that every row is the left factor of a product as it stands
    table = np.zeros((B + 2, 2 * n + 1), dtype=complex)
    powers, padded, horner = table[: B + 1, n:], table[B + 1], table[B + 1, n:]
    powers[0, 0] = 1.0
    one = _binomial(1, rr, n)  # (1 - xi R_r)**-1: Lhat's tail and the weight-one factor
    powers[1, 0] = rl
    np.multiply(tau * tau, one[:n], out=powers[1, 1:])
    for j in range(2, B + 1):
        powers[j] = _series_mul(table[j - 1], powers[1])
    baby, giant = powers[:B], powers[B]
    out = {}
    for q, g in rows.items():
        s = degrees[q]
        blocks = np.zeros((s // B + 1, B), dtype=complex)
        blocks.ravel()[: s + 1] = g[: s + 1]
        sums = blocks @ baby
        horner[:] = sums[-1]
        for b in sums[-2::-1]:
            np.add(_series_mul(padded, giant), b, out=horner)
        res = _series_mul(padded, one if q == 1 else _binomial(q, rr, n))
        if float(q).is_integer():
            tq = tau ** int(round(q))
        else:
            tq = cmath.exp(q * cmath.log(tau))
        out[q] = np.multiply(res, tq, out=res)
    return out


def _tail(res, rr):
    """(|last coefficient|, ratio rho, largest |coefficient|) of a formed row.

    rho extrapolates the orders beyond the last geometrically: the larger of
    |R_r| and the ratio of the last two coefficients, where a ratio of two
    coefficients at rounding level says nothing of the tail.
    """
    a = np.abs(res)
    top = float(a.max())
    rho = abs(rr)
    if a[-2] > _EPS * top:
        rho = max(rho, a[-1] / a[-2])
    return float(a[-1]), float(rho), top


def _order_needed(L, last, rho, top):
    """Order at which the geometric tail estimate last / (1 - rho), from a
    row formed to L, falls to NEGLIGIBLE of its largest coefficient top."""
    target = NEGLIGIBLE * (1.0 - rho) * top
    if last <= target:
        return L
    if rho == 0.0:
        return L + 1
    if not (0.0 < rho < 1.0 and 0.0 < target and math.isfinite(last)):
        return math.inf
    return L + math.ceil((math.log(target) - math.log(last)) / math.log(rho))


# ---------------------------------------------------------------------------
# generating vectors

def lambda_r(r, P):
    """(1 + r) sum_p r**p Psi_{p,1}: the resummed multiple-reflection vector."""
    return lambda_r_power(r, 1, P)


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
    check_cutoff(P)
    return PolyVec({m: complex(scale) * _binomial(m, c, P)}, P, 0.0)


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
        for q, row in v.rows.items():
            if q < 1:
                raise DomainViolation(
                    f"{name} needs input vanishing at mu=0; found mu-degree {q}"
                )
            g = -row / (q + 1)
            if name == "(L+-K-)inv":  # times 1 / (1 + xi)
                padded = np.concatenate([np.zeros(v.P), g])
                g = _series_mul(padded, _binomial(1, -1.0, v.P))
            rows[q + 1] = g
        return PolyVec(rows, v.P, v.loss)
    if name in ("L-inv", "(L-+K+)inv"):
        if len(v.rows) != 1:
            raise DomainViolation(f"{name} needs a mu-homogeneous input")
        (m, g), = v.rows.items()
        if not m > 1:
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
        return PolyVec({m - 1: out}, v.P, v.loss)
    raise ConfigError("name", f"unknown inverse operator {name!r}")


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


def adjoint_check(P):
    """Verify <Psi', A Psi> = <A^dag Psi', Psi> on basis pairs p < P, q <= 3."""
    report = []
    for name in GENERATORS:
        dag, sign = _ADJOINT[name]
        worst = 0.0
        for q in range(4):
            for p in range(P):
                psi = PolyVec.basis(p, q, P)
                a_psi = apply_generator(name, psi)
                for m, row in a_psi.rows.items():
                    for p2 in np.flatnonzero(row):
                        psi2 = PolyVec.basis(p2, m, P)
                        lhs = inner_product(psi2, a_psi)
                        rhs = sign * inner_product(apply_generator(dag, psi2), psi)
                        worst = max(worst, abs(lhs - rhs))
        report.append((name, worst))
    return report


def inner_product_integral_check(p, q):
    """80-node radial quadrature of the diagonal weight vs the factorial formula."""
    if p + q < 1:
        raise ValueError("needs p + q >= 1")
    nodes, weights, _ = gauss_legendre(80)
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


def commutation_action_check(P):
    """Residual of every bracket relation on basis vectors p <= P-2, q <= 3."""
    report = []
    for rel_id, a, b, rhs in RELATIONS:
        worst = 0.0
        for q in range(4):
            for p in range(P - 1):
                psi = PolyVec.basis(p, q, P)
                lhs = apply_generator(a, apply_generator(b, psi)) - apply_generator(
                    b, apply_generator(a, psi)
                )
                want = PolyVec({}, P)
                for gname, coeff in rhs.items():
                    want = want + coeff * apply_generator(gname, psi)
                worst = max(worst, lhs.max_abs_diff(want))
        report.append((rel_id, worst))
    return report
