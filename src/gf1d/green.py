"""Green function routes built on the scattering coefficients.

All routes return 2ikG through G = value; the closed form is

    2ikG(x, y) = (1 + R_l(inf, x)) tau(x, y) (1 + R_r(y, -inf)) / D,
    D = (1 - R_l(inf, x) R_r(x, y)) (1 - R_l(x, y) R_r(y, -inf))
        - R_l(inf, x) tau(x, y)**2 R_r(y, -inf),

for x >= y (the kernel is symmetric, so arguments are swapped first).
The series routes evaluate the same object through the polynomial
realization: a matrix element of the evolution between multiple-
reflection vectors, or a generating-series value at the left
reflection coefficient.

Every route reads its endpoint data from a ``transfer.Sweep``; the
``*_from(sweep, ...)`` functions are the value halves, which a caller that
evaluates many points at one k (the CLI grid) calls on one shared sweep.
A value half returns plain numbers, (G, truncation loss); only the public
routes wrap them in a ``GreenValue``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DenominatorZero, ResonanceDivision
from .polyrep import (
    apply_generator,
    apply_U,
    inner_product,
    inverse_operator,
    lambda_l_power,
    lambda_r,
    lambda_r_power,
    mu_over_one_minus_c_xi,
)
from .potential import check_point
from .transfer import Sweep

__all__ = [
    "GreenValue",
    "green_closed_form",
    "green_polyrep",
    "green_power",
    "green_negative_power",
    "green_product",
    "jump_condition_check",
]

DENOMINATOR_THRESHOLD = 1e-13


@dataclass(frozen=True)
class GreenValue:
    """One evaluated quantity.

    For the plain routes ``value`` is G(x, y); for the power, negative
    power, and product routes it is the stated power or product of 2ikG.
    """

    value: complex
    x: float
    y: float
    k: complex
    route: str
    truncation_loss: float = 0.0


def _sweep(spec, x, y, k, method, step):
    """The sweep a single-point route reads, after checking k and the points."""
    sweep = Sweep(spec, k, method, step)
    check_point(x, "x")
    check_point(y, "y")
    return sweep


def _endpoint_data(sweep, x, y):
    """(rl3, (tau, R_r, R_l) of [y, x], rr1) with x >= y enforced by symmetry."""
    if x < y:
        x, y = y, x
    return sweep.r_left(x), sweep.coefficients(y, x), sweep.r_right(y)


def _denominator(k, rl3, t, rr1):
    """D of the closed form from (tau, R_r, R_l) of [y, x], guarded against a
    bound-state pole."""
    tau, rr, rl = t
    d = (1.0 - rl3 * rr) * (1.0 - rl * rr1) - rl3 * tau**2 * rr1
    if abs(d) < DENOMINATOR_THRESHOLD:
        raise DenominatorZero(f"|D| = {abs(d):.3e} below threshold at k = {k}")
    return d


def _check_power(n, integral=False):
    """n >= 1, finite, and of an integer type where ``integral``."""
    ok = isinstance(n, numbers.Integral) if integral else math.isfinite(n)
    if not ok or n < 1:
        kind = "an integer" if integral else "finite and"
        raise ConfigError("n", f"power must be {kind} >= 1, got {n!r}")


def green_closed_form(spec, x, y, k, method="exact_piecewise", step=1e-3):
    """Closed form in the interval coefficients (route B)."""
    sweep = _sweep(spec, x, y, k, method, step)
    value, loss = closed_form_from(sweep, x, y)
    return GreenValue(value, x, y, sweep.k, "closed_form", loss)


def closed_form_from(sweep, x, y):
    """(G, truncation loss) of route B at (x, y) from a sweep of the medium at its k."""
    k = sweep.k
    rl3, t, rr1 = _endpoint_data(sweep, x, y)
    two_ik_g = (1.0 + rl3) * t[0] * (1.0 + rr1) / _denominator(k, rl3, t, rr1)
    return two_ik_g / (2j * k), 0.0


def _chain(sweep, pairs, P, n=1):
    """(value, truncation loss) of <Lambda_l**n, chain Lambda_r**n>.

    With each pair ordered x_i >= y_i, the chain runs from y_1 through
    y_2 .. y_m then x_1 .. x_m: the evolution between consecutive endpoints
    (reversed ones from the forward span), with L- + K+ inserted at each
    later y and L+ - K- at each x but the last.  One pair gives n [2ikG]**n.
    The value is symmetric in the pairs, so where their order by (y, x) is
    forward, y_1 <= .. <= y_m <= x_1 <= .. <= x_m, the walk takes it (a
    reversed link's series grows); ``green_product`` keeps the caller's x, y.
    A large n or many pairs send the series out of the float range; that
    raises ``ResonanceDivision``.
    """
    pairs = [(max(p), min(p)) for p in pairs]
    walk = sorted(pairs, key=lambda p: (p[1], p[0]))
    xs = [x for x, _ in walk]
    if walk[-1][1] <= xs[0] and xs == sorted(xs):
        pairs = walk
    pos = pairs[0][1]
    rr1, rl_end = sweep.r_right(pos), sweep.r_left(pairs[-1][0])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v, left = lambda_r_power(rr1, n, P), lambda_l_power(rl_end, n, P)
            for _, yj in pairs[1:]:
                v = apply_U(sweep.triple(pos, yj), v)
                v = apply_generator("L-", v) + apply_generator("K+", v)
                pos = yj
            for i, (xj, _) in enumerate(pairs):
                v = apply_U(sweep.triple(pos, xj), v)
                if i < len(pairs) - 1:
                    v = apply_generator("L+", v) - apply_generator("K-", v)
                pos = xj
            amp = abs(1.0 + rl_end) ** n / (1.0 - min(abs(rl_end), 0.99))
            val, loss = inner_product(left, v), v.loss * amp
    except OverflowError:
        val = math.inf
    if not cmath.isfinite(val):
        msg = f"the chain of {len(pairs)} pairs at power {n} leaves the float range"
        raise ResonanceDivision(msg)
    return val, loss


def green_polyrep(
    spec, x, y, k, P=64, variant="symmetric", method="exact_piecewise", step=1e-3
):
    """Green function as a matrix element in the polynomial realization.

    ``symmetric``: 2ikG = <Lambda_l(x), U(x,y) Lambda_r(y)>.
    ``asymmetric``: the evolution at x is not expanded; 2ikG = -B(R_l(inf,x))
    where B is the mu-independent series obtained by applying L+ - K- to
    U(x,y) Lambda_r(y).
    """
    sweep = _sweep(spec, x, y, k, method, step)
    value, loss = polyrep_from(sweep, x, y, P, variant)
    return GreenValue(value, x, y, sweep.k, f"polyrep_{variant}", loss)


def polyrep_from(sweep, x, y, P=64, variant="symmetric"):
    """(G, truncation loss) of route C at (x, y) from a sweep of the medium at its k."""
    if variant == "symmetric":
        two_ik_g, loss = _chain(sweep, [(x, y)], P)
    elif variant == "asymmetric":
        hi, lo = (x, y) if x >= y else (y, x)
        rl3 = sweep.r_left(hi)
        v = apply_U(sweep.triple(lo, hi), lambda_r(sweep.r_right(lo), P))
        # L+ - K- multiplies the mu-degree-one component by -(1+xi); done on
        # a padded array so the top coefficient survives the cutoff
        comp = v.component(1)
        b = np.concatenate([comp, [0j]])
        b[1:] += comp
        two_ik_g = complex(np.polynomial.polynomial.polyval(rl3, b))
        loss = 2.0 * v.loss * max(1.0, abs(rl3))
    else:
        raise ConfigError(
            "variant", f"must be 'symmetric' or 'asymmetric', got {variant!r}"
        )
    return two_ik_g / (2j * sweep.k), loss


def green_power(spec, x, y, k, n, P=64, method="exact_piecewise", step=1e-3):
    """[2ikG]**n = (1/n) <Lambda_l**n, U Lambda_r**n> for any finite n >= 1.

    A non-integer n gives the principal power: the chain's row then has the
    fractional weight n, and tau is raised to it by its principal logarithm.
    A large n sends the coefficients of Lambda_r**n out of the float range;
    that raises ``ResonanceDivision``.
    """
    _check_power(n)
    sweep = _sweep(spec, x, y, k, method, step)
    val, loss = _chain(sweep, [(x, y)], P, n)
    return GreenValue(val / n, x, y, sweep.k, f"power_{n}", loss)


def green_negative_power(
    spec, x, y, k, n, P=64, method="exact_piecewise", step=1e-3
):
    """[2ikG]**(-n) from inverse ladder chains on a higher-weight vector.

    Works in the weight q = n + 2 space: the seed at the right endpoint is
    [mu/(1 - xi R_r(y,-inf))]**q; n inverse right-ladder steps, the
    evolution across [y, x], and n inverse left-ladder steps produce a
    series whose value at R_l(inf, x), normalized by a closed-form
    constant, is the reciprocal power.  Overall tau-powers of the two
    semi-infinite tails cancel between numerator and normalization and are
    dropped from both.  A normalization or series that leaves the float
    range (n near 100, or tau underflowed) raises ``ResonanceDivision``.
    """
    _check_power(n, integral=True)
    sweep = _sweep(spec, x, y, k, method, step)
    k = sweep.k
    q = n + 2
    out_of_range = f"the negative power {n} leaves the float range"
    try:  # the factorials pass the float range near n = 97
        const = (
            (-1.0) ** n
            * q
            * math.factorial(q - n)
            * math.factorial(q - n - 1)
            / (math.factorial(q) * math.factorial(q - 1))
        )
    except OverflowError:
        raise ResonanceDivision(out_of_range) from None
    rl3, t, rr1 = _endpoint_data(sweep, x, y)
    v = mu_over_one_minus_c_xi(q, rr1, P)
    for _ in range(n):
        v = inverse_operator("(L-+K+)inv", v)
    v = apply_U(sweep.triple(min(x, y), max(x, y)), v)
    for _ in range(n):
        v = inverse_operator("(L+-K-)inv", v)
    if not v.rows:  # every coefficient underflowed
        raise ResonanceDivision(out_of_range)
    b = v.component(min(v.rows))
    numerator = q * complex(np.polynomial.polynomial.polyval(rl3, b))
    d = _denominator(k, rl3, t, rr1)
    denominator = const * (t[0] / d) ** q
    return GreenValue(numerator / denominator, x, y, k, f"negative_power_{n}", v.loss)


def green_product(spec, pairs, k, P=64, method="exact_piecewise", step=1e-3):
    """Product of m >= 1 Green values, prod_i 2ikG(x_i, y_i), as
    (-1)**(m-1) / (m! (m-1)!) times route C's operator chain over the pairs
    (``_chain``); one pair is route C's 2ikG.  The returned x and y are x_m
    and y_1, each pair ordered x_i >= y_i.
    """
    sweep = Sweep(spec, k, method, step)
    pairs = [(check_point(x, "x"), check_point(y, "y")) for x, y in pairs]
    m = len(pairs)
    if m < 1:
        raise ConfigError("pairs", "a product needs at least one pair")
    val, loss = _chain(sweep, pairs, P)
    prefactor = (-1) ** (m - 1) / (math.factorial(m) * math.factorial(m - 1))
    x, y = max(pairs[-1]), min(pairs[0])
    return GreenValue(prefactor * val, x, y, sweep.k, f"product_{m}", loss)


def jump_condition_check(spec, y, k, h=1e-5):
    """Route B's |d_x G(y+, y) - d_x G(y-, y) - 1|, by one-sided 2nd-order stencils."""
    k = complex(k)

    def g(x):
        return green_closed_form(spec, x, y, k).value

    right = (-3.0 * g(y) + 4.0 * g(y + h) - g(y + 2 * h)) / (2.0 * h)
    left = (3.0 * g(y) - 4.0 * g(y - h) + g(y - 2 * h)) / (2.0 * h)
    return abs((right - left) - 1.0)
