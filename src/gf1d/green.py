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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DenominatorZero
from .polyrep import (
    MobiusAction,
    PolyVec,
    apply_generator,
    apply_U,
    inner_product,
    inverse_operator,
    lambda_l,
    lambda_l_power,
    lambda_r,
    lambda_r_power,
    mu_over_one_minus_c_xi,
)
from .potential import check_point, check_wavenumber
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
    """Checked wavenumber and points, and the sweep a single-point route reads."""
    k = check_wavenumber(k)
    check_point(x, "x")
    check_point(y, "y")
    return Sweep(spec, k, method, step)


def _endpoint_data(sweep, x, y):
    """(rl3, triple(y, x), rr1) with x >= y enforced by symmetry."""
    if x < y:
        x, y = y, x
    return sweep.r_left(x), sweep.triple(y, x), sweep.r_right(y)


def _closed_denominator(rl3, t, rr1):
    return (1.0 - rl3 * t.r_right) * (1.0 - t.r_left * rr1) - (
        rl3 * t.tau**2 * rr1
    )


def green_closed_form(spec, x, y, k, method="exact_piecewise", step=1e-3):
    """Closed form in the interval coefficients (route B)."""
    return closed_form_from(_sweep(spec, x, y, k, method, step), x, y)


def closed_form_from(sweep, x, y):
    """Route B at (x, y) from a sweep of the medium at its k."""
    k = sweep.k
    rl3, t, rr1 = _endpoint_data(sweep, x, y)
    d = _closed_denominator(rl3, t, rr1)
    if abs(d) < DENOMINATOR_THRESHOLD:
        raise DenominatorZero(f"|D| = {abs(d):.3e} below threshold at k = {k}")
    two_ik_g = (1.0 + rl3) * t.tau * (1.0 + rr1) / d
    return GreenValue(two_ik_g / (2j * k), x, y, k, "closed_form")


def green_polyrep(
    spec, x, y, k, P=64, variant="symmetric", method="exact_piecewise", step=1e-3
):
    """Green function as a matrix element in the polynomial realization.

    ``symmetric``: 2ikG = <Lambda_l(x), U(x,y) Lambda_r(y)>.
    ``asymmetric``: the evolution at x is not expanded; 2ikG = -B(R_l(inf,x))
    where B is the mu-independent series obtained by applying L+ - K- to
    U(x,y) Lambda_r(y).
    """
    return polyrep_from(_sweep(spec, x, y, k, method, step), x, y, P, variant)


def polyrep_from(sweep, x, y, P=64, variant="symmetric"):
    """Route C at (x, y) from a sweep of the medium at its k."""
    k = sweep.k
    rl3, t, rr1 = _endpoint_data(sweep, x, y)
    v = apply_U(MobiusAction.from_triple(t), lambda_r(rr1, P))
    if variant == "symmetric":
        left = lambda_l(rl3, P)
        two_ik_g = inner_product(left, v)
        amp = abs(1.0 + rl3) / (1.0 - min(abs(rl3), 0.99))
        loss = v.loss * amp
    elif variant == "asymmetric":
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
    return GreenValue(two_ik_g / (2j * k), x, y, k, f"polyrep_{variant}", loss)


def green_power(spec, x, y, k, n, P=64, method="exact_piecewise", step=1e-3):
    """[2ikG]**n = (1/n) <Lambda_l**n, U Lambda_r**n> for integer n >= 1."""
    if n < 1:
        raise ConfigError("n", f"power must be >= 1, got {n}")
    sweep = _sweep(spec, x, y, k, method, step)
    k = sweep.k
    rl3, t, rr1 = _endpoint_data(sweep, x, y)
    v = apply_U(MobiusAction.from_triple(t), lambda_r_power(rr1, n, P))
    val = inner_product(lambda_l_power(rl3, n, P), v) / n
    amp = abs(1.0 + rl3) ** n / (1.0 - min(abs(rl3), 0.99))
    return GreenValue(val, x, y, k, f"power_{n}", v.loss * amp)


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
    dropped from both.
    """
    if n < 1:
        raise ConfigError("n", f"power must be >= 1, got {n}")
    sweep = _sweep(spec, x, y, k, method, step)
    k = sweep.k
    q = n + 2
    rl3, t, rr1 = _endpoint_data(sweep, x, y)
    v = mu_over_one_minus_c_xi(q, rr1, P)
    for _ in range(n):
        v = inverse_operator("(L-+K+)inv", v)
    v = apply_U(MobiusAction.from_triple(t), v)
    for _ in range(n):
        v = inverse_operator("(L+-K-)inv", v)
    b = v.component(v.mu_degrees()[0])
    numerator = q * complex(np.polynomial.polynomial.polyval(rl3, b))
    d = _closed_denominator(rl3, t, rr1)
    if abs(d) < DENOMINATOR_THRESHOLD:
        raise DenominatorZero(f"|D| = {abs(d):.3e} below threshold at k = {k}")
    const = (
        (-1.0) ** n
        * q
        * math.factorial(q - n)
        * math.factorial(q - n - 1)
        / (math.factorial(q) * math.factorial(q - 1))
    )
    denominator = const * (t.tau / d) ** q
    return GreenValue(numerator / denominator, x, y, k, f"negative_power_{n}", v.loss)


_PRODUCT_PREFACTOR = {2: -0.5, 3: 1.0 / 12.0}


def green_product(spec, pairs, k, P=64, method="exact_piecewise", step=1e-3):
    """Product of two or three Green values, prod_i 2ikG(x_i, y_i).

    One chain of evolutions and endpoint ladders: starting from the
    multiple-reflection vector at y_1, the chain visits y_2 .. y_m then
    x_1 .. x_m, applying the evolution between consecutive endpoints and
    inserting L- + K+ at each intermediate y and L+ - K- at each x except
    the last, where the pairing with the left vector closes the chain.
    Reversed intervals along the chain use the inverse evolution, which the
    sweep writes in the forward span.
    """
    k = check_wavenumber(k)
    pairs = [(check_point(x, "x"), check_point(y, "y")) for x, y in pairs]
    m = len(pairs)
    if m not in _PRODUCT_PREFACTOR:
        raise ConfigError("pairs", f"products of 2 or 3 factors are implemented, got {m}")
    pairs = [(max(p), min(p)) for p in pairs]
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    sweep = Sweep(spec, k, method, step)
    rr1 = sweep.r_right(ys[0])
    rl_end = sweep.r_left(xs[-1])
    v = lambda_r(rr1, P)
    pos = ys[0]
    for yj in ys[1:]:
        t = sweep.triple(pos, yj)
        v = apply_U(MobiusAction.from_triple(t), v)
        v = apply_generator("L-", v) + apply_generator("K+", v)
        pos = yj
    for i, xj in enumerate(xs):
        t = sweep.triple(pos, xj)
        v = apply_U(MobiusAction.from_triple(t), v)
        if i < m - 1:
            v = apply_generator("L+", v) - apply_generator("K-", v)
        pos = xj
    val = _PRODUCT_PREFACTOR[m] * inner_product(lambda_l(rl_end, P), v)
    amp = abs(1.0 + rl_end) / (1.0 - min(abs(rl_end), 0.99))
    return GreenValue(
        val, xs[-1], ys[0], k, f"product_{m}", v.loss * amp
    )


def jump_condition_check(spec, y, k, h=1e-5, route=green_closed_form, **kw):
    """|d_x G(y+, y) - d_x G(y-, y) - 1|, via one-sided second-order stencils."""
    k = complex(k)

    def g(x):
        return route(spec, x, y, k, **kw).value

    right = (-3.0 * g(y) + 4.0 * g(y + h) - g(y + 2 * h)) / (2.0 * h)
    left = (3.0 * g(y) - 4.0 * g(y - h) + g(y - 2 * h)) / (2.0 * h)
    return abs((right - left) - 1.0)
