"""2x2 evolution matrices and transmission/reflection coefficients.

The wave amplitudes obey dU/dx = [[-ik, f(x)], [f(x), ik]] U with
U(y, y) = I.  The matrix entries are written as

    U = [[alpha(+k), beta(-k)], [beta(+k), alpha(-k)]],

which is unimodular: alpha(k) alpha(-k) - beta(k) beta(-k) = 1.
Transmission/reflection coefficients of an interval are

    tau = 1/alpha(k),  R_r = beta(k)/alpha(k),  R_l = -beta(-k)/alpha(k).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchUndefined,
    ConfigError,
    IntervalMismatch,
    ResonanceDivision,
    StepTooLarge,
    UnsupportedProfile,
)
from .potential import evaluate_f

__all__ = [
    "TransferMatrix",
    "ScatteringTriple",
    "propagate",
    "compose",
    "invert",
    "scattering_coefficients",
    "riccati_coefficients",
    "compose_triples",
    "semi_infinite_coefficients",
    "tail_reflection",
    "interval_triple",
]

RESONANCE_THRESHOLD = 1e-13
# switch to the series of cosh(z), sinh(z)/z below this |z| to avoid cancellation
KAPPA_SERIES_SWITCH = 1e-4


@dataclass(frozen=True)
class TransferMatrix:
    alpha_plus: complex
    alpha_minus: complex
    beta_plus: complex
    beta_minus: complex
    interval: tuple  # (x1, x2) with the matrix representing U(x2, x1)
    k: complex

    @classmethod
    def identity(cls, x, k):
        return cls(1.0 + 0j, 1.0 + 0j, 0j, 0j, (x, x), k)

    @classmethod
    def from_matrix(cls, m, interval, k):
        return cls(m[0, 0], m[1, 1], m[1, 0], m[0, 1], tuple(interval), k)

    def as_matrix(self):
        return np.array(
            [[self.alpha_plus, self.beta_minus], [self.beta_plus, self.alpha_minus]],
            dtype=complex,
        )

    def unimodularity_residual(self):
        det = self.alpha_plus * self.alpha_minus - self.beta_plus * self.beta_minus
        return abs(det - 1.0)


@dataclass(frozen=True)
class ScatteringTriple:
    tau: complex
    r_right: complex
    r_left: complex
    interval: tuple
    k: complex


def _kappa(c, k):
    """sqrt(c**2 - k**2) on the branch Re > 0 for Im k > 0, continued to real k."""
    w = c * c - k * k
    if w == 0:
        raise BranchUndefined(f"branch point k**2 == c**2 at k={k}, c={c}")
    if k.imag == 0 and w.real < 0 and w.imag == 0:
        # limit from Im k -> 0+
        root = 1j * cmath.sqrt(-w)
        return -root if k.real > 0 else root
    root = cmath.sqrt(w)
    return -root if root.real < 0 else root


def constant_step_matrix(c, dx, k):
    """exp(dx * [[-ik, c], [c, ik]]) in closed form."""
    if c == 0:
        e = cmath.exp(-1j * k * dx)
        return np.array([[e, 0.0], [0.0, 1.0 / e]], dtype=complex)
    w = c * c - k * k
    kap = cmath.sqrt(w)
    z = kap * dx
    if abs(z) < KAPPA_SERIES_SWITCH:
        z2 = z * z
        ch = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
        shc = dx * (1.0 + z2 / 6.0 + z2 * z2 / 120.0)  # sinh(z)/kappa
    else:
        ch = cmath.cosh(z)
        shc = cmath.sinh(z) / kap
    return np.array(
        [[ch - 1j * k * shc, c * shc], [c * shc, ch + 1j * k * shc]], dtype=complex
    )


def _piecewise_nodes(spec, x1, x2):
    pts = [x1, x2]
    for b in spec.breakpoints():
        if x1 < b < x2:
            pts.append(b)
    return sorted(set(pts))


def propagate(spec, x1, x2, k, method="exact_piecewise", step=1e-3):
    """U(x2, x1) for the given medium.

    ``exact_piecewise`` composes closed-form matrix exponentials per
    constant piece; ``rk4`` integrates the evolution equation with a
    fixed step (general profiles).
    """
    if x2 < x1:
        raise ValueError(f"propagate needs x1 <= x2, got [{x1}, {x2}]")
    k = complex(k)
    if x2 == x1:
        return TransferMatrix.identity(x1, k)
    if method == "exact_piecewise":
        nodes = _piecewise_nodes(spec, x1, x2)
        u = np.eye(2, dtype=complex)
        for a, b in zip(nodes, nodes[1:]):
            mid = 0.5 * (a + b)
            seg = spec.segment_at(mid)
            if seg is not None and not seg.profile.is_constant:
                raise UnsupportedProfile(
                    f"segment [{seg.x_start}, {seg.x_end}] is not constant; use rk4"
                )
            c = evaluate_f(spec, mid)
            u = constant_step_matrix(c, b - a, k) @ u
        return TransferMatrix.from_matrix(u, (x1, x2), k)
    if method == "rk4":
        return _propagate_rk4(spec, x1, x2, k, step)
    raise ValueError(f"unknown method {method!r}")


def _panel_f(spec, a, b):
    """f restricted to the open panel (a, b); stages at the panel edges must
    not pick up the neighboring segment."""
    mid = 0.5 * (a + b)
    seg = spec.segment_at(mid)
    if seg is None or seg.profile.is_constant:
        c = evaluate_f(spec, mid)
        return lambda x: c
    return lambda x: float(seg.profile.value(x, seg.x_start, seg.x_end))


def _rk4_panels(spec, x1, x2, step, rhs, y):
    """Fixed-step RK4 of dy/dx = rhs(f(x), y) from x1 to x2, starting at y.

    The range is split at breakpoints so each run sees a smooth f.
    """
    if not step > 0:
        raise ConfigError("step", f"must be > 0, got {step}")
    nodes = _piecewise_nodes(spec, x1, x2)
    for a, b in zip(nodes, nodes[1:]):
        f = _panel_f(spec, a, b)
        n = max(1, int(np.ceil((b - a) / step)))
        h = (b - a) / n
        x = a
        for _ in range(n):
            k1 = rhs(f(x), y)
            k2 = rhs(f(x + h / 2), y + h / 2 * k1)
            k3 = rhs(f(x + h / 2), y + h / 2 * k2)
            k4 = rhs(f(x + h), y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
    return y


def _propagate_rk4(spec, x1, x2, k, step):
    def rhs(fx, u):
        return np.array([[-1j * k, fx], [fx, 1j * k]], dtype=complex) @ u

    u = _rk4_panels(spec, x1, x2, step, rhs, np.eye(2, dtype=complex))
    m = TransferMatrix.from_matrix(u, (x1, x2), k)
    # unimodularity drift is the cheapest local-error proxy for this ODE
    scale = max(1.0, float(np.max(np.abs(u))))
    if m.unimodularity_residual() > 1e-6 * scale * scale:
        raise StepTooLarge(
            f"rk4 step {step} too large: det residual {m.unimodularity_residual():.3e}"
        )
    return m


def compose(left, right):
    """U(x,z) = U(x,y) U(y,z) for left over (y,x) and right over (z,y)."""
    if left.k != right.k:
        raise IntervalMismatch(f"wavenumbers differ: {left.k} vs {right.k}")
    if not np.isclose(left.interval[0], right.interval[1], rtol=0, atol=1e-12):
        raise IntervalMismatch(
            f"intervals do not chain: {right.interval} then {left.interval}"
        )
    m = left.as_matrix() @ right.as_matrix()
    return TransferMatrix.from_matrix(m, (right.interval[0], left.interval[1]), left.k)


def invert(m):
    """U(y,x) from U(x,y): alpha entries swap across the k sign, betas negate."""
    return TransferMatrix(
        alpha_plus=m.alpha_minus,
        alpha_minus=m.alpha_plus,
        beta_plus=-m.beta_plus,
        beta_minus=-m.beta_minus,
        interval=(m.interval[1], m.interval[0]),
        k=m.k,
    )


def scattering_coefficients(m):
    if abs(m.alpha_plus) < RESONANCE_THRESHOLD:
        raise ResonanceDivision(
            f"|alpha| = {abs(m.alpha_plus):.3e} below threshold on {m.interval}"
        )
    return ScatteringTriple(
        tau=1.0 / m.alpha_plus,
        r_right=m.beta_plus / m.alpha_plus,
        r_left=-m.beta_minus / m.alpha_plus,
        interval=m.interval,
        k=m.k,
    )


def interval_triple(spec, x1, x2, k, method="exact_piecewise", step=1e-3):
    """Scattering coefficients of [x1, x2]; x1 > x2 uses the inverse evolution."""
    if x1 <= x2:
        return scattering_coefficients(propagate(spec, x1, x2, k, method, step))
    return scattering_coefficients(invert(propagate(spec, x2, x1, k, method, step)))


def riccati_coefficients(spec, x1, x2, k, step=1e-3):
    """Integrate the first-order equations for (R_r, tau, R_l) from x1 to x2."""
    if x2 < x1:
        raise ValueError(f"needs x1 <= x2, got [{x1}, {x2}]")
    k = complex(k)

    def rhs(f, y):
        rr, tau, rl = y
        return np.array(
            [
                2j * k * rr + f * (1.0 - rr * rr),
                1j * k * tau - f * tau * rr,
                -f * tau * tau,
            ],
            dtype=complex,
        )

    y = _rk4_panels(
        spec, x1, x2, step, rhs, np.array([0.0, 1.0, 0.0], dtype=complex)
    )
    if abs(y[0]) > 1.0 + 1e-6:
        raise StepTooLarge(f"|R_r| = {abs(y[0]):.6f} escaped the unit disk")
    return ScatteringTriple(
        tau=y[1], r_right=y[0], r_left=y[2], interval=(x1, x2), k=k
    )


def compose_triples(outer, inner):
    """Coefficients of the union interval: outer lies to the right of inner."""
    d = 1.0 - outer.r_left * inner.r_right
    return ScatteringTriple(
        tau=outer.tau * inner.tau / d,
        r_right=outer.r_right + outer.tau**2 * inner.r_right / d,
        r_left=inner.r_left + inner.tau**2 * outer.r_left / d,
        interval=(inner.interval[0], outer.interval[1]),
        k=outer.k,
    )


def tail_reflection(c, k, side):
    """Limit reflection of a constant-f half line.

    ``side`` is "left" for R_r(edge, -inf) and "right" for R_l(+inf, edge).
    """
    k = complex(k)
    if c == 0 or c is None:
        return 0j
    kap = _kappa(c, k)
    seed = (1j * k + kap) / c
    return seed if side == "left" else -seed


def semi_infinite_coefficients(spec, x, k, method="exact_piecewise", step=1e-3):
    """(R_r(x, -inf), R_l(+inf, x)) for vacuum or constant tails."""
    k = complex(k)
    x_l, x_r = spec.support
    # reflection seen from x looking left
    seed = tail_reflection(spec.left_tail, k, "left")
    if x <= x_l or not spec.segments:
        rr = seed
    else:
        t = interval_triple(spec, x_l, min(x, x_r), k, method, step)
        if x > x_r:
            # free stretch between support and x only adds phase to tau
            t = compose_triples(
                interval_triple(spec, x_r, x, k, method, step), t
            )
        rr = t.r_right + t.tau**2 * seed / (1.0 - t.r_left * seed)
    # reflection seen from x looking right
    seed = tail_reflection(spec.right_tail, k, "right")
    if x >= x_r or not spec.segments:
        rl = seed
    else:
        t = interval_triple(spec, max(x, x_l), x_r, k, method, step)
        if x < x_l:
            t = compose_triples(t, interval_triple(spec, x, x_l, k, method, step))
        rl = t.r_left + t.tau**2 * seed / (1.0 - seed * t.r_right)
    return rr, rl
