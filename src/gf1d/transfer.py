"""2x2 evolution matrices and transmission/reflection coefficients.

The wave amplitudes obey dU/dx = [[-ik, f(x)], [f(x), ik]] U with
U(y, y) = I.  The matrix entries are written as

    U = [[alpha(+k), beta(-k)], [beta(+k), alpha(-k)]],

which is unimodular: alpha(k) alpha(-k) - beta(k) beta(-k) = 1.
Transmission/reflection coefficients of an interval are

    tau = 1/alpha(k),  R_r = beta(k)/alpha(k),  R_l = -beta(-k)/alpha(k).

``Sweep`` is the propagation core the routes read: for one medium and one
k it composes these triples piece by piece with the two-interval formula
(the Redheffer star product), so R_r(x, -inf), R_l(+inf, x) and the triple
of [y, x] at every query point come from shared work.  It keeps a table of
the points it has met, and every reader takes entries of that table: a
span is read from two entries in either order (``Sweep.between``), a
reflection from one.  A reversed span is the inverse of its forward one.
``propagate``, ``invert``, ``compose`` and the matrix algebra are not on the
value path: they stay as the independent checks that ``verify`` runs.

A piece is a stretch between consecutive knots of the medium; f is linear
on it and read from its two end values (``PotentialSpec.ends``).  A piece
with equal end values is constant and takes the closed form; any other
needs ``method="rk4"``.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BranchUndefined,
    ConfigError,
    IntervalMismatch,
    ResonanceDivision,
    StepBudget,
    StepTooLarge,
    UnsupportedProfile,
)
from .potential import check_point, check_wavenumber

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
    "interval_triple",
    "Sweep",
]

RESONANCE_THRESHOLD = 1e-13
# largest step-doubling error of a stepped evolution, relative to its scale
STEP_ERROR_BOUND = 1e-6
# a closed-form constant piece switches to the series of cosh(z), sinh(z)/z
# below this |z| = |kappa dx| to avoid cancellation
KAPPA_SERIES_SWITCH = 1e-4
# a Magnus step takes cosh(q), sinh(q)/q from their series through q^10
# below this |q|, where the first omitted term is below 1e-20
MAGNUS_SERIES_SWITCH = 0.1
# largest growth exponent (Im k + max |f|) * width of one Magnus chunk: U
# grows at most like e^(that exponent), so a chunk's matrix stays finite
CHUNK_GROWTH = 20.0
# most fixed steps one piece may take, charged before any step is built: at
# this many, a Magnus piece takes about 0.04 s and 1 MB, a Riccati piece
# 0.35 s (2-core Xeon, Python 3.11)
STEP_BUDGET = 2**18
# most steps per block in ``riccati_coefficients``: its record of R_r stays
# this long whatever the pieces' lengths
_RICCATI_BLOCK = 1024
# steps per block of a Magnus panel: blocks are aligned at multiples of this
# power of two, so each is a whole subtree of the panel's pairwise product
_MAGNUS_BLOCK = 4096
# Taylor coefficients of cosh(q) and sinh(q) / q, side by side, from q^10 down
_COSH_SINHC_SERIES = np.array(
    [[1.0 / math.factorial(2 * j + p) for p in (0, 1)] for j in range(5, -1, -1)]
)[:, :, None, None]
# the identity an odd level of the two stacked Magnus products takes at its end
_EYE = np.tile(np.eye(2, dtype=complex)[:, :, None], (2, 1, 1, 1))


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
        """The entries of a 2x2 array, as Python ``complex``."""
        a, b, c, d = map(complex, (m[0, 0], m[1, 1], m[1, 0], m[0, 1]))
        return cls(a, b, c, d, tuple(interval), k)

    def as_matrix(self):
        return np.array(
            [[self.alpha_plus, self.beta_minus], [self.beta_plus, self.alpha_minus]],
            dtype=complex,
        )

    def unimodularity_residual(self):
        det = self.alpha_plus * self.alpha_minus - self.beta_plus * self.beta_minus
        return abs(det - 1.0)


# a tuple: apply_U reads its (tau, R_r, R_l) as t[:3], as from a sweep's span
class ScatteringTriple(NamedTuple):
    tau: complex
    r_right: complex
    r_left: complex
    interval: tuple
    k: complex


def _kappa(c, k):
    """sqrt(c**2 - k**2) on the branch Re > 0 for Im k > 0, continued to real k."""
    w, s = c * c - k * k, None
    if not cmath.isfinite(w):
        # |c| or |k| past about 1e154: c**2 - k**2 = s**2 ((c/s)**2 - (k/s)**2)
        # with s > 0 keeps the argument of w, and so the branch taken below
        s = max(abs(c), abs(k.real), abs(k.imag))
        c, k = c / s, k / s
        w = c * c - k * k
    if w == 0:
        raise BranchUndefined(f"branch point k**2 == c**2 at k={k}, c={c}")
    if k.imag == 0 and w.real < 0 and w.imag == 0:
        # limit from Im k -> 0+
        root = 1j * cmath.sqrt(-w)
        root = -root if k.real > 0 else root
    else:
        root = cmath.sqrt(w)
    return root if s is None else s * root


def _sqrt_radicand(c, k):
    """Principal sqrt(c**2 - k**2), scaled as in ``_kappa`` where the
    difference overflows."""
    w = c * c - k * k
    if cmath.isfinite(w):
        return cmath.sqrt(w)
    s = max(abs(c), abs(k.real), abs(k.imag))
    c, k = c / s, k / s
    return s * cmath.sqrt(c * c - k * k)


def constant_step_matrix(c, dx, k):
    """exp(dx * [[-ik, c], [c, ik]]) in closed form."""
    check_point(c, "c")
    check_point(dx, "dx")
    check_wavenumber(k)
    if c == 0:
        e = cmath.exp(-1j * k * dx)
        return np.array([[e, 0.0], [0.0, 1.0 / e]], dtype=complex)
    kap = _sqrt_radicand(c, k)
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


def propagate(spec, x1, x2, k, method="exact_piecewise", step=1e-3):
    """U(x2, x1) for the given medium.

    ``exact_piecewise`` composes closed-form matrix exponentials per
    constant piece; ``rk4`` steps every piece with fourth-order Magnus
    steps no wider than ``step`` (general profiles), held to the summed
    step-doubling error.  A U that leaves the float range raises
    ``ResonanceDivision``.
    """
    k, x1, x2 = check_wavenumber(k), check_point(x1, "x1"), check_point(x2, "x2")
    if x2 < x1:
        raise ConfigError("x2", f"propagate needs x1 <= x2, got [{x1}, {x2}]")
    if x2 == x1:
        return TransferMatrix.identity(x1, k)
    _check_method(method, step)
    u, err = np.eye(2, dtype=complex), 0.0
    nodes = spec.knots(x1, x2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(nodes, nodes[1:]):
                fa, fb = spec.ends(a, b)
                if method == "rk4":
                    _charge_steps(b - a, step)
                    m, e = _magnus_panel(fa, fb, a, b, k, step)
                elif fa == fb:
                    m, e = constant_step_matrix(fa, b - a, k), 0.0
                else:
                    raise _unsupported(a, b)
                u, err = m @ u, err + e
    except OverflowError:
        u = None
    if u is None or not np.all(np.isfinite(u)):
        raise ResonanceDivision(f"U leaves the float range on [{x1}, {x2}] at k = {k}")
    if err > STEP_ERROR_BOUND:
        raise StepTooLarge(
            f"rk4 step {step} too large: step-doubling error {err:.3e} "
            f"on [{x1}, {x2}]"
        )
    return TransferMatrix.from_matrix(u, (x1, x2), k)


def _unsupported(a, b):
    return UnsupportedProfile(f"f is not constant on [{a}, {b}]; use rk4")


def _check_step(step):
    if isinstance(step, bool) or not isinstance(step, numbers.Real) or not step > 0:
        raise ConfigError("step", f"must be a real number > 0, got {step!r}")


def _check_method(method, step):
    if method not in ("exact_piecewise", "rk4"):
        msg = f"must be 'exact_piecewise' or 'rk4', got {method!r}"
        raise ConfigError("method", msg)
    if method == "rk4":
        _check_step(step)


def _charge_steps(width, step):
    """A piece of this width takes at most STEP_BUDGET steps of ``step``."""
    if not width / step <= STEP_BUDGET:
        raise StepBudget(
            f"rk4 step {step} across a piece of width {width} takes "
            f"{width / step:.3g} steps, over the budget of {STEP_BUDGET}"
        )


def _step_count(width, step):
    return max(1, math.ceil(width / step))


def _magnus(fa, fb, dx, n, k):
    """Products of n and of n / 2 fourth-order Magnus steps (n even) across
    a panel of width dx on which f runs linearly from fa to fb.

    Each step of width h has Gauss nodes f1, f2 and the exponent
    Omega = a sx + b sy + c sz with a = h (f1 + f2) / 2,
    b = sqrt(3) h^2 k (f1 - f2) / 6 and c = -ikh, so that
    exp(Omega) = cosh(q) I + sinh(q) / q Omega with q^2 = a^2 + b^2 + c^2.
    On a linear f, (f1 + f2) / 2 is f at the step midpoint and
    f1 - f2 = -(fb - fa) / (n sqrt(3)) is the same for every step.  Rows
    hold the fine steps 2i and 2i + 1 and the coarse step i; folding the
    first two is the fine product's first level, and the passes, of equal
    length then, run the rest of it stacked.  Blocks of ``_MAGNUS_BLOCK``
    fine steps keep memory bounded.  (None, None) where a step's matrix
    leaves the float range.
    """
    rows = []  # the pass's steps, and the step midpoints (stride i + offset) / steps
    for steps, stride, offset in ((n, 2, 0.5), (n, 2, 1.5), (n // 2, 1, 0.5)):
        h = dx / steps
        b, c = -h * h * k * (fb - fa) / (6.0 * steps), -1j * k * h
        rows.append((steps, stride, offset, h, c, b * b + c * c, 1j * b))
    steps, stride, offset, h, c, bc, jb = (np.array(v)[:, None] for v in zip(*rows))
    blocks = []
    for lo in range(0, n, _MAGNUS_BLOCK):
        i = np.arange(lo // 2, min(lo + _MAGNUS_BLOCK, n) // 2)
        a = h * (fa + (fb - fa) * ((i * stride + offset) / steps))
        # cosh(q) and sinh(q) / q by one Horner pass over their series through
        # q^10, whose first omitted term is below 1e-20; past the switch by numpy
        q2 = a * a + bc
        cs = _COSH_SINHC_SERIES[0] * q2 + _COSH_SINHC_SERIES[1]
        for coefficient in _COSH_SINHC_SERIES[2:]:
            cs *= q2
            cs += coefficient
        big = np.abs(q2) >= MAGNUS_SERIES_SWITCH**2
        if big.any():
            q = np.sqrt(q2[big])
            cs[0][big], cs[1][big] = np.cosh(q), np.sinh(q) / q
        ch, shc = cs
        m = np.empty((3, 2, 2, len(i)), dtype=complex)
        m[:, 0, 0] = ch + shc * c
        m[:, 0, 1] = shc * (a - jb)
        m[:, 1, 0] = shc * (a + jb)
        m[:, 1, 1] = ch - shc * c
        if not np.isfinite(m).all():
            return None, None
        m[1] = _pair(m[1], m[0])
        blocks.append(_tree_product(m[1:]))
    u = blocks[0] if len(blocks) == 1 else _tree_product(np.concatenate(blocks, axis=3))
    return u[0, :, :, 0], u[1, :, :, 0]


def _pair(later, earlier):
    """later @ earlier for stacks of 2x2 matrices on the axes -3 and -2."""
    return (later[..., 0:1, :] * earlier[..., 0:1, :, :]
            + later[..., 1:2, :] * earlier[..., 1:2, :, :])


def _tree_product(m):
    """M_{n-1} ... M_1 M_0 of the steps m[p, :, :, j] of each pass p, as (p, 2, 2, 1).

    Neighbours are multiplied pairwise, later step on the left, level by
    level; an odd level takes an identity at its end.  Each level is two
    elementwise products and a sum: stacked ``@`` costs about five times as
    much on 2x2 matrices, and ``np.einsum`` rounds its complex sums of
    products up to a few ulp off, which drifted 4e-13 over 12293 steps.
    """
    while m.shape[3] > 1:
        if m.shape[3] % 2:
            m = np.concatenate((m, _EYE), axis=3)
        m = _pair(m[..., 1::2], m[..., 0::2])
    return m


def _magnus_panel(fa, fb, a, b, k, step):
    """U over a panel [a, b] on which f runs linearly from fa to fb, with its
    step-doubling error.

    The error estimate is |U_h - U_2h| / 15 for an even step count, relative
    to max(1, max |U_h|).  Steps whose matrices leave the float range (the
    exponent's square overflows at a huge |k| h) raise ``StepTooLarge``; a
    product of finite steps that overflows comes out NaN, for the caller.
    """
    n = 2 * _step_count(b - a, 2.0 * step)
    with np.errstate(over="ignore", invalid="ignore"):
        u, coarse = _magnus(fa, fb, b - a, n, k)
        if u is None:
            raise StepTooLarge(
                f"rk4 step {step} too large: the Magnus steps on "
                f"[{a}, {b}] leave the float range at k = {k}"
            )
        scale = max(1.0, float(np.max(np.abs(u))))
        err = float(np.max(np.abs(u - coarse))) / (15.0 * scale)
    return u, err


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
    t = _coefficients(m.alpha_plus, m.beta_plus, m.beta_minus, m.interval)
    return ScatteringTriple(*t, interval=m.interval, k=m.k)


def _coefficients(alpha, beta_plus, beta_minus, interval):
    """(tau, R_r, R_l) from the entries alpha(k), beta(k), beta(-k) of U."""
    if abs(alpha) < RESONANCE_THRESHOLD:
        raise ResonanceDivision(
            f"|alpha| = {abs(alpha):.3e} below threshold on {interval}"
        )
    return 1.0 / alpha, beta_plus / alpha, -beta_minus / alpha


def interval_triple(spec, x1, x2, k, method="exact_piecewise", step=1e-3):
    """Scattering coefficients of [x1, x2]; x1 > x2 inverts the span of [x2, x1]."""
    sweep = Sweep(spec, k, method, step)
    x1, x2 = check_point(x1, "x1"), check_point(x2, "x2")
    t = sweep.between(*sweep.points((x1, x2)))
    return ScatteringTriple(*t[:3], (x1, x2), sweep.k)


def riccati_coefficients(spec, x1, x2, k, step=1e-3):
    """Integrate the first-order equations for (R_r, tau, R_l) from x1 to x2.

    Classical RK4 at a fixed step no wider than ``step``, split at the
    breakpoints so each piece sees a linear f.  Only R_r obeys a nonlinear
    (Riccati) equation, R_r' = 2ik R_r + f (1 - R_r^2); tau' = (ik - f R_r)
    tau and R_l' = -f tau^2 read R_r but never feed back into it.  So R_r
    alone is stepped in scalar Python, recording its value at the start of
    each step; its stage values are formed again from those as arrays.
    With them, an RK4 step is linear in tau: it multiplies tau by a factor
    g_n and adds tau_n^2 w_n to R_l, and g_n, w_n are formed as arrays, tau
    as their running product.  The iterates are those of the coupled RK4
    loop in exact arithmetic.  The record is kept per block of at most
    ``_RICCATI_BLOCK`` steps, so memory does not grow with the length.

    It shares no code with ``Sweep``, ``propagate`` or the Magnus stepper,
    so it checks them.  Before any step, the RK4 error bound
    sum n z^5 / 120 over the pieces, with z = (2|k| + 2 max|f|) h, is held
    to ``STEP_ERROR_BOUND``; past it, or where |R_r| leaves the unit disk,
    ``StepTooLarge`` is raised.  Coefficients that leave the float range
    raise ``ResonanceDivision``.
    """
    k, x1, x2 = check_wavenumber(k), check_point(x1, "x1"), check_point(x2, "x2")
    if x2 < x1:
        raise ConfigError("x2", f"needs x1 <= x2, got [{x1}, {x2}]")
    _check_step(step)
    nodes = spec.knots(x1, x2)
    # a block takes whole runs of a piece's steps while they fit in _RICCATI_BLOCK
    blocks, size = [], _RICCATI_BLOCK
    bound = 0.0
    for a, b in zip(nodes, nodes[1:]):
        _charge_steps(b - a, step)
        n = _step_count(b - a, step)
        fa, fb = spec.ends(a, b)
        h = (b - a) / n
        for lo in range(0, n, _RICCATI_BLOCK):
            hi = min(lo + _RICCATI_BLOCK, n)
            if size + hi - lo > _RICCATI_BLOCK:
                blocks.append([])
                size = 0
            blocks[-1].append((h, lo, hi, fa, (fb - fa) / n))
            size += hi - lo
        # z bounds h times the rate of each equation for |R_r| <= 1; the RK4
        # step of y' = lambda y misses exp(z) by z^5 / 120 at leading order
        z = (2.0 * abs(k) + 2.0 * max(abs(fa), abs(fb))) * h
        z2 = z * z  # products overflow to inf where z**5 raises
        bound += n * (z2 * z2 * z) / 120.0
    if not bound <= STEP_ERROR_BOUND:
        raise StepTooLarge(
            f"rk4 step {step} too large: RK4 error bound {bound:.3e} on [{x1}, {x2}]"
        )
    ik, ik2, two = 1j * k, 2j * k, 2.0 + 0j
    rr, tau, rl = 0j, 1.0 + 0j, 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            starts, fs = [], []  # R_r before each step; f at its start, middle, end
            record = starts.append
            for h, lo, hi, fa, df in block:
                # complex, as CPython makes each float before a mixed operation
                hc, hh, h6 = complex(h), complex(0.5 * h), complex(h / 6.0)
                f0 = fa + np.arange(lo, hi) * df
                fs.append(np.array([f0, f0 + 0.5 * df, f0 + df]))
                # each stage is R_r' = 2ik S + f (1 - S^2) = f + S (2ik - f S)
                for g0, gm, g1 in zip(*fs[-1].astype(complex).tolist()):
                    record(rr)
                    r1 = g0 + rr * (ik2 - g0 * rr)
                    s2 = rr + hh * r1
                    r2 = gm + s2 * (ik2 - gm * s2)
                    s3 = rr + hh * r2
                    r3 = gm + s3 * (ik2 - gm * s3)
                    s4 = rr + hc * r3
                    r4 = g1 + s4 * (ik2 - g1 * s4)
                    rr += h6 * (r1 + two * (r2 + r3) + r4)
            runs = np.cumsum([f.shape[1] for f in fs])
            h = np.repeat([run[0] for run in block], np.diff(runs, prepend=0))
            (f0, fm, f1), hh, h6 = np.concatenate(fs, axis=1), 0.5 * h, h / 6.0
            # S_j again: s_(j+1) = S_1 + w (g + S_j x), x = 2ik - g S_j, with S_j x as
            # Re x S_j + Im x (i S_j), products numpy rounds as CPython does
            s = [np.array(starts)]
            for g, w in ((f0, hh), (fm, hh), (fm, h)):
                x = ik2 - g * s[-1]
                s.append(s[0] + w * (g + (x.real * s[-1] + x.imag * (1j * s[-1]))))
            # stage j of tau is tau_n a_j p_j, with a_j = ik - f_j S_j at the
            # stage value S_j of R_r and p_j its argument over tau_n
            a1, a2 = ik - f0 * s[0], ik - fm * s[1]
            a3, a4 = ik - fm * s[2], ik - f1 * s[3]
            p2 = 1.0 + hh * a1
            p3 = 1.0 + hh * (a2 * p2)
            p4 = 1.0 + h * (a3 * p3)
            g = 1.0 + h6 * (a1 + 2.0 * a2 * p2 + 2.0 * a3 * p3 + a4 * p4)
            w = -h6 * (f0 + 2.0 * fm * (p2 * p2 + p3 * p3) + f1 * (p4 * p4))
            # tau before each step of the block, then after it; R_l run by run
            t = np.cumprod(np.concatenate(([tau], g)))
            tau, t2 = complex(t[-1]), t[:-1] * t[:-1]
            for tr, wr in zip(np.split(t2, runs[:-1]), np.split(w, runs[:-1])):
                rl += complex(np.dot(tr, wr))
    if not abs(rr) <= 1.0 + 1e-6:
        raise StepTooLarge(f"|R_r| = {abs(rr):.6f} escaped the unit disk")
    if not (cmath.isfinite(tau) and cmath.isfinite(rl)):
        raise ResonanceDivision(
            f"tau or R_l leaves the float range on [{x1}, {x2}] at k = {k}"
        )
    return ScatteringTriple(tau=tau, r_right=rr, r_left=rl, interval=(x1, x2), k=k)


def compose_triples(outer, inner):
    """Coefficients of the union interval: outer lies to the right of inner.

    The formula is the sweep's own, ``_star``.
    """
    t = _star((*outer[:3], 0.0), (*inner[:3], 0.0))
    return ScatteringTriple(*t[:3], (inner.interval[0], outer.interval[1]), outer.k)


def _tail_seed(c, k, side):
    """Limit reflection of a constant-f half line, c None for vacuum.

    ``side`` is "left" for R_r(edge, -inf) and "right" for R_l(+inf, edge).
    The seed (ik + kappa) / c is written as c / (kappa - ik), its equal since
    kappa**2 + k**2 = c**2: for |c| << |k| the first form cancels.
    """
    if c == 0 or c is None:
        return 0j
    seed = c / (_kappa(c, k) - 1j * k)
    return seed if side == "left" else -seed


def semi_infinite_coefficients(spec, x, k, method="exact_piecewise", step=1e-3):
    """(R_r(x, -inf), R_l(+inf, x)) for vacuum or constant tails."""
    sweep = Sweep(spec, k, method, step)
    (p,) = sweep.points((check_point(x, "x"),))
    return sweep.rr_of(p), sweep.rl_of(p)


def _constant_piece(c, dx, k):
    """(tau, R_r, R_l) of a constant-f piece of width dx, in E = e^{-kappa dx} only.

    With z = kappa dx, Re kappa >= 0 (so |E| <= 1), g = E cosh z and
    h = E sinh(z) / z, the evolution gives tau = E / (g - ik dx h) and
    R_r = -R_l = c dx h / (g - ik dx h).  A large Re z underflows E, and
    with it tau, to zero instead of overflowing cosh.
    """
    if c == 0:
        return cmath.exp(1j * k * dx), 0j, 0j
    z = _sqrt_radicand(c, k) * dx
    e = cmath.exp(-z)
    if abs(z) < KAPPA_SERIES_SWITCH:
        z2 = z * z
        g = e * (1.0 + z2 / 2.0 + z2 * z2 / 24.0)
        h = e * (1.0 + z2 / 6.0 + z2 * z2 / 120.0)
    else:
        g = 0.5 * (1.0 + e * e)
        # past Re z = 20, sinh may overflow while 1 - E**2 has no cancellation
        h = e * cmath.sinh(z) / z if z.real < 20.0 else (1.0 - e * e) / (2.0 * z)
    den = g - 1j * k * dx * h
    if abs(den) <= RESONANCE_THRESHOLD * abs(e):
        raise ResonanceDivision(f"|alpha| below threshold on a piece of width {dx}")
    r = c * dx * h / den
    return e / den, r, -r


# (tau, R_r, R_l, step-doubling error) of an empty interval
_IDENTITY = (1.0 + 0j, 0j, 0j, 0.0)


def _star(outer, inner):
    """Two-interval composition of (tau, R_r, R_l, error): outer lies right of inner.

    A half line enters as a tail triple, tau = 0 with its reflection seed.
    """
    to, ro_r, ro_l, do = outer
    ti, ri_r, ri_l, di = inner
    d = 1.0 - ro_l * ri_r
    tt = to * ti
    # |alpha| of the union is |d / tt|
    if abs(d) <= RESONANCE_THRESHOLD * abs(tt):
        raise ResonanceDivision(_below_threshold(d, tt))
    return (tt / d, ro_r + to * to * ri_r / d, ri_l + ti * ti * ro_l / d, do + di)


def _reverse(t):
    """(tau, R_r, R_l, error) of U^-1 from the same of an evolution U.

    det U = 1 gives alpha(-k) = delta / tau with delta = tau^2 - R_r R_l, so
    tau' = tau / delta, R_r' = -R_r / delta and R_l' = -R_l / delta.  The
    step-doubling error of the forward triple carries over unchanged.
    """
    # as Python complex an overflow gives inf, not a numpy RuntimeWarning
    tau, rr, rl = complex(t[0]), complex(t[1]), complex(t[2])
    delta = tau * tau - rr * rl
    # |alpha| of the reversed interval is |delta / tau|
    if abs(delta) <= RESONANCE_THRESHOLD * abs(tau):
        raise ResonanceDivision(_below_threshold(delta, tau))
    out = (tau / delta, -rr / delta, -rl / delta)
    if not all(map(cmath.isfinite, out)):
        raise ResonanceDivision(
            f"|tau| = {abs(tau):.3e}: the reversed transmission overflows"
        )
    return out + (t[3],)


def _below_threshold(num, den):
    """Message for |alpha| = |num / den| at or below the threshold."""
    # den == 0 passes the guard only with num == 0
    alpha = f"{abs(num / den):.3e}" if den else "0 / 0"
    return f"|alpha| = {alpha} below threshold"


class _Point:
    """A query point's entry in a sweep's table.

    ``i`` indexes the first breakpoint at or right of x and ``j`` the last
    at or left of it.  The rest is filled when a reader first needs it:
    ``heads`` is x's side, its span to each breakpoint j >= i; ``left`` is
    the piece from breakpoint j to x and ``right`` the piece from x to
    breakpoint i; ``rr`` and ``rl`` are R_r(x, -inf) and R_l(+inf, x).
    """

    __slots__ = ("x", "i", "j", "heads", "left", "right", "rr", "rl")

    def __init__(self, x, i, j):
        self.x, self.i, self.j, self.heads = x, i, j, {}
        self.left = self.right = self.rr = self.rl = None


class Sweep:
    """Scattering data of one medium at one k, shared by every query point.

    Triples are composed from pieces: the pieces between consecutive
    breakpoints of the medium are shared by all points, and each query
    point adds the pieces to its neighbouring breakpoints.  A value at given
    points therefore depends on those points and the breakpoints only, not
    on the other points a sweep has served.  Constant pieces use the closed
    form in e^{-kappa dx}; non-constant pieces need ``method="rk4"``, which
    steps them by Magnus steps in chunks short enough for U to stay finite,
    and a span's value is held to the summed step-doubling error of its
    pieces.  A reversed interval (x1 > x2) is the inverse of the forward
    span of [x2, x1], so it shares that span and its error check.

    The sweep keeps a table with one entry per point it has met
    (``points``): the point's breakpoint indices, and, once read, its side
    (its span to each breakpoint right of it), its two end pieces and its
    two reflections.  Only ``points`` takes positions; every reader takes
    entries, and every span is composed by one method, ``between``, from
    two of them: a grid reads a row of spans by calling it along the row.
    The pieces and spans between breakpoints and the two tail seeds are
    kept beside the table, so a grid pays for each of them once.  A span
    between two query points is composed each time it is read, which a
    grid does once per pair, and a constant piece between them is not kept:
    the memory grows as the points times the breakpoints, not with the pairs.
    """

    def __init__(self, spec, k, method="exact_piecewise", step=1e-3):
        self.k = check_wavenumber(k)
        _check_method(method, step)
        self.spec = spec
        self.method = method
        self.step = step
        self._bps = spec.breakpoints()
        self._pieces = {}
        self._rows = {}  # breakpoint index i -> [span(b_i, b_j) for j >= i]
        self._table = {}  # point -> its _Point
        # R_r at the left edge and R_l at the right edge of the medium, from
        # each tail alone, computed when first read.  They are attributes set
        # here, not cached properties: a cached property writes the sweep's
        # __dict__ after __init__, and on CPython 3.11 every later attribute
        # read on the sweep then goes through that dict, about 1.7x slower.
        self._left_seed = self._right_seed = None

    def _piece(self, a, b):
        """Triple of [a, b], which no breakpoint splits, memoized."""
        t = self._pieces.get((a, b))
        if t is None:
            t = self._pieces[(a, b)] = self._unsplit(a, b)
        return t

    def _unsplit(self, a, b):
        """Triple of [a, b], which no breakpoint splits."""
        fa, fb = self.spec.ends(a, b)
        if fa == fb:
            return _constant_piece(fa, b - a, self.k) + (0.0,)
        if self.method == "rk4":
            return self._stepped(a, b, fa, fb)
        raise _unsupported(a, b)

    def _stepped(self, a, b, fa, fb):
        """Triple of a non-constant piece by Magnus steps, in equal chunks.

        Each chunk keeps (Im k + max |f|) * width within CHUNK_GROWTH, so its
        matrix stays finite; the chunks' triples are composed by ``_star``.
        """
        _charge_steps(b - a, self.step)
        growth = (abs(self.k.imag) + max(abs(fa), abs(fb))) * (b - a)
        n = max(1, math.ceil(growth / CHUNK_GROWTH))
        edges = [a + (b - a) * i / n for i in range(n)] + [b]
        t = None
        for lo, hi in zip(edges, edges[1:]):
            fl, fh = self.spec.ends(lo, hi)
            u, err = _magnus_panel(fl, fh, lo, hi, self.k, self.step)
            # divided as numpy scalars, whose quotients round unlike Python's,
            # then kept as Python complex like every other triple of the sweep
            s = _coefficients(u[0, 0], u[1, 0], u[0, 1], (lo, hi))
            chunk = (complex(s[0]), complex(s[1]), complex(s[2]), err)
            t = chunk if t is None else _star(chunk, t)
        return t

    def _row(self, i, j):
        """Span from breakpoint i to breakpoint j >= i, extending row i as needed."""
        bps = self._bps
        row = self._rows.setdefault(i, [_IDENTITY])
        while len(row) <= j - i:
            n = i + len(row) - 1
            row.append(_star(self._piece(bps[n], bps[n + 1]), row[-1]))
        return row[j - i]

    def points(self, xs):
        """The table entries of the points xs, in order, each made when the
        sweep first meets its point; a zero is keyed with its sign, so a
        message names x as the caller wrote it."""
        table, bps, entries = self._table, self._bps, []
        for x in xs:
            key = x if x else (x, math.copysign(1.0, x))
            p = table.get(key)
            if p is None:
                i, j = bisect.bisect_left(bps, x), bisect.bisect_right(bps, x) - 1
                p = table[key] = _Point(x, i, j)
            entries.append(p)
        return entries

    def between(self, q, p):
        """(tau, R_r, R_l, error) of [y, x] from the entries q of y and p of
        x, held to the error bound; y > x inverts the span of [x, y].

        A span across breakpoints is piece(b_j, x) * head with the head
        row(i, j) * piece(y, b_i), as ``_star`` composes them.  y's head at
        each j is kept in its side, so each is composed once per sweep, by
        the same calls in the same order as for a lone span, and every span
        has the same bits whatever the sweep read before.
        """
        y, x = q.x, p.x
        if y > x:
            return _reverse(self.between(p, q))
        if x == y:
            t = _IDENTITY
        elif q.i > p.j:
            # a grid reads a span between two query points once (twice
            # with --check): only a stepped one is worth keeping
            t = self._piece(y, x) if self.method == "rk4" else self._unsplit(y, x)
        else:
            bps, j = self._bps, p.j
            t = q.heads.get(j)
            if t is None:
                t = self._row(q.i, j)
                if y < bps[q.i]:
                    if q.right is None:
                        q.right = self._unsplit(y, bps[q.i])
                    t = _star(t, q.right)
                q.heads[j] = t
            if bps[j] < x:
                if p.left is None:
                    p.left = self._unsplit(bps[j], x)
                t = _star(p.left, t)
        if not t[3] <= STEP_ERROR_BOUND:
            raise StepTooLarge(
                f"rk4 step {self.step} too large: summed step-doubling error "
                f"{t[3]:.3e} on [{y}, {x}]"
            )
        return t

    def rr_of(self, p):
        """R_r(x, -inf) of a table entry, computed when first read."""
        if p.rr is None:
            if self._left_seed is None:
                self._left_seed = _tail_seed(self.spec.left_tail, self.k, "left")
            bps = self._bps
            if not bps or p.x <= bps[0]:
                p.rr = self._left_seed
            else:
                tail = (0j, self._left_seed, 0j, 0.0)
                p.rr = _star(self.between(*self.points(bps[:1]), p), tail)[1]
        return p.rr

    def rl_of(self, p):
        """R_l(+inf, x) of a table entry, computed when first read."""
        if p.rl is None:
            if self._right_seed is None:
                self._right_seed = _tail_seed(self.spec.right_tail, self.k, "right")
            bps = self._bps
            if not bps or p.x >= bps[-1]:
                p.rl = self._right_seed
            else:
                tail = (0j, 0j, self._right_seed, 0.0)
                p.rl = _star(tail, self.between(p, *self.points(bps[-1:])))[2]
        return p.rl
