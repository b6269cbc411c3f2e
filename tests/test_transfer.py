import bisect
import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gf1d import transfer
from gf1d.errors import (
    BranchUndefined,
    ConfigError,
    Gf1dError,
    IntervalMismatch,
    ResonanceDivision,
    StepBudget,
    StepTooLarge,
    UnsupportedProfile,
)
from gf1d.green import green_closed_form
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    SampledProfile,
    Segment,
    slab,
)
from gf1d.sl3 import green_wronskian
from gf1d.transfer import (
    _MAGNUS_BLOCK,
    _RICCATI_BLOCK,
    MAGNUS_SERIES_SWITCH,
    STEP_BUDGET,
    Sweep,
    TransferMatrix,
    _charge_steps,
    _constant_piece,
    _reverse,
    compose,
    compose_triples,
    constant_step_matrix,
    interval_triple,
    invert,
    propagate,
    riccati_coefficients,
    scattering_coefficients,
    semi_infinite_coefficients,
)


def expm_oracle(c, dx, k):
    return expm(dx * np.array([[-1j * k, c], [c, 1j * k]], dtype=complex))


def test_vacuum_is_pure_phase():
    m = propagate(PotentialSpec(), 0.0, 1.0, 1.0)
    assert abs(m.alpha_plus - cmath.exp(-1j)) < 1e-15
    assert abs(m.alpha_minus - cmath.exp(1j)) < 1e-15
    assert m.beta_plus == 0 and m.beta_minus == 0
    t = scattering_coefficients(m)
    assert abs(t.tau - cmath.exp(1j)) < 1e-15
    assert t.r_right == 0 and t.r_left == 0


@pytest.mark.parametrize("c", [0.8, -1.5, 2.0])
@pytest.mark.parametrize("k", [1.0, 0.4 + 0.9j, 2.5 + 0.1j])
def test_constant_step_matches_expm(c, k):
    got = constant_step_matrix(c, 0.7, k)
    want = expm_oracle(c, 0.7, k)
    assert np.max(np.abs(got - want)) < 1e-12


def test_series_switchover_is_continuous():
    # kappa*dx straddling the switch threshold must agree with expm
    k = 1.0
    for c in (1.0 + 1e-5, 1.0 + 1e-9):
        dx = 0.01
        got = constant_step_matrix(c, dx, k)
        want = expm_oracle(c, dx, k)
        assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize(
    "c, dx, k",
    [
        (0.8, 0.7, 1.0),
        (-1.5, 0.7, 0.4 + 0.9j),
        (2.0, 3.0, 2.5 + 0.1j),
        (1.0 + 1e-9, 0.01, 1.0),  # kappa dx below the series switch
        (1.0, 0.5, 1.0),  # kappa = 0
        (3.0, 8.0, 0.5 + 0.2j),  # Re z = 24: past the sinh branch
    ],
)
def test_constant_piece_matches_expm(c, dx, k):
    u = expm_oracle(c, dx, k)
    tau, r_right, r_left = _constant_piece(c, dx, k)
    assert abs(tau - 1.0 / u[0, 0]) < 1e-13
    assert abs(r_right - u[1, 0] / u[0, 0]) < 1e-13
    assert abs(r_left + u[0, 1] / u[0, 0]) < 1e-13


def test_multi_slab_against_expm_product():
    spec = PotentialSpec(
        segments=(
            Segment(0.0, 0.4, ConstantProfile(1.2)),
            Segment(0.4, 1.0, ConstantProfile(-0.7)),
        )
    )
    k = 1.3 + 0.2j
    got = propagate(spec, -0.5, 1.5, k).as_matrix()
    want = (
        expm_oracle(0.0, 0.5, k)
        @ expm_oracle(-0.7, 0.6, k)
        @ expm_oracle(1.2, 0.4, k)
        @ expm_oracle(0.0, 0.5, k)
    )
    assert np.max(np.abs(got - want)) < 1e-12


def test_exact_piecewise_rejects_varying_profile():
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.0, 1.0)),))
    with pytest.raises(UnsupportedProfile):
        propagate(spec, 0.0, 1.0, 1.0)


def test_rk4_matches_exact_for_slab():
    spec = slab(0.9, -0.3, 0.8)
    k = 0.7 + 0.4j
    a = propagate(spec, -0.3, 0.8, k).as_matrix()
    b = propagate(spec, -0.3, 0.8, k, method="rk4", step=1e-3).as_matrix()
    assert np.max(np.abs(a - b)) < 1e-9


def expm_refinement(f, length, k, n):
    """U(length, 0) as a product of n thin constant steps at midpoint values of f."""
    h = length / n
    u = np.eye(2, dtype=complex)
    for i in range(n):
        u = expm_oracle(f((i + 0.5) * h), h, k) @ u
    return u


def linear_or_sampled(fs, sampled, length):
    """A medium on [0, length]: one linear piece through the first and last
    of fs, or a sampled profile through all of them at equal spacing; with
    f on [0, length] for ``expm_refinement``."""
    xs = np.linspace(0.0, length, len(fs))
    if sampled:
        profile = SampledProfile(tuple(zip(xs.tolist(), fs)))
    else:
        xs, fs = [0.0, length], [fs[0], fs[-1]]
        profile = LinearProfile(fs[0], (fs[1] - fs[0]) / length)
    spec = PotentialSpec(segments=(Segment(0.0, length, profile),))
    return spec, lambda x: np.interp(x, xs, fs)


def test_rk4_linear_profile_against_expm_refinement():
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.5, -1.0)),))
    k = 1.1 + 0.3j
    got = propagate(spec, 0.0, 1.0, k, method="rk4", step=5e-4).as_matrix()
    want = expm_refinement(lambda x: 0.5 - x, 1.0, k, 4000)
    assert np.max(np.abs(got - want)) < 1e-6


def test_rk4_is_fourth_order_on_a_linear_profile():
    # halving the step cuts the error 16-fold; a wrong commutator sign or
    # misplaced Gauss nodes leave a second-order step (a factor of 4).  The
    # oracle's own error, about 3e-9, is a tenth of the finer step's.
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.5, -1.0)),))
    k = 1.1 + 0.3j
    want = expm_refinement(lambda x: 0.5 - x, 1.0, k, 8000)
    errs = [
        np.max(np.abs(propagate(spec, 0.0, 1.0, k, "rk4", step).as_matrix() - want))
        for step in (1 / 16, 1 / 32)
    ]
    assert 12 <= errs[0] / errs[1] <= 20


@settings(max_examples=30, deadline=None)
@given(
    fs=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
    sampled=st.booleans(),
    length=st.floats(0.2, 1.5),
    k_re=st.floats(0.2, 3.0),
    k_im=st.floats(0.0, 2.0),
    step=st.floats(1e-3, 0.1),
)
def test_rk4_is_accurate_or_raises(fs, sampled, length, k_re, k_im, step):
    # the stepped evolution either agrees with the expm refinement or raises
    # StepTooLarge, never a silent wrong value
    spec, f = linear_or_sampled(fs, sampled, length)
    k = complex(k_re, k_im)
    try:
        got = propagate(spec, 0.0, length, k, "rk4", step).as_matrix()
    except StepTooLarge:
        return
    want = expm_refinement(f, length, k, 3000)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < 1e-5


def test_compose_and_invert():
    spec = slab(1.1, 0.0, 1.0)
    k = 0.9 + 0.5j
    m1 = propagate(spec, 0.0, 0.6, k)
    m2 = propagate(spec, 0.6, 1.0, k)
    whole = propagate(spec, 0.0, 1.0, k)
    assert np.max(np.abs(compose(m2, m1).as_matrix() - whole.as_matrix())) < 1e-13
    prod = compose(whole, invert(whole)).as_matrix()
    assert np.max(np.abs(prod - np.eye(2))) < 1e-13
    with pytest.raises(IntervalMismatch):
        compose(m1, m2)


def test_propagate_over_an_empty_interval_is_the_identity():
    k = 0.9 + 0.5j
    m = propagate(slab(1.1, 0.0, 1.0), 0.4, 0.4, k)
    assert m == TransferMatrix.identity(0.4, k)


def test_compose_at_two_wavenumbers_is_refused():
    spec = slab(1.1, 0.0, 1.0)
    left = propagate(spec, 0.6, 1.0, 0.9 + 0.5j)
    right = propagate(spec, 0.0, 0.6, 0.9 + 0.4j)
    with pytest.raises(IntervalMismatch, match="wavenumbers differ"):
        compose(left, right)


def test_inverse_swaps_k_sign_entries():
    m = propagate(slab(0.8, 0.0, 1.0), 0.0, 1.0, 1.2)
    mi = invert(m)
    assert mi.alpha_plus == m.alpha_minus
    assert mi.beta_plus == -m.beta_plus
    assert np.max(np.abs(mi.as_matrix() @ m.as_matrix() - np.eye(2))) < 1e-14


def test_resonance_division_raised():
    m = TransferMatrix(0.0, 1e30, 1.0, 1.0, (0.0, 1.0), 1.0)
    with pytest.raises(ResonanceDivision):
        scattering_coefficients(m)


def test_triple_composition_formula():
    spec = PotentialSpec(
        segments=(
            Segment(0.0, 0.5, ConstantProfile(1.4)),
            Segment(0.5, 1.2, ConstantProfile(-0.6)),
        )
    )
    k = 1.7 + 0.1j
    whole = interval_triple(spec, 0.0, 1.2, k)
    inner = interval_triple(spec, 0.0, 0.5, k)
    outer = interval_triple(spec, 0.5, 1.2, k)
    got = compose_triples(outer, inner)
    assert abs(got.tau - whole.tau) < 1e-13
    assert abs(got.r_right - whole.r_right) < 1e-13
    assert abs(got.r_left - whole.r_left) < 1e-13


def test_reversed_interval_coefficients():
    spec = slab(0.8, 0.0, 1.0)
    k = 1.0 + 0.2j
    fwd = interval_triple(spec, 0.0, 1.0, k)
    rev = interval_triple(spec, 1.0, 0.0, k)
    # the reverse transmission is 1/alpha(-k); check via the matrix
    m = propagate(spec, 0.0, 1.0, k)
    assert abs(rev.tau - 1.0 / m.alpha_minus) < 1e-14
    assert fwd.interval == (0.0, 1.0) and rev.interval == (1.0, 0.0)
    # all three against the inverted matrix, on a span that crosses pieces
    spec = PotentialSpec(
        segments=tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in _ORACLE_PIECES)
    )
    for x_lo, x_hi in ((-1.0, 1.3), (-2.0, 0.1), (0.2, 0.3)):
        rev = interval_triple(spec, x_hi, x_lo, k)
        want = scattering_coefficients(invert(propagate(spec, x_lo, x_hi, k)))
        assert abs(rev.tau - want.tau) < 1e-12
        assert abs(rev.r_right - want.r_right) < 1e-12
        assert abs(rev.r_left - want.r_left) < 1e-12


def test_riccati_matches_matrix_route():
    spec = PotentialSpec(
        segments=(
            Segment(-0.4, 0.1, ConstantProfile(1.0)),
            Segment(0.1, 0.7, ConstantProfile(-1.3)),
        )
    )
    k = 1.4 + 0.6j
    ode = riccati_coefficients(spec, -0.4, 0.7, k, step=1e-3)
    ref = interval_triple(spec, -0.4, 0.7, k)
    assert abs(ode.tau - ref.tau) < 1e-9
    assert abs(ode.r_right - ref.r_right) < 1e-9
    assert abs(ode.r_left - ref.r_left) < 1e-9


def coupled_riccati(spec, x1, x2, k, step):
    """(tau, R_r, R_l) by classical RK4 on the three coupled equations, one
    scalar step at a time: the reference for the split stepper."""
    k = complex(k)
    ik, ik2 = 1j * k, 2j * k

    def rhs(f, rr, tau):
        return ik2 * rr + f * (1.0 - rr * rr), (ik - f * rr) * tau, -f * tau * tau

    rr, tau, rl = 0j, 1.0 + 0j, 0j
    nodes = spec.knots(x1, x2)
    for a, b in zip(nodes, nodes[1:]):
        n = max(1, math.ceil((b - a) / step))
        fa, fb = spec.ends(a, b)
        h, df = (b - a) / n, (fb - fa) / n
        for i in range(n):
            f0 = fa + i * df
            fm, f1 = f0 + 0.5 * df, f0 + df
            r1, t1, l1 = rhs(f0, rr, tau)
            r2, t2, l2 = rhs(fm, rr + 0.5 * h * r1, tau + 0.5 * h * t1)
            r3, t3, l3 = rhs(fm, rr + 0.5 * h * r2, tau + 0.5 * h * t2)
            r4, t4, l4 = rhs(f1, rr + h * r3, tau + h * t3)
            rr += h / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            tau += h / 6.0 * (t1 + 2.0 * t2 + 2.0 * t3 + t4)
            rl += h / 6.0 * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return tau, rr, rl


_LINEAR = PotentialSpec(segments=(Segment(0.0, 1.5, LinearProfile(0.3, -0.8)),))
# pieces of widths 0.3, 0.4 and 0.5: each has its own step
_SAMPLED = PotentialSpec(
    segments=(
        Segment(
            0.0, 1.2, SampledProfile(((0.0, 0.4), (0.3, -0.9), (0.7, 0.2), (1.2, 1.0)))
        ),
    )
)
_MIXED = PotentialSpec(
    segments=(
        Segment(-0.4, 0.1, ConstantProfile(1.0)),
        Segment(0.1, 0.7, ConstantProfile(-1.3)),
        Segment(0.7, 1.0, LinearProfile(-1.3, 2.0)),
    ),
    left_tail=0.3,
)


@pytest.mark.parametrize("k", [1.3, 1.3 + 0.7j, 0.6 + 2.0j])
@pytest.mark.parametrize(
    "spec, x1, x2, step",
    [
        (_LINEAR, 0.0, 1.5, 1e-3),
        (_SAMPLED, 0.1, 1.2, 7e-3),
        (slab(0.9, -0.3, 0.8), -0.3, 0.8, 1e-3),
        (_MIXED, -0.6, 0.9, 2e-3),
        (_MIXED, 0.3, 0.3, 1e-3),
        (_LINEAR, 0.0, 1.5, 1.5 / (_RICCATI_BLOCK + 1000)),
    ],
    ids=["linear", "sampled", "constant", "several_pieces", "empty", "over_a_block"],
)
def test_riccati_matches_the_coupled_loop(spec, x1, x2, step, k):
    got = riccati_coefficients(spec, x1, x2, k, step=step)
    want = coupled_riccati(spec, x1, x2, k, step)
    for g, w in zip((got.tau, got.r_right, got.r_left), want):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


@pytest.mark.parametrize("k, step", [(30.0, 0.1), (1000.0, 1e-3), (1e300, 1e-3)])
def test_riccati_names_a_step_too_large(k, step):
    # explicit RK4 is unstable past |k| h ~ 2.8: the first two returned
    # tau = nan and |tau| = 0.0022 on a medium nearly transparent at k = 1000
    spec = PotentialSpec(segments=(Segment(-0.5, 0.5, LinearProfile(0.2, 0.6)),))
    with pytest.raises(StepTooLarge):
        riccati_coefficients(spec, -0.5, 0.5, k, step=step)


_S = slab(0.5, -1.0, 1.0)


@pytest.mark.parametrize(
    "call, field",
    [
        # _kappa and _sqrt_radicand recursed on a NaN k until RecursionError
        (lambda: interval_triple(_S, 0.0, 0.5, math.nan), "k"),
        (lambda: propagate(_S, 0.0, 0.5, math.nan), "k"),
        # a NaN triple
        (lambda: interval_triple(_S, 0.0, math.inf, 1.0), "x2"),
        # a finite wrong pair, and NaN at either infinity
        (lambda: semi_infinite_coefficients(_S, math.nan, 1.0), "x"),
        (lambda: semi_infinite_coefficients(_S, math.inf, 1.0), "x"),
        (lambda: semi_infinite_coefficients(_S, -math.inf, 1.0), "x"),
        # a plain OverflowError, and a plain ValueError
        (lambda: riccati_coefficients(_S, 0.0, math.inf, 1.0), "x2"),
        (lambda: riccati_coefficients(_S, math.nan, 0.0, 1.0), "x1"),
        # Im k < 0, where tau = e^{ikx} grows to e^720 over a width of 72
        (lambda: interval_triple(_S, 0.0, 0.5, 1.0 - 0.1j), "k"),
        (lambda: semi_infinite_coefficients(_S, 0.0, 1.0 - 0.1j), "k"),
        (lambda: riccati_coefficients(PotentialSpec(), 0.0, 72.0, -10j, 8e-4), "k"),
        (lambda: Sweep(_S, math.nan), "k"),
    ],
    ids=[
        "interval-nan-k", "propagate-nan-k", "interval-inf-x", "semi-infinite-nan-x",
        "semi-infinite-inf-x", "semi-infinite-minus-inf-x", "riccati-inf-x",
        "riccati-nan-x", "interval-decaying-k", "semi-infinite-decaying-k",
        "riccati-decaying-k", "sweep-nan-k",
    ],
)
def test_entry_points_check_their_domain(call, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            call()
    assert err.value.field == field


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: constant_step_matrix(0.5, 1.0, math.nan), "k"),
        # a NaN matrix
        (lambda: constant_step_matrix(0.5, math.inf, 1.0), "dx"),
    ],
    ids=["step-matrix-nan-k", "step-matrix-inf-dx"],
)
def test_public_helpers_check_their_input(call, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            call()
    assert err.value.field == field


_LINEAR = PotentialSpec((Segment(0.0, 1.0, LinearProfile(0.2, 0.6)),))


@pytest.mark.parametrize(
    "call",
    [
        # a numpy _ArrayMemoryError of 7.28 TiB on the sweep and in
        # propagate, and about 1e12 scalar Riccati steps
        lambda: interval_triple(_LINEAR, 0.0, 1.0, 1.3 + 0.2j, "rk4", 1e-12),
        lambda: propagate(_LINEAR, 0.0, 1.0, 1.3 + 0.2j, "rk4", 1e-12),
        lambda: riccati_coefficients(_LINEAR, 0.0, 1.0, 1.3 + 0.2j, 1e-12),
        # width / step overflows to inf
        lambda: riccati_coefficients(_LINEAR, 0.0, 1.0, 1.3 + 0.2j, 5e-324),
    ],
    ids=["sweep", "propagate", "riccati", "riccati-subnormal-step"],
)
def test_tiny_step_is_refused_before_any_step(call):
    start = time.perf_counter()
    with pytest.raises(StepBudget):
        call()
    assert time.perf_counter() - start < 0.5


def test_step_budget_admits_a_piece_at_the_budget():
    # checked without stepping: a full piece takes 0.04 s and 1 MB of Magnus
    # steps, or 0.35 s of Riccati steps
    _charge_steps(1.0, 1.0 / STEP_BUDGET)
    with pytest.raises(StepBudget):
        _charge_steps(1.0, 1.0 / (STEP_BUDGET + 1))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    fs=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
    sampled=st.booleans(),
    length=st.floats(0.2, 1.5),
    k_re=st.floats(0.2, 3.0),
    k_im=st.floats(0.0, 2.0),
    step=st.floats(1e-3, 0.02),
)
def test_riccati_is_accurate_or_raises(fs, sampled, length, k_re, k_im, step):
    spec, f = linear_or_sampled(fs, sampled, length)
    k = complex(k_re, k_im)
    try:
        got = riccati_coefficients(spec, 0.0, length, k, step)
    except StepTooLarge:
        return
    u = expm_refinement(f, length, k, 3000)
    want = scattering_coefficients(TransferMatrix.from_matrix(u, (0.0, length), k))
    for name in ("tau", "r_right", "r_left"):
        assert abs(getattr(got, name) - getattr(want, name)) < 1e-5


def test_riccati_memory_does_not_grow_with_the_step_count():
    # the stage record is kept per block of steps, not per piece
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.3, -0.5)),))
    peaks = []
    for n in (_RICCATI_BLOCK, 8 * _RICCATI_BLOCK):
        tracemalloc.start()
        try:
            riccati_coefficients(spec, 0.0, 1.0, 1.1 + 0.2j, step=1.0 / n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_magnus_memory_does_not_grow_with_the_step_count():
    # the steps are built and multiplied per block, not per piece
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.3, -0.5)),))
    peaks = []
    for n in (_MAGNUS_BLOCK, 8 * _MAGNUS_BLOCK):
        tracemalloc.start()
        try:
            propagate(spec, 0.0, 1.0, 1.1 + 0.2j, "rk4", step=1.0 / n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def magnus_stepwise(fa, fb, dx, n, k):
    """The Magnus product one step at a time: each step's exponential
    cosh(q) I + sinh(q) / q Omega in closed form through cmath."""
    h = dx / n
    b = -h * h * k * (fb - fa) / (6.0 * n)
    c = -1j * k * h
    u = np.eye(2, dtype=complex)
    for j in range(n):
        a = h * (fa + (fb - fa) * ((j + 0.5) / n))
        q = cmath.sqrt(a * a + b * b + c * c)
        ch, shc = cmath.cosh(q), cmath.sinh(q) / q
        step = np.array(
            [[ch + shc * c, shc * (a - 1j * b)], [shc * (a + 1j * b), ch - shc * c]]
        )
        u = step @ u
    return u


@pytest.mark.parametrize(
    "blocks, extra", [(0, 1), (0, 2), (0, 3), (0, 7), (1, 1), (3, 5)]
)
@pytest.mark.parametrize("k", [1.3, 1.3 + 0.2j, 0.4 + 1.0j])
def test_magnus_product_matches_a_stepwise_product(monkeypatch, blocks, extra, k):
    # the blocks are shrunk to 16 fine steps: over 3 * 4096 + 5 steps the
    # stepwise product itself drifts up to 5e-13 from a 40-digit one (at
    # k = 1.3 + 0.2j, cmath.cosh rounds these small q about 5e-17 low on
    # average), while _magnus stays within 8e-14 of it; the coarse product,
    # of half the steps, is held to its own stepwise product
    monkeypatch.setattr(transfer, "_MAGNUS_BLOCK", 16)
    n = 16 * blocks + extra
    fine, coarse = transfer._magnus(0.3, -0.5, 0.9, 2 * n, k)
    for got, steps in ((fine, 2 * n), (coarse, n)):
        want = magnus_stepwise(0.3, -0.5, 0.9, steps, k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
@pytest.mark.parametrize("f, k", [(0.0, 1.3), (0.7, 1.3 + 0.2j), (2.5, 0.4 + 1.0j)])
def test_magnus_step_agrees_with_cmath_at_the_series_switch(side, f, k):
    # one step on a constant f, with |q| just below and just above the
    # switch: the coarse product of a two-step panel
    kappa = cmath.sqrt(f * f - k * k)
    dx = side * MAGNUS_SERIES_SWITCH / abs(kappa)
    got = transfer._magnus(f, f, dx, 2, k)[1]
    want = magnus_stepwise(f, f, dx, 1, k)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


_PIN_K = 0.4 + 0.1j
_PINNED_MEDIA = {
    "linear": (PotentialSpec((Segment(0.0, 1.5, LinearProfile(0.3, -0.4)),)), 1.1, 0.35),
    "sampled": (PotentialSpec((Segment(0.0, 1.2, SampledProfile((
        (0.0, 0.2), (0.3, -0.3), (0.6, 0.1), (0.9, 0.3), (1.2, -0.1)))),)), 0.95, 0.2),
}
# each stepped value, captured before both passes of a Magnus panel were
# stacked and before the Riccati loop recorded R_r alone: route B, route A,
# U of propagate over the support, interval_triple of [y, x] and
# riccati_coefficients over the support
_PINNED = {
    ("linear", 0.001): (
        (0.11214428120667934-1.3085416122727145j),
        (0.11214428120667888-1.3085416122727096j),
        (0.9599863031801348-0.6643087069386857j),
        (0.7077943290191263+0.49350708317051317j),
        (-0.020286275474169127+0.08789451965647085j),
        (0.020286275474168947-0.0878945196564708j),
        (0.8861248882326548+0.2743140040738372j),
        (0.0010759338771746648+0.011127371128959911j),
        (-0.012060292114554963+0.007169180954234095j),
        (0.704380775962761+0.48743016532860667j),
        (-0.057131702707518967+0.05202306735022351j),
        (-0.05713170270752046+0.052023067350223995j),
    ),
    ("linear", 0.01): (
        (0.11214428119528524-1.3085416122790603j),
        (0.11214428119526605-1.308541612279063j),
        (0.9599863031863914-0.6643087069200454j),
        (0.7077943290302827+0.4935070831604855j),
        (-0.020286275470991107+0.08789451965159087j),
        (0.020286275470990975-0.08789451965159084j),
        (0.8861248882364877+0.27431400406761625j),
        (0.0010759338790882367+0.011127371127775109j),
        (-0.012060292112700014+0.007169180953139083j),
        (0.7043807759798306+0.48743016532086986j),
        (-0.057131702680104444+0.05202306734838925j),
        (-0.05713170269714481+0.05202306734934043j),
    ),
    ("sampled", 0.001): (
        (0.06343401160345197-1.1099175196204878j),
        (0.06343401160345194-1.1099175196204873j),
        (1.001078512332385-0.5224624792893486j),
        (0.7869464593065338+0.410961822734894j),
        (0.049970493238823306-0.025835927884422485j),
        (0.03751018815948539+0.024497705915281345j),
        (0.8853443988158743+0.2748590150110391j),
        (0.030891892205704333-0.013951965816834947j),
        (-0.007131238385395155-0.025516746639639622j),
        (0.7850825069464866+0.40973424958478105j),
        (0.04981682462933896+0.00019128751579981012j),
        (-0.019411043406536512-0.03460192917171767j),
    ),
    ("sampled", 0.01): (
        (0.06343401152955605-1.1099175196469095j),
        (0.06343401152955347-1.1099175196468916j),
        (1.0010785123685761-0.5224624791374545j),
        (0.7869464593881812+0.410961822643248j),
        (0.049970493240006776-0.025835927879662286j),
        (0.03751018816081426+0.02449770591188203j),
        (0.8853443988480261+0.2748590149587199j),
        (0.03089189220095629-0.01395196581324765j),
        (-0.007131238392117736-0.025516746634567846j),
        (0.7850825070329278+0.409734249490504j),
        (0.04981682463594323+0.00019128751520147306j),
        (-0.019411043412856033-0.03460192916867108j),
    ),
}


@pytest.mark.parametrize("medium, step", sorted(_PINNED))
def test_stepped_values_keep_their_bits(medium, step):
    spec, x, y = _PINNED_MEDIA[medium]
    x_l, x_r = spec.support
    k = _PIN_K
    u = propagate(spec, x_l, x_r, k, "rk4", step)
    triples = (
        interval_triple(spec, y, x, k, "rk4", step),
        riccati_coefficients(spec, x_l, x_r, k, step),
    )
    got = [
        green_closed_form(spec, x, y, k, "rk4", step).value,
        green_wronskian(spec, x, y, k, "rk4", step).value,
        u.alpha_plus, u.alpha_minus, u.beta_plus, u.beta_minus,
        *(v for t in triples for v in (t.tau, t.r_right, t.r_left)),
    ]
    assert list(map(repr, got)) == list(map(repr, _PINNED[(medium, step)]))


def test_riccati_stage_values_keep_the_loop_rounding():
    # the stage values of R_r are formed again as arrays: with numpy's
    # complex product, which may fuse a multiply and an add, the last bit of
    # R_l moves on this medium (one Riccati value in 800 of the benchmark's)
    points = ((0.0, 0.2957113861945009), (0.3988117649869395, 0.3411805485227555),
              (0.797623529973879, -0.43656961070088296),
              (1.1964352949608186, 0.9758446866468808), (1.595247059947758, 0.5601762760435467))
    spec = PotentialSpec((Segment(0.0, 1.595247059947758, SampledProfile(points)),))
    k = complex(2.0189009660776236, 0.4073900950415664)
    t = riccati_coefficients(spec, 0.0, 1.595247059947758, k)
    assert repr((t.tau, t.r_right, t.r_left)) == (
        "((-0.4884185778693344-0.03141242474291032j), "
        "(0.1834180659609819+0.21261566083162659j), "
        "(-0.14917875929183855+0.025497610369553676j))"
    )


def tail_seed(c, k, side="left"):
    """R_r(0, -inf) of a constant-c left half line, or R_l(+inf, 0) of a
    right one, read from a sweep's table."""
    sweep = Sweep(PotentialSpec(**{f"{side}_tail": c}), k)
    (p,) = sweep.points([0.0])
    return sweep.rr_of(p) if side == "left" else sweep.rl_of(p)


def test_tail_reflection_is_moebius_fixed_point():
    # widening a constant half line by one more slab leaves the seed fixed
    for c in (0.8, -1.2):
        for k in (1.5, 0.4 + 0.9j, 2.0 + 0.0j):
            seed = tail_seed(c, k, "left")
            t = interval_triple(slab(c, 0.0, 0.63), 0.0, 0.63, k)
            moved = t.r_right + t.tau**2 * seed / (1.0 - t.r_left * seed)
            assert abs(moved - seed) < 1e-12


def test_tail_reflection_branch():
    # |k| > |c| on the real axis: propagating waves, |R| < 1
    r = tail_seed(1.0, 3.0, "left")
    assert abs(r) < 1.0
    r2 = tail_seed(1.0, -3.0 + 0j, "left")
    assert abs(r2) < 1.0
    with pytest.raises(BranchUndefined):
        tail_seed(1.0, 1.0, "left")
    assert tail_seed(0.0, 1.0, "left") == 0
    assert tail_seed(None, 1.0, "right") == 0


def test_weak_tail_reflection_keeps_its_digits():
    # (ik + kappa) / c cancels for |c| << |k|: it was 100 % off for a tail of
    # -1e-8 and near 1e26 for one of 7e-44; to first order in c the seed is
    # c / (-2ik)
    for c in (1e-4, -1e-8, 7e-44):
        for k in (1.5 + 0.05j, 0.7 + 0j, 0.3 + 2.0j):
            want = c / (-2j * k)
            assert abs(tail_seed(c, k, "left") - want) <= 1e-8 * abs(want)


def test_semi_infinite_with_vacuum_tails_matches_support_edges():
    spec = slab(0.9, -0.5, 0.5)
    k = 1.1 + 0.3j
    rr, rl = semi_infinite_coefficients(spec, 0.2, k)
    t_left = interval_triple(spec, -0.5, 0.2, k)
    t_right = interval_triple(spec, 0.2, 0.5, k)
    assert abs(rr - t_left.r_right) < 1e-14
    assert abs(rl - t_right.r_left) < 1e-14
    # outside the support only transmission phase accumulates, so the
    # reflection seen from there includes the free propagation twice
    rr_out, _ = semi_infinite_coefficients(spec, 1.0, k)
    t_all = interval_triple(spec, -0.5, 1.0, k)
    assert abs(rr_out - t_all.r_right) < 1e-13


def test_semi_infinite_with_constant_tail():
    spec = PotentialSpec(
        segments=(Segment(0.0, 1.0, ConstantProfile(0.5)),),
        left_tail=0.8,
    )
    k = 1.3 + 0.4j
    rr, _ = semi_infinite_coefficients(spec, 0.0, k)
    assert abs(rr - tail_seed(0.8, k, "left")) < 1e-14
    # moving into the medium composes the slab piece with the tail seed
    rr_mid, _ = semi_infinite_coefficients(spec, 0.6, k)
    t = interval_triple(spec, 0.0, 0.6, k)
    seed = tail_seed(0.8, k, "left")
    want = t.r_right + t.tau**2 * seed / (1.0 - t.r_left * seed)
    assert abs(rr_mid - want) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(-2.0, 2.0),
    width=st.floats(0.05, 1.5),
    k_re=st.floats(0.2, 3.0),
    k_im=st.floats(0.0, 1.5),
)
def test_unimodular_and_reflection_bound(c, width, k_re, k_im):
    spec = slab(c, 0.0, width)
    k = complex(k_re, k_im)
    m = propagate(spec, 0.0, width, k)
    assert m.unimodularity_residual() < 1e-10
    try:
        t = scattering_coefficients(m)
    except ResonanceDivision:
        return
    assert abs(t.r_right) <= 1.0 + 1e-12
    assert abs(t.r_left) <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    c1=st.floats(-1.5, 1.5),
    c2=st.floats(-1.5, 1.5),
    split=st.floats(0.2, 0.8),
    k_re=st.floats(0.3, 2.5),
)
def test_composition_associativity_property(c1, c2, split, k_re):
    spec = PotentialSpec(
        segments=(
            Segment(0.0, 0.5, ConstantProfile(c1)),
            Segment(0.5, 1.0, ConstantProfile(c2)),
        )
    )
    k = complex(k_re, 0.3)
    a = propagate(spec, 0.0, split * 0.9, k)
    b = propagate(spec, split * 0.9, split, k)
    c = propagate(spec, split, 1.0, k)
    left = compose(compose(c, b), a).as_matrix()
    right = compose(c, compose(b, a)).as_matrix()
    assert np.max(np.abs(left - right)) < 1e-12


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan")])
def test_fixed_step_routes_reject_nonpositive_step(step):
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.1, 0.5)),))
    with pytest.raises(ConfigError):
        propagate(spec, 0.0, 1.0, 1.0, method="rk4", step=step)
    with pytest.raises(ConfigError):
        riccati_coefficients(spec, 0.0, 1.0, 1.0, step=step)


@pytest.mark.parametrize(
    "call",
    [
        lambda: riccati_coefficients(_LINEAR, 0.0, 1.0, 1.2, step=None),
        lambda: propagate(_LINEAR, 0.0, 1.0, 1.2, "rk4", step=1e-3 + 0j),
        lambda: interval_triple(_LINEAR, 0.0, 1.0, 1.2, "rk4", "0.01"),
        lambda: Sweep(_LINEAR, 1.2, "rk4", None),
        lambda: semi_infinite_coefficients(_LINEAR, 0.5, 1.2, method="rk4", step="x"),
        lambda: green_wronskian(_LINEAR, 0.7, 0.2, 1.2, method="rk4", step="0.01"),
    ],
    ids=["riccati", "propagate", "interval", "sweep", "semi-infinite", "wronskian"],
)
def test_a_step_that_is_not_a_real_number_is_a_config_error(call):
    # each raised a bare TypeError from comparing the step with 0
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.field == "step"


def test_unknown_method_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        propagate(slab(0.5), 0.0, 1.0, 1.0, method="euler")
    assert err.value.field == "method"


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(-3.0, 3.0),
    c2=st.floats(-3.0, 3.0),
    width=st.floats(0.5, 50.0),
    k_re=st.floats(0.1, 3.0),
    k_im=st.floats(0.0, 20.0),
)
def test_large_im_k_triples_stay_finite_and_bounded(c1, c2, width, k_re, k_im):
    # Im k times the length reaches about 1e3, where the matrix entries
    # overflow: the triples must underflow instead
    spec = PotentialSpec(
        segments=(
            Segment(0.0, 0.5 * width, ConstantProfile(c1)),
            Segment(0.5 * width, width, ConstantProfile(c2)),
        )
    )
    k = complex(k_re, k_im)
    try:
        t = interval_triple(spec, -1.0, width + 1.0, k)
        rr, rl = semi_infinite_coefficients(spec, 0.3 * width, k)
    except ResonanceDivision:
        return
    for v in (t.tau, t.r_right, t.r_left, rr, rl):
        assert cmath.isfinite(v)
    for r in (t.r_right, t.r_left, rr, rl):
        assert abs(r) <= 1.0 + 1e-12


# an oracle medium written out apart from gf1d: (x_start, x_end, f) with
# constant tails on both sides
_ORACLE_PIECES = ((-1.0, -0.2, 1.1), (-0.2, 0.5, -0.8), (0.5, 1.3, 0.4))
_ORACLE_TAILS = (0.6, -0.5)


def _oracle_generator(c, k):
    return np.array([[-1j * k, c], [c, 1j * k]], dtype=complex)


def _oracle_evolution(x1, x2, k):
    """U(x2, x1) as a product of expm over the constant stretches of [x1, x2]."""
    left, right = _ORACLE_TAILS
    stretches = [(-np.inf, _ORACLE_PIECES[0][0], left)]
    stretches += list(_ORACLE_PIECES)
    stretches.append((_ORACLE_PIECES[-1][1], np.inf, right))
    u = np.eye(2, dtype=complex)
    for a, b, c in stretches:
        lo, hi = max(a, x1), min(b, x2)
        if lo < hi:
            u = expm((hi - lo) * _oracle_generator(c, k)) @ u
    return u


def _tail_eigenvector(c, k, growing):
    """Eigenvector of a tail's generator that decays away from the medium."""
    w, v = np.linalg.eig(_oracle_generator(c, k))
    i = int(np.argmax(w.real)) if growing else int(np.argmin(w.real))
    return v[:, i]


@pytest.mark.parametrize("k", [1.3 + 0.2j, 0.45 + 0.35j])
def test_sweep_matches_expm_oracle(k):
    # R_r, R_l at every grid point and the triple of every grid pair, built
    # from expm products and the tail eigenvectors, never through the sweep;
    # the grid reaches into both constant tails
    spec = PotentialSpec(
        segments=tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in _ORACLE_PIECES),
        left_tail=_ORACLE_TAILS[0],
        right_tail=_ORACLE_TAILS[1],
    )
    grid = np.linspace(-2.0, 2.2, 15)
    far_left, far_right = grid[0] - 0.7, grid[-1] + 0.7
    v_left = _tail_eigenvector(_ORACLE_TAILS[0], k, growing=True)
    v_right = _tail_eigenvector(_ORACLE_TAILS[1], k, growing=False)
    sweep = Sweep(spec, k)
    for x in grid:
        w = _oracle_evolution(far_left, x, k) @ v_left
        assert abs(sweep.rr_of(*sweep.points([x])) - w[1] / w[0]) < 1e-12
        w = np.linalg.solve(_oracle_evolution(x, far_right, k), v_right)
        assert abs(sweep.rl_of(*sweep.points([x])) - w[0] / w[1]) < 1e-12
    for i, x1 in enumerate(grid):
        for x2 in grid[i:]:
            u = _oracle_evolution(x1, x2, k)
            tau, rr, rl, _ = sweep.between(*sweep.points((x1, x2)))
            assert abs(tau - 1.0 / u[0, 0]) < 1e-12
            assert abs(rr - u[1, 0] / u[0, 0]) < 1e-12
            assert abs(rl + u[0, 1] / u[0, 0]) < 1e-12


def test_sweep_values_do_not_depend_on_other_points():
    spec = PotentialSpec(
        segments=tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in _ORACLE_PIECES),
        left_tail=_ORACLE_TAILS[0],
    )
    k = 1.1 + 0.3j
    shared = Sweep(spec, k)
    for x in np.linspace(-1.5, 1.5, 7):
        (p,) = shared.points([x])
        shared.rr_of(p), shared.rl_of(p), shared.between(*shared.points((-1.5, x)))
    for x in np.linspace(-1.5, 1.5, 7):
        fresh = Sweep(spec, k)
        (p,), (f,) = shared.points([x]), fresh.points([x])
        want = shared.between(*shared.points((-1.5, x)))
        assert fresh.between(*fresh.points((-1.5, x))) == want
        assert fresh.rr_of(f) == shared.rr_of(p)
        assert fresh.rl_of(f) == shared.rl_of(p)


def test_tail_seeds_are_computed_once_per_sweep(monkeypatch):
    # the seeds depend on a tail and k alone: route B over a 12-point grid
    # at one k on a medium with two constant tails computed them 24 times
    from gf1d import transfer
    from gf1d.green import closed_form_at, green_closed_form

    spec = PotentialSpec(
        segments=tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in _ORACLE_PIECES),
        left_tail=_ORACLE_TAILS[0],
        right_tail=_ORACLE_TAILS[1],
    )
    k = 1.1 + 0.3j
    grid = np.linspace(-1.0, 1.0, 12)
    pairs = [(x, y) for i, x in enumerate(grid) for y in grid[: i + 1]]
    want = [green_closed_form(spec, x, y, k).value for x, y in pairs]
    calls = []
    seed = transfer._tail_seed
    monkeypatch.setattr(transfer, "_tail_seed", lambda *a: calls.append(a) or seed(*a))
    sweep = Sweep(spec, k)
    got = [closed_form_at(sweep, *sweep.points((y, x)))[0] for x, y in pairs]
    assert got == want
    assert len(calls) == 2


def test_rk4_span_is_held_to_the_summed_step_error():
    # f = 3x - 1.5 in three pieces at a coarse step: each piece's
    # step-doubling error (about 5e-7) is within the bound on its own; the
    # span over all three is held to the bound on their sum
    starts = (0.0, 0.5, 1.0)
    spec = PotentialSpec(
        segments=tuple(
            Segment(a, a + 0.5, LinearProfile(3.0 * a - 1.5, 3.0)) for a in starts
        )
    )
    sweep = Sweep(spec, 1.2 + 0.3j, method="rk4", step=0.05)
    for a in starts:
        sweep.between(*sweep.points((a, a + 0.5)))
    with pytest.raises(StepTooLarge):
        sweep.between(*sweep.points((0.0, 1.5)))


def _backward_evolution(pieces, tails, x_hi, x_lo, k):
    """U(x_lo, x_hi) for x_lo < x_hi, stepped down from x_hi by expm over the
    constant stretches; no inverse of a forward matrix is taken."""
    stretches = [(-np.inf, pieces[0][0], tails[0])] + list(pieces)
    stretches.append((pieces[-1][1], np.inf, tails[1]))
    u = np.eye(2, dtype=complex)
    for a, b, c in reversed(stretches):
        lo, hi = max(a, x_lo), min(b, x_hi)
        if lo < hi:
            u = expm(-(hi - lo) * _oracle_generator(c, k)) @ u
    return u


@settings(max_examples=150, deadline=None)
@given(
    cs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    widths=st.lists(st.floats(0.2, 15.0), min_size=3, max_size=3),
    tails=st.tuples(*[st.one_of(st.none(), st.floats(-2.0, 2.0))] * 2),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    k_re=st.floats(0.1, 3.0),
    k_im=st.floats(0.0, 20.0),
)
def test_reversed_interval_is_finite_or_named(cs, widths, tails, ends, k_re, k_im):
    # Im k times the length reaches about 1e3: the reversed triple inverts
    # a forward span whose tau may underflow, so it is either finite or a
    # named error
    edges = np.cumsum([-3.0] + widths[: len(cs)])
    pieces = [(a, b, c) for a, b, c in zip(edges, edges[1:], cs)]
    spec = PotentialSpec(
        segments=tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in pieces),
        left_tail=tails[0],
        right_tail=tails[1],
    )
    lo, hi = edges[0] - 3.0, edges[-1] + 3.0
    x_lo, x_hi = sorted(lo + (hi - lo) * e for e in ends)
    k = complex(k_re, k_im)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            t = interval_triple(spec, x_hi, x_lo, k)
        except Gf1dError:
            return
    got = (t.tau, t.r_right, t.r_left)
    assert all(cmath.isfinite(v) for v in got)
    assert t.interval == (x_hi, x_lo)
    cmax = max(abs(c) for c in list(cs) + [v or 0.0 for v in tails])
    if (k_im + cmax) * (x_hi - x_lo) > 20.0:
        return
    # where U stays within e^20 the expm product is an accurate oracle
    u = _backward_evolution(pieces, [v or 0.0 for v in tails], x_hi, x_lo, k)
    want = (1.0 / u[0, 0], u[1, 0] / u[0, 0], -u[0, 1] / u[0, 0])
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def test_reverse_names_an_overflowing_triple():
    # delta = -1e-310 passes the |alpha| guard, but R_r / delta overflows
    with pytest.raises(ResonanceDivision):
        _reverse((1e-300 + 0j, 1.0 + 0j, 1e-310 + 0j, 0.0))
    # the step-doubling error of the forward span carries over
    assert _reverse((0.5 + 0j, 0.1j, 0.2 + 0j, 3e-7))[3] == 3e-7


def test_long_rk4_piece_is_stepped_in_chunks():
    # (Im k + max |f|) * width is about 85, so the piece takes five chunks;
    # the matrix over the whole piece is still finite, so one Magnus run is
    # the reference
    spec = PotentialSpec(segments=(Segment(0.0, 12.0, LinearProfile(1.5, -0.2)),))
    k = 0.8 + 5.5j
    sweep = Sweep(spec, k, method="rk4", step=1e-3)
    tau, rr, rl, _ = sweep.between(*sweep.points((0.0, 12.0)))
    m = propagate(spec, 0.0, 12.0, k, method="rk4", step=1e-3)
    want = scattering_coefficients(m)
    assert abs(tau - want.tau) <= 1e-9 * abs(want.tau)
    assert abs(rr - want.r_right) < 1e-9
    assert abs(rl - want.r_left) < 1e-9


@pytest.mark.parametrize(
    "spec, x1, x2, method, step",
    [
        (PotentialSpec(), -30.0, 30.0, "exact_piecewise", 1e-3),
        (PotentialSpec(segments=(Segment(0.0, 60.0, LinearProfile(0.5, -0.01)),)),
         0.0, 60.0, "rk4", 1e-2),
    ],
    ids=["vacuum_exact", "linear_rk4"],
)
def test_propagate_names_an_overflowing_matrix(spec, x1, x2, method, step):
    # Im k * width = 1200: U leaves the float range; the closed form raised a
    # bare OverflowError and the Magnus product warned of overflow in matmul
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResonanceDivision):
            propagate(spec, x1, x2, 1 + 20j, method=method, step=step)


@pytest.mark.parametrize("k", [1e150, 1e300])
def test_propagate_names_a_step_too_large_at_a_huge_wavenumber(k):
    # the Magnus exponent's square overflows at k = 1e300: propagate named
    # the NaN matrix a ResonanceDivision, where the sweep names the step
    spec = PotentialSpec(segments=(Segment(-0.5, 0.5, LinearProfile(0.2, 0.6)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge):
            propagate(spec, -0.5, 0.5, k, method="rk4")


@pytest.mark.parametrize("k", [1e300, -1e300, 1e200 + 1e200j, 2e154 + 0.5j])
def test_huge_wavenumber_keeps_the_branch(k):
    # c**2 - k**2 overflows past |k| = 1.3e154; it used to give nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seed = tail_seed(0.5, k, "left")
        tau, rr, rl = _constant_piece(0.5, 0.3, complex(k))
        if k.imag == 0:  # the matrix itself leaves the float range at Im k > 0
            assert np.all(np.isfinite(constant_step_matrix(0.5, 0.3, complex(k))))
    # kappa -> -ik on the branch Re kappa >= 0, so the seed c / (kappa - ik)
    # tends to c / (-2ik)
    assert abs(seed - 0.5 / (-2j * k)) <= 1e-12 * abs(seed)
    assert all(map(cmath.isfinite, (tau, rr, rl)))
    assert abs(rr) <= 1e-150 and abs(tau) <= 1.0


def _span_reference(sweep, x1, x2):
    """A span composed on its own, as ``Sweep`` did before it kept each
    point's side: the reference for ``Sweep.between``."""
    bps = sweep._bps
    i = bisect.bisect_left(bps, x1)
    j = bisect.bisect_right(bps, x2) - 1
    if x1 == x2:
        return transfer._IDENTITY
    if i > j:
        return sweep._unsplit(x1, x2)
    t = sweep._row(i, j)
    if x1 < bps[i]:
        t = transfer._star(t, sweep._piece(x1, bps[i]))
    if bps[j] < x2:
        t = transfer._star(sweep._piece(bps[j], x2), t)
    return t


@st.composite
def _constant_rows(draw):
    """(spec, y, xs): 1-3 constant pieces with a constant left tail, and a
    row of points on breakpoints, between them and outside the support."""
    x, segs = draw(st.floats(-1.5, 0.0)), []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.floats(0.2, 1.2))
        segs.append(Segment(x, x + w, ConstantProfile(draw(st.floats(-1.5, 1.5)))))
        x += w
    tail = st.floats(-1.0, 1.0)
    spec = PotentialSpec(tuple(segs), draw(tail), draw(st.one_of(st.none(), tail)))
    bps = spec.breakpoints()
    points = sorted({
        *bps,
        *(0.5 * (a + b) for a, b in zip(bps, bps[1:])),
        bps[0] - 1.3, bps[0] - 0.6, bps[-1] + 0.4, bps[-1] + 1.1,
    })
    y = draw(st.sampled_from(points))
    right = [p for p in points if p >= y]
    xs = sorted(draw(st.lists(st.sampled_from(right), max_size=8)))
    return spec, y, xs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(row=_constant_rows(), k_re=st.floats(0.3, 2.5), k_im=st.floats(0.05, 1.0))
def test_row_spans_are_the_single_spans(row, k_re, k_im):
    # one sweep reads y's side of its spans once: every span keeps its bits,
    # in whichever order the row is read
    spec, y, xs = row
    k = complex(k_re, k_im)
    shared = Sweep(spec, k)
    got = [shared.between(*shared.points((y, x))) for x in xs]
    fresh = [Sweep(spec, k) for _ in xs]
    assert repr(got) == repr([s.between(*s.points((y, x))) for s, x in zip(fresh, xs)])
    assert repr(got) == repr([_span_reference(Sweep(spec, k), y, x) for x in xs])
    reverse = Sweep(spec, k)
    backwards = [reverse.between(*reverse.points((y, x))) for x in reversed(xs)]
    assert repr(backwards) == repr(got[::-1])


def test_a_second_span_from_a_point_reuses_its_side(monkeypatch):
    # the span from y = -0.6 to the breakpoint 0.5 below both x is composed
    # once per sweep: the second span adds only the piece from 0.5 to 1.1
    spec = PotentialSpec(
        tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in _ORACLE_PIECES)
    )
    k = 1.1 + 0.3j
    sweep = Sweep(spec, k)
    sweep.between(*sweep.points((-0.6, 0.8)))
    calls = []
    star = transfer._star
    monkeypatch.setattr(transfer, "_star", lambda *a: calls.append(a) or star(*a))
    got = sweep.between(*sweep.points((-0.6, 1.1)))
    assert len(calls) <= 1
    monkeypatch.undo()
    assert repr(got) == repr(_span_reference(Sweep(spec, k), -0.6, 1.1))


def test_stepped_values_are_python_complex():
    # the Magnus matrices' numpy scalars reached GreenValue.value and its repr
    from gf1d.green import green_closed_form

    k = 1.2 + 0.3j
    values = [
        green_closed_form(_LINEAR, 0.7, 0.2, k, method="rk4").value,
        green_wronskian(_LINEAR, 0.7, 0.2, k, method="rk4").value,
    ]
    for x1, x2 in ((0.2, 0.7), (0.7, 0.2)):
        t = interval_triple(_LINEAR, x1, x2, k, "rk4")
        values += [t.tau, t.r_right, t.r_left]
    assert all(type(v) is complex for v in values)
    assert "np." not in repr(green_closed_form(_LINEAR, 0.7, 0.2, k, method="rk4"))


def test_rk4_closed_form_steps_three_panels(monkeypatch):
    # [0, y], [y, x] and [x, L]: a row steps a piece only when a point lies
    # beyond it, so one pair on a one-segment linear medium takes three
    from gf1d.green import green_closed_form

    panels = []
    panel = transfer._magnus_panel
    monkeypatch.setattr(
        transfer, "_magnus_panel", lambda *a: panels.append(a[2:4]) or panel(*a)
    )
    spec = PotentialSpec((Segment(0.0, 1.0, LinearProfile(0.2, 0.6)),))
    green_closed_form(spec, 0.7, 0.2, 1.2 + 0.3j, method="rk4", step=0.01)
    assert sorted(panels) == [(0.0, 0.2), (0.2, 0.7), (0.7, 1.0)]


@pytest.mark.parametrize("method", ["exact_piecewise", "rk4"])
def test_propagated_matrices_are_python_complex(method):
    # TransferMatrix.from_matrix kept the numpy scalars of the matrix it
    # copied: propagate and scattering_coefficients printed np.complex128
    m = propagate(slab(0.8, -1, 1), -1, 1, 1.3 + 0.2j, method=method)
    t = scattering_coefficients(m)
    assert "np." not in repr(m)
    assert "np." not in repr(t)
    values = (m.alpha_plus, m.alpha_minus, m.beta_plus, m.beta_minus)
    assert all(type(v) is complex for v in values + (t.tau, t.r_right, t.r_left))
