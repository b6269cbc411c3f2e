import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gf1d.errors import (
    BranchUndefined,
    ConfigError,
    IntervalMismatch,
    ResonanceDivision,
    UnsupportedProfile,
)
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    Segment,
    slab,
    vacuum_spec,
)
from gf1d.transfer import (
    TransferMatrix,
    compose,
    compose_triples,
    constant_step_matrix,
    interval_triple,
    invert,
    propagate,
    riccati_coefficients,
    scattering_coefficients,
    semi_infinite_coefficients,
    tail_reflection,
)


def expm_oracle(c, dx, k):
    return expm(dx * np.array([[-1j * k, c], [c, 1j * k]], dtype=complex))


def test_vacuum_is_pure_phase():
    m = propagate(vacuum_spec(), 0.0, 1.0, 1.0)
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


def test_rk4_linear_profile_against_expm_refinement():
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(0.5, -1.0)),))
    k = 1.1 + 0.3j
    got = propagate(spec, 0.0, 1.0, k, method="rk4", step=5e-4).as_matrix()
    # oracle: product of many thin constant steps at midpoint values
    n = 4000
    h = 1.0 / n
    want = np.eye(2, dtype=complex)
    for i in range(n):
        xm = (i + 0.5) * h
        want = expm_oracle(0.5 - 1.0 * xm, h, k) @ want
    assert np.max(np.abs(got - want)) < 1e-6


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


def test_tail_reflection_is_moebius_fixed_point():
    # widening a constant half line by one more slab leaves the seed fixed
    for c in (0.8, -1.2):
        for k in (1.5, 0.4 + 0.9j, 2.0 + 0.0j):
            seed = tail_reflection(c, k, "left")
            t = interval_triple(slab(c, 0.0, 0.63), 0.0, 0.63, k)
            moved = t.r_right + t.tau**2 * seed / (1.0 - t.r_left * seed)
            assert abs(moved - seed) < 1e-12


def test_tail_reflection_branch():
    # |k| > |c| on the real axis: propagating waves, |R| < 1
    r = tail_reflection(1.0, 3.0, "left")
    assert abs(r) < 1.0
    r2 = tail_reflection(1.0, -3.0 + 0j, "left")
    assert abs(r2) < 1.0
    with pytest.raises(BranchUndefined):
        tail_reflection(1.0, 1.0, "left")
    assert tail_reflection(0.0, 1.0, "left") == 0
    assert tail_reflection(None, 1.0, "right") == 0


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
    assert abs(rr - tail_reflection(0.8, k, "left")) < 1e-14
    # moving into the medium composes the slab piece with the tail seed
    rr_mid, _ = semi_infinite_coefficients(spec, 0.6, k)
    t = interval_triple(spec, 0.0, 0.6, k)
    seed = tail_reflection(0.8, k, "left")
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


def test_unknown_method_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        propagate(slab(0.5), 0.0, 1.0, 1.0, method="euler")
    assert err.value.field == "method"
