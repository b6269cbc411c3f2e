import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf1d.errors import ConfigError, DomainViolation, GammaPole
from gf1d.polyrep import (
    GENERATORS,
    MobiusAction,
    PolyVec,
    adjoint_check,
    apply_generator,
    apply_U,
    basis_weight,
    commutation_action_check,
    inner_product,
    inner_product_integral_check,
    inverse_operator,
    ladder_power,
    lambda_l,
    lambda_r,
    lambda_r_power,
    mu_over_one_minus_c_xi,
)
from gf1d.transfer import compose_triples, interval_triple
from gf1d.potential import slab


def test_generator_actions_on_basis():
    P = 8
    v = PolyVec.basis(2, 3, P)  # xi^2 mu^3
    assert apply_generator("J+", v).coeffs == {(3, 3): -5.0}
    assert apply_generator("J-", v).coeffs == {(1, 3): 2.0}
    assert apply_generator("K+", v).coeffs == {(1, 4): 2.0}
    assert apply_generator("K-", v).coeffs == {(3, 2): 3.0}
    assert apply_generator("L+", v).coeffs == {(2, 2): -3.0}
    assert apply_generator("L-", v).coeffs == {(2, 4): 5.0}
    assert apply_generator("J3", v).coeffs == {(2, 3): 3.5}
    assert apply_generator("K3", v).coeffs == {(2, 3): 0.5}
    assert apply_generator("L3", v).coeffs == {(2, 3): -4.0}


def test_diagonal_eigenvalues_sum_to_zero():
    v = PolyVec.basis(4, 2, 8)
    total = (
        apply_generator("J3", v).coeffs[(4, 2)]
        + apply_generator("K3", v).coeffs[(4, 2)]
        + apply_generator("L3", v).coeffs[(4, 2)]
    )
    assert total == 0.0


def test_commutation_relations_on_basis():
    report = commutation_action_check(12)
    assert len(report) == 36
    assert max(res for _, res in report) == 0.0


def test_basis_weight_values():
    assert basis_weight(0, 0) == 0.0
    assert basis_weight(3, 1) == 1.0
    assert basis_weight(0, 1) == 1.0
    assert basis_weight(2, 0) == 2.0  # p! 0! / (p-1)! = p
    assert abs(basis_weight(2, 2) - 2.0 / 3.0) < 1e-15
    # non-integer offset uses the Gamma form
    assert abs(basis_weight(1, 0.5) - math.gamma(2) * math.gamma(1.5) / math.gamma(1.5)) < 1e-12
    with pytest.raises(GammaPole):
        basis_weight(0, -2)


def test_inner_product_orthogonality():
    P = 6
    a = PolyVec.basis(2, 1, P)
    b = PolyVec.basis(3, 1, P)
    assert inner_product(a, b) == 0.0
    assert inner_product(a, a) == 1.0
    # conjugate linearity in the left slot
    c = 2.0 + 1.0j
    assert inner_product(c * a, a) == np.conj(c)
    assert inner_product(a, c * a) == c


def test_adjoint_table():
    report = adjoint_check(10)
    assert {name for name, _ in report} == set(GENERATORS)
    assert max(res for _, res in report) < 1e-10


def test_inner_product_integral_against_formula():
    for p in range(5):
        for q in range(5):
            if p + q < 1:
                continue
            quad, formula = inner_product_integral_check(p, q)
            assert abs(quad - formula) <= 1e-6 * max(1.0, abs(formula))


def test_apply_U_identity_and_vacuum():
    P = 12
    v = PolyVec({(2, 1): 1.5, (0, 2): -2.0j}, P)
    w = apply_U(MobiusAction.identity(), v)
    assert w.max_abs_diff(v) < 1e-15
    # pure phase: Psi_{p,q} picks up tau^(q + 2p)
    tau = np.exp(0.4j)
    w = apply_U(MobiusAction(tau, 0j, 0j), v)
    assert abs(w.coeffs[(2, 1)] - 1.5 * tau**5) < 1e-14
    assert abs(w.coeffs[(0, 2)] - (-2.0j) * tau**2) < 1e-14


def test_apply_U_is_multiplicative_over_composition():
    spec = slab(0.9, 0.0, 1.0)
    k = 1.2 + 0.3j
    t1 = interval_triple(spec, 0.0, 0.4, k)
    t2 = interval_triple(spec, 0.4, 1.0, k)
    t21 = compose_triples(t2, t1)
    P = 40
    v = lambda_r(0.3 + 0.2j, P)
    one_step = apply_U(MobiusAction.from_triple(t21), v)
    two_step = apply_U(
        MobiusAction.from_triple(t2), apply_U(MobiusAction.from_triple(t1), v)
    )
    resid = max(
        abs(one_step.coeffs.get((p, 1), 0j) - two_step.coeffs.get((p, 1), 0j))
        for p in range(P // 2)
    )
    assert resid < 1e-12


def test_lambda_vectors():
    r = 0.4 + 0.1j
    v = lambda_r(r, 5)
    assert v.coeffs[(0, 1)] == 1.0 + r
    assert abs(v.coeffs[(3, 1)] - (1.0 + r) * r**3) < 1e-15
    w = lambda_l(r, 5)
    assert w.coeffs[(0, 1)] == np.conj(1.0 + r)
    # left pairing against a basis vector is linear in r itself
    got = inner_product(w, PolyVec.basis(2, 1, 5))
    assert abs(got - (1.0 + r) * r**2) < 1e-15


def test_lambda_power_coefficients():
    r = 0.3
    v = lambda_r_power(r, 2, 6)
    # (1+r)^2 binom(p+1, p) r^p at mu^2
    assert abs(v.coeffs[(0, 2)] - (1 + r) ** 2) < 1e-15
    assert abs(v.coeffs[(3, 2)] - (1 + r) ** 2 * 4 * r**3) < 1e-15
    assert lambda_r_power(r, 1, 6).max_abs_diff(lambda_r(r, 6)) < 1e-15


def test_ladder_power_matches_closed_form():
    P = 24
    for c in (0.35, -0.4 + 0.2j):
        for n in (1, 2, 3):
            for m in (1, 2, 4):
                got = ladder_power(n, m, c, P)
                scale = (
                    math.factorial(m + n - 1) / math.factorial(m - 1) * (1 + c) ** n
                )
                want = mu_over_one_minus_c_xi(m + n, c, P, scale)
                assert got.max_abs_diff(want) < 1e-11


def test_raising_ladder_powers_lambda():
    # n-fold raising at an endpoint turns the vector into n! times its
    # (n+1)-st coefficient-wise power
    P, n, r = 20, 2, 0.45
    v = lambda_r(r, P + n)
    for _ in range(n):
        v = apply_generator("L-", v) + apply_generator("K+", v)
    got = PolyVec({k_: val for k_, val in v.coeffs.items() if k_[0] <= P}, P)
    want = math.factorial(n) * lambda_r_power(r, n + 1, P)
    assert got.max_abs_diff(want) < 1e-12


def test_inverse_operators_roundtrip():
    P = 14
    rng = np.random.default_rng(7)
    g = rng.normal(size=5) + 1j * rng.normal(size=5)
    v = PolyVec.from_components({3: np.concatenate([g, np.zeros(P - 4)])}, P)
    w = inverse_operator("L-inv", v)
    assert apply_generator("L-", w).max_abs_diff(v) < 1e-13
    w = inverse_operator("L+inv", v)
    assert apply_generator("L+", w).max_abs_diff(v) < 1e-13
    w = inverse_operator("(L+-K-)inv", v)
    back = apply_generator("L+", w) - apply_generator("K-", w)
    assert back.max_abs_diff(v) < 1e-13
    w = inverse_operator("(L-+K+)inv", v)
    back = apply_generator("L-", w) + apply_generator("K+", w)
    resid = max(
        abs(back.coeffs.get((p, 3), 0j) - v.coeffs.get((p, 3), 0j))
        for p in range(P)
    )
    assert resid < 1e-13


def test_inverse_operator_closed_forms():
    # lowering a resolvent vector divides by (m-1)(1+c)
    P, m, c = 60, 4, 0.4
    v = mu_over_one_minus_c_xi(m, c, P)
    got = inverse_operator("(L-+K+)inv", v)
    want = mu_over_one_minus_c_xi(m - 1, c, P, 1.0 / ((m - 1) * (1 + c)))
    resid = max(
        abs(got.coeffs.get((p, m - 1), 0j) - want.coeffs.get((p, m - 1), 0j))
        for p in range(P // 2)
    )
    assert resid < 1e-12
    # pure mu powers
    v = PolyVec.basis(0, 5, 8)
    w = inverse_operator("L-inv", inverse_operator("L-inv", v))
    assert abs(w.coeffs[(0, 3)] - math.factorial(2) / math.factorial(4)) < 1e-15
    v = PolyVec.basis(0, 2, 8)
    w = inverse_operator("L+inv", inverse_operator("L+inv", v))
    assert abs(w.coeffs[(0, 4)] - math.factorial(2) / math.factorial(4)) < 1e-15


def test_inverse_operator_domain_checks():
    P = 6
    v = PolyVec.basis(1, 0, P)  # finite value at mu = 0
    with pytest.raises(DomainViolation):
        inverse_operator("L+inv", v)
    v = PolyVec.basis(0, 1, P)  # mu-degree 1 is outside the lowering domain
    with pytest.raises(DomainViolation):
        inverse_operator("(L-+K+)inv", v)
    v = PolyVec({(0, 1): 1.0, (0, 2): 1.0}, P)
    with pytest.raises(DomainViolation):
        inverse_operator("L-inv", v)


def test_truncation_loss_bounds_cutoff_change():
    # halving the cutoff must change the result by less than the reported loss
    r = 0.8
    t = interval_triple(slab(1.6, 0.0, 1.0), 0.0, 1.0, 0.45 + 0.05j)
    act = MobiusAction.from_triple(t)
    vals = {}
    for P in (24, 48, 96):
        v = apply_U(act, lambda_r(r, P))
        vals[P] = (
            sum(val * (0.5**p) for (p, n), val in v.coeffs.items() if n == 1),
            v.loss,
        )
    assert abs(vals[24][0] - vals[96][0]) < vals[24][1]
    assert abs(vals[48][0] - vals[96][0]) < vals[48][1]
    assert vals[96][1] < vals[24][1]


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(0, 6),
    n=st.integers(0, 3),
    name=st.sampled_from(GENERATORS),
)
def test_adjoint_property(p, n, name):
    pairs = {
        "J+": ("J-", -1.0), "J-": ("J+", -1.0),
        "K+": ("K-", 1.0), "K-": ("K+", 1.0),
        "L+": ("L-", -1.0), "L-": ("L+", -1.0),
        "J3": ("J3", 1.0), "K3": ("K3", 1.0), "L3": ("L3", 1.0),
    }
    P = 10
    psi = PolyVec.basis(p, n, P)
    a_psi = apply_generator(name, psi)
    dag, sign = pairs[name]
    for (p2, n2) in list(a_psi.coeffs):
        phi = PolyVec.basis(p2, n2, P)
        lhs = inner_product(phi, a_psi)
        rhs = sign * inner_product(apply_generator(dag, phi), psi)
        assert abs(lhs - rhs) < 1e-9


def test_rows_are_the_storage():
    v = PolyVec({(2, 1): 1.5, (0, 3): 0.0}, 4)
    assert list(v.rows) == [1]  # all-zero rows are dropped
    assert np.array_equal(v.rows[1], [0, 0, 1.5, 0, 0])
    assert dict(v.coeffs) == {(2, 1): 1.5}
    with pytest.raises(TypeError):
        v.coeffs[(0, 1)] = 1.0
    w = PolyVec.from_components({1: [1.0, 2.0], 2: np.arange(1.0, 9.0)}, 4)
    assert np.array_equal(w.rows[1], [1, 2, 0, 0, 0])
    assert np.array_equal(w.rows[2], [1, 2, 3, 4, 5])
    assert list((w - w).rows) == []


def test_cutoff_below_one_is_a_config_error():
    for P in (0, -5):
        with pytest.raises(ConfigError):
            PolyVec({}, P)
        with pytest.raises(ConfigError):
            lambda_r(0.3, P)


def test_generator_tallies_overflow_as_loss():
    P = 5
    v = PolyVec({(P, 2): 2.0, (1, 2): 1.0}, P)
    w = apply_generator("K-", v)  # raises the xi-degree: p = P leaves the cutoff
    assert w.coeffs == {(2, 1): 2.0}
    assert w.loss == 4.0
    with pytest.raises(ValueError):
        apply_generator("M+", v)
