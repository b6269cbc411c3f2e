import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf1d import polyrep
from gf1d.errors import ConfigError, CutoffBudget, DomainViolation, GammaPole
from gf1d.green import green_polyrep, green_product
from gf1d.polyrep import (
    CUTOFF_BUDGET,
    GENERATORS,
    PolyVec,
    _weight_row,
    adjoint_check,
    apply_generator,
    apply_U,
    basis_weight,
    commutation_action_check,
    inner_product,
    inner_product_integral_check,
    inverse_operator,
    lambda_l,
    lambda_r,
    lambda_r_power,
    mu_over_one_minus_c_xi,
)
from gf1d.transfer import (
    ScatteringTriple,
    compose_triples,
    interval_triple,
    semi_infinite_coefficients,
)
from gf1d.potential import ConstantProfile, PotentialSpec, Segment, slab
from gf1d.verify import _raised


def _triple(tau, rr, rl):
    """A scattering triple with the given coefficients; apply_U reads no more."""
    return ScatteringTriple(tau, rr, rl, (0.0, 0.0), 1.0)


def _assert_single(v, p, n, c):
    """v holds exactly c at xi**p mu**n and no other nonzero entry."""
    assert list(v.rows) == [n]
    want = np.zeros(v.P + 1, dtype=complex)
    want[p] = c
    assert np.array_equal(v.rows[n], want)


def _horner_apply_U(t, v):
    """Reference evolution: g(Lhat) by Horner over the full series Lhat,
    O(P**3); rows to order P+1."""
    tau, rr, rl = t.tau, t.r_right, t.r_left
    n = v.P + 1
    lhat = np.concatenate([[rl], tau * tau * rr ** np.arange(n)])
    m = np.arange(n)
    out = {}
    for q, row in v.rows.items():
        res = np.zeros(n + 1, dtype=complex)
        for c in row[::-1]:
            res = np.convolve(res, lhat)[: n + 1]
            res[0] += c
        b = np.cumprod(np.concatenate([[1.0], rr * (q + m) / (m + 1)]))
        out[q] = np.convolve(res, b)[: n + 1] * cmath.exp(q * cmath.log(tau))
    return out


def test_generator_actions_on_basis():
    P = 8
    v = PolyVec.basis(2, 3, P)  # xi^2 mu^3
    _assert_single(apply_generator("J+", v), 3, 3, -5.0)
    _assert_single(apply_generator("J-", v), 1, 3, 2.0)
    _assert_single(apply_generator("K+", v), 1, 4, 2.0)
    _assert_single(apply_generator("K-", v), 3, 2, 3.0)
    _assert_single(apply_generator("L+", v), 2, 2, -3.0)
    _assert_single(apply_generator("L-", v), 2, 4, 5.0)
    _assert_single(apply_generator("J3", v), 2, 3, 3.5)
    _assert_single(apply_generator("K3", v), 2, 3, 0.5)
    _assert_single(apply_generator("L3", v), 2, 3, -4.0)


def test_diagonal_eigenvalues_sum_to_zero():
    v = PolyVec.basis(4, 2, 8)
    total = (
        apply_generator("J3", v).rows[2][4]
        + apply_generator("K3", v).rows[2][4]
        + apply_generator("L3", v).rows[2][4]
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
    v = PolyVec({1: [0, 0, 1.5], 2: [-2.0j]}, P)
    w = apply_U(_triple(1.0 + 0j, 0j, 0j), v)
    assert w.max_abs_diff(v) < 1e-15
    # pure phase: Psi_{p,q} picks up tau^(q + 2p)
    tau = np.exp(0.4j)
    w = apply_U(_triple(tau, 0j, 0j), v)
    assert abs(w.rows[1][2] - 1.5 * tau**5) < 1e-14
    assert abs(w.rows[2][0] - (-2.0j) * tau**2) < 1e-14


def test_apply_U_is_multiplicative_over_composition():
    spec = slab(0.9, 0.0, 1.0)
    k = 1.2 + 0.3j
    t1 = interval_triple(spec, 0.0, 0.4, k)
    t2 = interval_triple(spec, 0.4, 1.0, k)
    t21 = compose_triples(t2, t1)
    P = 40
    v = lambda_r(0.3 + 0.2j, P)
    one_step = apply_U(t21, v)
    two_step = apply_U(t2, apply_U(t1, v))
    resid = max(
        abs(one_step.component(1)[p] - two_step.component(1)[p])
        for p in range(P // 2)
    )
    assert resid < 1e-12


def test_lambda_vectors():
    r = 0.4 + 0.1j
    v = lambda_r(r, 5)
    assert v.rows[1][0] == 1.0 + r
    assert abs(v.rows[1][3] - (1.0 + r) * r**3) < 1e-15
    w = lambda_l(r, 5)
    assert w.rows[1][0] == np.conj(1.0 + r)
    # left pairing against a basis vector is linear in r itself
    got = inner_product(w, PolyVec.basis(2, 1, 5))
    assert abs(got - (1.0 + r) * r**2) < 1e-15


def test_lambda_power_coefficients():
    r = 0.3
    v = lambda_r_power(r, 2, 6)
    # (1+r)^2 binom(p+1, p) r^p at mu^2
    assert abs(v.rows[2][0] - (1 + r) ** 2) < 1e-15
    assert abs(v.rows[2][3] - (1 + r) ** 2 * 4 * r**3) < 1e-15
    assert lambda_r_power(r, 1, 6).max_abs_diff(lambda_r(r, 6)) < 1e-15


@pytest.mark.parametrize("m", [1, 2, 2.5, 7])
def test_binomial_series_matches_the_coefficient_recurrence(m):
    # the plain recurrence, term by term, is the reference; the array form
    # rounds in another order
    c, n = 0.6 - 0.3j, 40
    want, b = [], 1.0 + 0j
    for p in range(n + 1):
        want.append(b)
        b = b * c * (m + p) / (p + 1)
    assert np.allclose(polyrep._binomial(m, c, n), want, rtol=1e-13, atol=0.0)


def test_ladder_power_matches_closed_form():
    # n-fold raising of (mu/(1 - c xi))**m: [(m+n-1)!/(m-1)!] (1+c)**n
    # (mu/(1 - c xi))**(m+n)
    P = 24
    for c in (0.35, -0.4 + 0.2j):
        for n in (1, 2, 3):
            for m in (1, 2, 4):
                got = _raised(mu_over_one_minus_c_xi(m, c, P + n), n, P)
                scale = (
                    math.factorial(m + n - 1) / math.factorial(m - 1) * (1 + c) ** n
                )
                want = mu_over_one_minus_c_xi(m + n, c, P, scale)
                assert got.max_abs_diff(want) < 1e-11


def test_raising_ladder_powers_lambda():
    # n-fold raising at an endpoint turns the vector into n! times its
    # (n+1)-st coefficient-wise power
    P, n, r = 20, 2, 0.45
    got = _raised(lambda_r(r, P + n), n, P)
    want = math.factorial(n) * lambda_r_power(r, n + 1, P)
    assert got.max_abs_diff(want) < 1e-12


def test_inverse_operators_roundtrip():
    P = 14
    rng = np.random.default_rng(7)
    g = rng.normal(size=5) + 1j * rng.normal(size=5)
    v = PolyVec({3: g}, P)
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
        abs(back.component(3)[p] - v.component(3)[p])
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
        abs(got.component(m - 1)[p] - want.component(m - 1)[p])
        for p in range(P // 2)
    )
    assert resid < 1e-12
    # pure mu powers
    v = PolyVec.basis(0, 5, 8)
    w = inverse_operator("L-inv", inverse_operator("L-inv", v))
    assert abs(w.rows[3][0] - math.factorial(2) / math.factorial(4)) < 1e-15
    v = PolyVec.basis(0, 2, 8)
    w = inverse_operator("L+inv", inverse_operator("L+inv", v))
    assert abs(w.rows[4][0] - math.factorial(2) / math.factorial(4)) < 1e-15


def test_inverse_operator_domain_checks():
    P = 6
    v = PolyVec.basis(1, 0, P)  # finite value at mu = 0
    with pytest.raises(DomainViolation):
        inverse_operator("L+inv", v)
    v = PolyVec.basis(0, 1, P)  # mu-degree 1 is outside the lowering domain
    with pytest.raises(DomainViolation):
        inverse_operator("(L-+K+)inv", v)
    v = PolyVec({1: [1.0], 2: [1.0]}, P)
    with pytest.raises(DomainViolation):
        inverse_operator("L-inv", v)


def test_truncation_loss_bounds_cutoff_change():
    # halving the cutoff must change the result by less than the reported loss
    r = 0.8
    t = interval_triple(slab(1.6, 0.0, 1.0), 0.0, 1.0, 0.45 + 0.05j)
    vals = {}
    for P in (24, 48, 96):
        v = apply_U(t, lambda_r(r, P))
        vals[P] = (
            sum(val * (0.5**p) for p, val in enumerate(v.component(1))),
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
    for n2, row in a_psi.rows.items():
        for p2 in np.flatnonzero(row):
            phi = PolyVec.basis(p2, n2, P)
            lhs = inner_product(phi, a_psi)
            rhs = sign * inner_product(apply_generator(dag, phi), psi)
            assert abs(lhs - rhs) < 1e-9


def test_rows_are_the_storage():
    v = PolyVec({1: [0, 0, 1.5], 3: [0.0]}, 4)
    assert list(v.rows) == [1]  # all-zero rows are dropped
    assert np.array_equal(v.rows[1], [0, 0, 1.5, 0, 0])
    w = PolyVec({1: [1.0, 2.0], 2: np.arange(1.0, 9.0)}, 4)
    assert np.array_equal(w.rows[1], [1, 2, 0, 0, 0])
    assert np.array_equal(w.rows[2], [1, 2, 3, 4, 5])
    assert list((w - w).rows) == []


def test_cutoff_below_one_is_a_config_error():
    for P in (0, -5):
        with pytest.raises(ConfigError):
            PolyVec({}, P)
        with pytest.raises(ConfigError):
            lambda_r(0.3, P)


def test_oversized_cutoff_is_named_before_any_allocation():
    # P = 1e7 used to end in a numpy MemoryError asking for 471 GiB
    P = math.isqrt(CUTOFF_BUDGET) - 1  # the largest cutoff the budget admits
    assert lambda_r(0.3, P).P == P
    for build in (
        lambda: lambda_r(0.3, P + 1),
        lambda: PolyVec({}, 10**7),
        lambda: green_polyrep(slab(0.8), 0.3, -0.2, 1.2, P=10**7),
    ):
        with pytest.raises(CutoffBudget):
            build()


def test_generator_tallies_overflow_as_loss():
    P = 5
    v = PolyVec({2: [0, 1.0, 0, 0, 0, 2.0]}, P)
    w = apply_generator("K-", v)  # raises the xi-degree: p = P leaves the cutoff
    _assert_single(w, 2, 1, 2.0)
    assert w.loss == 4.0
    with pytest.raises(ValueError):
        apply_generator("M+", v)


_polar = st.builds(
    lambda r, phase: r * cmath.exp(1j * phase),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=40, deadline=None)
@given(
    tau=_polar.filter(lambda z: abs(z) > 0),
    rr=_polar.map(lambda z: 0.949 * z),
    rl=_polar.map(lambda z: 0.949 * z),
    c=_polar.map(lambda z: 0.949 * z),
    n=st.integers(1, 3),
    half=st.sampled_from([0, 0.5]),
    P=st.sampled_from([1, 2, 12, 64, 128, 400]),
    generating=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_apply_U_matches_horner_oracle(tau, rr, rl, c, n, half, P, generating, seed):
    # rows: a generating vector (mu / (1 - c xi))**n, or random coefficients,
    # at the integer weight n or the half-integer weight n + 1/2
    if generating:
        row = mu_over_one_minus_c_xi(n, c, P).rows[n]
    else:
        rng = np.random.default_rng(seed)
        row = rng.normal(size=P + 1) + 1j * rng.normal(size=P + 1)
    q = n + half
    v = PolyVec({q: row}, P)
    t = _triple(tau, rr, rl)
    got = apply_U(t, v).rows.get(q, np.zeros(P + 1))
    want = _horner_apply_U(t, v)[q][: P + 1]
    # any summation order meets the forward rounding bound: P eps times the
    # same composition on absolute values; independent draws of (tau, R_r,
    # R_l) include compositions whose condition number alone exceeds 1e4
    abs_v = PolyVec({q: np.abs(row)}, P)
    bound = _horner_apply_U(_triple(abs(tau), abs(rr), abs(rl)), abs_v)[q]
    allowed = 1e-12 * max(1.0, np.max(np.abs(want))) + (
        (P + 1) * np.finfo(float).eps * bound[: P + 1].real
    )
    assert np.all(np.abs(got - want) <= allowed)


def test_apply_U_strong_medium_matches_horner_oracle():
    # f = 4 then -2 near k = 0.6: |R_r(y, -inf)| = 0.98 and |R_l| = 0.72.  A
    # Taylor shift of g by R_l followed by a shear by R_r (three truncated
    # convolutions) loses every digit here; the composition must not.
    spec = PotentialSpec(
        segments=(
            Segment(-1.0, 0.0, ConstantProfile(4.0)),
            Segment(0.0, 1.0, ConstantProfile(-2.0)),
        )
    )
    k = 0.6 + 0.05j
    rr1, _ = semi_infinite_coefficients(spec, -0.2, k)
    t = interval_triple(spec, -0.2, 0.8, k)
    for v in (lambda_r(rr1, 128), lambda_r_power(rr1, 3, 128)):
        (n,) = v.rows
        want = _horner_apply_U(t, v)[n][:129]
        got = apply_U(t, v).rows[n]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_apply_U_vacuum_is_a_pure_phase_per_coefficient():
    # R_r = R_l = 0: xi**p mu**q picks up tau**(q + 2p) and nothing else,
    # here at the half-integer weights 3/2 and 5/2
    P = 64
    tau = 0.93 * cmath.exp(0.7j)
    rng = np.random.default_rng(3)
    rows = {q: rng.normal(size=P + 1) + 1j * rng.normal(size=P + 1) for q in (1.5, 2.5)}
    w = apply_U(_triple(tau, 0j, 0j), PolyVec(rows, P))
    p = np.arange(P + 1)
    for q, row in rows.items():
        want = row * np.exp((q + 2 * p) * cmath.log(tau))
        assert np.all(np.abs(w.rows[q] - want) <= 1e-13 * np.abs(row))
    assert w.loss == 0.0


def test_weight_row_is_cached_and_read_only():
    w, poles = _weight_row(8, 2)
    assert _weight_row(8, 2)[0] is w
    assert list(w) == [basis_weight(p, 2) for p in range(9)]
    assert poles.size == 0
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert _weight_row(8, -1)[1].tolist() == list(range(9))


def test_gamma_pole_only_where_both_sides_are_nonzero():
    P = 6
    # mu-degree -1: every weight is undefined
    left = PolyVec({-1: [0, 0, 1.0], 1: [1.0]}, P)
    right = PolyVec({-1: [0, 0, 0, 1.0], 1: [2.0]}, P)
    assert inner_product(left, right) == 2.0
    with pytest.raises(GammaPole):
        inner_product(left, PolyVec({-1: [0, 0, 1.0]}, P))


def _passive_triple(r, alpha, beta, gamma):
    """The triple of a lossless interval with |R_r| = r, its transmission
    damped by gamma <= 1: Lhat maps the unit disk into itself."""
    rr = r * cmath.exp(1j * alpha)
    tau = math.sqrt(1.0 - r * r) * cmath.exp(1j * beta)
    rl = -rr.conjugate() * tau / tau.conjugate()
    return _triple(gamma * tau, rr, rl)


_phase = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    r=st.floats(0.0, 0.95),
    alpha=_phase,
    beta=_phase,
    gamma=st.floats(0.5, 1.0),
    c=_polar.map(lambda z: 0.95 * z),
    n=st.integers(1, 3),
    half=st.sampled_from([0, 0.5]),
    P=st.sampled_from([12, 64, 128]),
    decaying=st.booleans(),
)
def test_apply_U_at_the_numerical_degree_is_within_its_loss(
    r, alpha, beta, gamma, c, n, half, P, decaying
):
    # apply_U reads rows to their numerical degree and forms the output
    # only as far as its tail estimate asks; the full-length oracle reads
    # and forms everything, and the difference is within the reported loss
    if decaying:
        row = mu_over_one_minus_c_xi(n, c, P).rows[n]
    else:
        row = [1.0, 1j] @ np.random.default_rng(n + P).normal(size=(2, P + 1))
    q = n + half
    v = PolyVec({q: row}, P)
    t = _passive_triple(r, alpha, beta, gamma)
    w = apply_U(t, v)
    want = _horner_apply_U(t, v)[q][: P + 1]
    got = w.rows.get(q, np.zeros(P + 1))
    assert np.all(np.abs(got - want) <= w.loss + 1e-12 * np.max(np.abs(want)))


def test_growing_chain_runs_the_full_length_arithmetic(monkeypatch):
    # a chain whose series grow reaches the numerical degree P and the
    # order P + 1 at every step: the value is the one of the uncut series,
    # bit for bit, and the loss stays unbounded.  These pairs have no
    # forward order, so the chain keeps its reversed link -0.7 -> -2.0
    def product():
        return green_product(slab(0.8, -1, 1), [(0.4, -0.7), (1.9, -2.0)], 2.36 + 1.54j)

    cut = product()
    monkeypatch.setattr(polyrep, "NEGLIGIBLE", 0.0)
    full = product()
    assert cut.value == full.value
    assert cut.truncation_loss == full.truncation_loss == math.inf


def _products(monkeypatch, t, v):
    """The number of truncated products apply_U(t, v) forms."""
    calls = []
    mul = polyrep._series_mul
    monkeypatch.setattr(polyrep, "_series_mul", lambda *a: calls.append(1) or mul(*a))
    apply_U(t, v)
    return len(calls)


@pytest.mark.parametrize("P", [64, 128])
def test_apply_U_work_follows_the_numerical_degree(monkeypatch, P):
    # reading every row to P took 16 and 22 truncated products at P = 64
    # and 128; lambda_r(0.1 + 0.05j) falls below NEGLIGIBLE near degree 20
    t = interval_triple(slab(0.5, -0.5, 0.5), -0.5, 0.5, 1.3 + 0.2j)
    assert _products(monkeypatch, t, lambda_r(0.1 + 0.05j, P)) <= 10
    # at |R_r| = 0.89 the output needs every order to P + 1: still no more
    # products than a full-length pass
    t = interval_triple(slab(1.6, 0.0, 1.0), 0.0, 1.0, 0.45 + 0.05j)
    assert abs(t.r_right) > 0.89
    full_length = {64: 16, 128: 22}[P]
    for r in (0.1 + 0.05j, 0.8):
        assert _products(monkeypatch, t, lambda_r(r, P)) <= full_length


def test_apply_U_reads_a_row_to_its_numerical_degree():
    # 1e-25 at degree 10 is below NEGLIGIBLE of the row's largest
    # coefficient: it is not read, and its magnitude enters the loss
    P = 16
    row = np.zeros(P + 1, dtype=complex)
    row[0], row[10] = 1.0, 1e-25
    w = apply_U(_triple(1j, 0j, 0j), PolyVec({1: row}, P))
    _assert_single(w, 0, 1, 1j)
    assert w.loss == pytest.approx(1e-25, rel=1e-12, abs=0.0)


def test_apply_U_forms_the_orders_its_tail_estimate_asks_for(monkeypatch):
    # at |R_r| = 0.51 the tail estimate after the first pass is still above
    # NEGLIGIBLE: one second pass forms the orders it asks for, fewer than P
    t = interval_triple(slab(0.8, -0.5, 0.5), -0.5, 0.5, 1.0 + 0.2j)
    v = lambda_r(0.3, 128)
    orders = []
    compose = polyrep._compose
    monkeypatch.setattr(polyrep, "_compose", lambda *a: orders.append(a[-1]) or compose(*a))
    w = apply_U(t, v)
    assert len(orders) == 2 and orders[0] < orders[1] < 129
    want = _horner_apply_U(t, v)[1][:129]
    assert np.max(np.abs(w.rows[1] - want)) <= 1e-14 * np.max(np.abs(want))
    assert w.loss < 1e-18
