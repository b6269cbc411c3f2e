import time

import numpy as np
import pytest
from scipy.linalg import expm

from gf1d.born import born_series
from gf1d.errors import ConfigError, QuadratureBudget
from gf1d.green import green_closed_form
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    SampledProfile,
    Segment,
    slab,
)


def oracle_two_ik_g(pieces, s, x, y, k):
    """2ikG for f = s * c on each (a, b, c) piece, vacuum tails, complex s.

    Independent of gf1d: (psi, psi') is carried by expm across each piece,
    where psi'' = (s^2 c^2 - k^2) psi, and across each jump of f, where psi'
    jumps by s * (jump of c) * psi.  psi_- is e^{-ikz} left of the support,
    psi_+ is e^{ikz} right of it, and 2ikG = 2ik psi_-(y) psi_+(x) / W.
    """
    x_l, x_r = pieces[0][0], pieces[-1][1]

    def step(c, length):
        a = np.array([[0, 1], [(s * c) ** 2 - k**2, 0]], dtype=complex)
        return expm(length * a)

    def jump(delta):
        return np.array([[1, 0], [s * delta, 1]], dtype=complex)

    def transfer(z):  # from just left of the support to z, past a jump at z
        if z < x_l:
            return step(0.0, z - x_l)
        m, prev = np.eye(2), 0.0
        for a, b, c in pieces:
            if z < a:
                return m
            m = step(c, min(z, b) - a) @ jump(c - prev) @ m
            prev = c
        return step(0.0, max(z - x_r, 0.0)) @ jump(-prev) @ m

    left = np.array([1, -1j * k])
    right = np.linalg.solve(transfer(x_r), np.array([1, 1j * k]))
    wronskian = left[0] * right[1] - left[1] * right[0]
    x, y = max(x, y), min(x, y)
    return 2j * k * (transfer(y) @ left)[0] * (transfer(x) @ right)[0] / wronskian


def taylor_coefficients(pieces, x, y, k, n=32, rho=0.5):
    """Coefficients of 2ikG in the coupling s, by FFT on |s| = rho."""
    s = rho * np.exp(2j * np.pi * np.arange(n) / n)
    g = np.array([oracle_two_ik_g(pieces, sj, x, y, k) for sj in s])
    return np.fft.fft(g) / n / rho ** np.arange(n)


def order_sums(pieces, x, y, k, max_order, **kw):
    spec = PotentialSpec(tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in pieces))
    _, terms = born_series(spec, x, y, k, max_order=max_order, **kw)
    sums = np.zeros(max_order + 1, complex)
    for t in terms:
        sums[t.order] += t.value
    return sums


# two slabs; with x = 0.3 inside the support, the inner limit min(x, z) of
# the nested orders puts a kink at x
KINK = [(-1.0, 0.5, 0.7), (0.5, 1.0, -0.4)]


def test_order_zero_is_free_kernel():
    gv, terms = born_series(PotentialSpec(), 0.9, -0.4, 1.2 + 0.3j, max_order=3)
    assert len(terms) == 1 + 2 * 3
    k = 1.2 + 0.3j
    assert abs(2j * k * gv.value - np.exp(1j * k * 1.3)) < 1e-14
    assert terms[0].sign == 1 and terms[0].order == 0
    for t in terms[1:]:
        assert t.value == 0  # no medium, no scattering


def test_term_regions_and_counts():
    _, terms = born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1.0, max_order=3)
    by_order = {}
    for t in terms:
        by_order.setdefault(t.order, []).append(t.region)
    assert by_order[0] == ["A0"]
    assert by_order[1] == ["A1", "B1"]
    assert by_order[2] == ["A2", "B2"]
    assert by_order[3] == ["A3", "B3"]


def test_first_order_term_against_analytic_integral():
    c, k, x, y = 0.3, 1.4 + 0.2j, 0.7, 0.25
    _, terms = born_series(slab(c, 0.0, 1.0), x, y, k, max_order=1)
    # int_0^y c e^{ik(x+y-2z)} dz, done in closed form
    a1 = c * np.exp(1j * k * (x + y)) * (np.exp(-2j * k * y) - 1.0) / (-2j * k)
    b1 = -c * np.exp(-1j * k * (x + y)) * (
        np.exp(2j * k * 1.0) - np.exp(2j * k * x)
    ) / (2j * k)
    got = {t.region: t.value for t in terms}
    assert abs(got["A1"] - a1) < 1e-12
    assert abs(got["B1"] - b1) < 1e-12


def test_partial_sums_converge_in_order():
    spec = slab(0.25, 0.0, 1.0)
    k = 1.0
    gb = green_closed_form(spec, 0.7, 0.2, k)
    errs = []
    for order in (0, 1, 2, 3):
        gv, _ = born_series(spec, 0.7, 0.2, k, max_order=order)
        errs.append(abs(gv.value - gb.value))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[3] < errs[2]


def test_weak_medium_error_scales_cubically():
    # order-2 partial sum error is dominated by the c^3 term
    k = 1.0
    errs = []
    for c in (0.1, 0.05):
        spec = slab(c, 0.0, 1.0)
        gb = green_closed_form(spec, 0.7, 0.25, k)
        gv, _ = born_series(spec, 0.7, 0.25, k, max_order=2)
        errs.append(abs(gv.value - gb.value))
    ratio = errs[0] / errs[1]
    assert 5.6 <= ratio <= 11.2


def test_symmetric_in_arguments():
    spec = slab(0.2, 0.0, 1.0)
    a, _ = born_series(spec, 0.8, 0.3, 1.1, max_order=2)
    b, _ = born_series(spec, 0.3, 0.8, 1.1, max_order=2)
    assert a.value == b.value


def test_budget_guard():
    # at k = 1e5 the panels no wider than 2/|k| number 5e4: three orders
    # charge 9.6e6 nodes, over the budget of 2e6
    with pytest.raises(QuadratureBudget):
        born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1e5, max_order=3)
    with pytest.raises(ValueError):
        born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1.0, max_order=-1)


def test_budget_charges_the_rule_before_building_it():
    # the n x n integration matrix of a 2000-node rule would take seconds
    # and 160 MB; it is charged n**2 and refused at once
    start = time.perf_counter()
    with pytest.raises(QuadratureBudget):
        born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1.0, max_order=1, n_nodes=2000)
    assert time.perf_counter() - start < 0.5
    for order, n_nodes in ((2, 16), (3, 12)):
        gv, _ = born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1.0, order, n_nodes)
        assert np.isfinite(gv.value)


def test_value_keeps_caller_argument_order():
    spec = slab(0.2, 0.0, 1.0)
    gv, _ = born_series(spec, 0.3, 0.8, 1.1)
    assert (gv.x, gv.y) == (0.3, 0.8)
    swapped, _ = born_series(spec, 0.8, 0.3, 1.1)
    assert swapped.value == gv.value


def test_domain_errors_are_config_errors():
    with pytest.raises(ConfigError):
        born_series(slab(0.2), 0.3, 0.8, 1.0, max_order=-1)
    with pytest.raises(ConfigError):
        born_series(slab(0.2), 0.3, 0.8, 0.0)
    with pytest.raises(ConfigError) as err:
        born_series(slab(0.2), 0.3, 0.8, 1.0, n_nodes=0)
    assert err.value.field == "n_nodes"


@pytest.mark.parametrize(
    "field, kw",
    [
        ("order", {"max_order": 2.5}),
        ("order", {"max_order": float("nan")}),
        ("order", {"max_order": 2.0}),
        ("n_nodes", {"n_nodes": 2.5}),
        ("n_nodes", {"n_nodes": float("nan")}),
        ("n_nodes", {"n_nodes": 16.0}),
    ],
)
def test_non_integer_order_and_nodes_are_config_errors(field, kw):
    with pytest.raises(ConfigError) as err:
        born_series(slab(0.2), 0.3, 0.8, 1.0, **kw)
    assert err.value.field == field


def test_negative_order_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        born_series(slab(0.2), 0.3, 0.8, 1.0, max_order=-1)
    assert err.value.field == "order"


def test_oracle_agrees_with_route_b_at_unit_coupling():
    k = 1.3 + 0.2j
    spec = PotentialSpec(tuple(Segment(a, b, ConstantProfile(c)) for a, b, c in KINK))
    want = 2j * k * green_closed_form(spec, 0.3, -0.2, k).value
    assert abs(oracle_two_ik_g(KINK, 1.0, 0.3, -0.2, k) - want) < 1e-14


@pytest.mark.parametrize(
    "pieces, x, y",
    [
        (KINK, 0.3, -0.2),
        (KINK, 1.7, -0.6),  # x beyond the support
        ([(-0.5, 0.2, 1.1), (0.2, 0.6, -0.3)], 0.1, -2.0),  # y before it
    ],
)
def test_order_sums_match_taylor_coefficients(pieces, x, y):
    k = 1.3 + 0.2j
    want = taylor_coefficients(pieces, x, y, k)[:7]
    got = order_sums(pieces, x, y, k, max_order=6)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_kink_at_x_converges_at_eight_nodes():
    # the panels of the nested integrals are split at x
    k = 1.3 + 0.2j
    want = taylor_coefficients(KINK, 0.3, -0.2, k)[2]
    got = order_sums(KINK, 0.3, -0.2, k, max_order=2, n_nodes=8)[2]
    assert abs(got - want) < 1e-12 * abs(want)


def test_large_wavenumber_matches_taylor_coefficients():
    # panels wider than 2/|k| are split, so the default rule resolves e^{ikz}
    k = 40 + 0.5j
    want = taylor_coefficients(KINK, 0.3, -0.2, k)[:4]
    got = order_sums(KINK, 0.3, -0.2, k, max_order=3)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "segments",
    [
        (
            Segment(-1.0, 0.5, LinearProfile(0.1, -0.2)),
            Segment(0.5, 1.0, ConstantProfile(-0.05)),
        ),
        # sample points past the left end of the segment, and f extrapolated
        # linearly beyond the last point, as evaluate_f does
        (Segment(0.0, 1.0, SampledProfile(((-0.5, 0.1), (0.3, -0.1), (0.8, 0.12)))),),
    ],
)
@pytest.mark.parametrize("x, y", [(0.3, -0.2), (1.7, -0.6)])
def test_sloped_media_match_route_b(segments, x, y):
    spec, k = PotentialSpec(segments), 1.3 + 0.2j
    gv, _ = born_series(spec, x, y, k, max_order=12, n_nodes=16)
    want = green_closed_form(spec, x, y, k, method="rk4").value
    assert abs(gv.value - want) < 1e-12 * abs(want)


def test_large_im_k_stays_finite_and_accurate():
    # e^{Im k h} on a split panel stays below e, so nothing overflows
    spec, k = slab(0.05, 0.0, 2.0), 1 + 400j
    gv, _ = born_series(spec, 1.5, 0.4, k, max_order=4)
    want = green_closed_form(spec, 1.5, 0.4, k).value
    assert abs(gv.value - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("side", ["left_tail", "right_tail"])
def test_constant_tail_is_a_config_error(side):
    # the tails were clipped away before: every order was off by 1.4e-2
    spec = PotentialSpec((Segment(-1.0, 1.0, ConstantProfile(0.05)),), **{side: 0.05})
    with pytest.raises(ConfigError) as err:
        born_series(spec, 0.3, -0.2, 1.3 + 0.2j)
    assert err.value.field == side


def test_any_order_has_two_signed_regions():
    spec = slab(0.2, 0.0, 1.0)
    _, terms = born_series(spec, 0.8, 0.2, 1.0, max_order=6)
    assert [t.region for t in terms[1:]] == [
        f"{r}{m}" for m in range(1, 7) for r in "AB"
    ]
    # each scatterer contributes -d for the direction it is entered in
    signs = {t.region: t.sign for t in terms}
    assert [signs[f"A{m}"] for m in range(1, 7)] == [1, -1, -1, 1, 1, -1]
    assert [signs[f"B{m}"] for m in range(1, 7)] == [-1, -1, 1, 1, -1, -1]
