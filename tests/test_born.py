import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gf1d.born import SeriesTerm, _split, born_series
from gf1d.errors import ConfigError, QuadratureBudget, ResonanceDivision
from gf1d.green import green_closed_form
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    SampledProfile,
    Segment,
    slab,
)
from gf1d.quadrature import gauss_legendre


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


def test_values_are_python_complex():
    gv, terms = born_series(slab(0.3, -1, 1), 0.3, -0.2, 1.3 + 0.2j, 2)
    assert "np." not in repr(gv) and "np." not in repr(terms)
    assert {type(gv.value)} | {type(t.value) for t in terms} == {complex}


class PerRegionPanels:
    """One region at a time, as the series was summed before both regions
    shared one stacked pass: the reference the stacked pass keeps the bits of."""

    def __init__(self, spec, edges, k, n_nodes):
        t, self.w, S = gauss_legendre(n_nodes)
        self.S = S[0]
        a = edges[:-1]
        self.h = 0.5 * np.diff(edges)
        self.z = (a + self.h)[:, None] + self.h[:, None] * t
        e = edges.tolist()
        ends = [spec.ends(za, zb) for za, zb in zip(e, e[1:])]
        fa, fb = np.reshape(ends, (-1, 2, 1)).transpose(1, 0, 2)
        self.f = fa + (fb - fa) * (0.5 * (t + 1))
        self.e = np.exp(1j * k * self.h[:, None] * t)
        self.e_inv = 1.0 / self.e
        self.e_half = np.exp(1j * k * self.h)
        self.across = self.e_half**2

    def cumulative(self, psi, d):
        if d > 0:
            inward, outward, S = self.e_inv, self.e, self.S
        else:
            inward, outward, S = self.e, self.e_inv, self.w - self.S
        g = psi * inward
        inner = self.h[:, None] * outward * (g @ S.T)
        total = self.h * self.e_half * (g @ self.w)
        at_edges = np.zeros(len(total) + 1, complex)
        if d > 0:
            for p in range(len(total)):
                at_edges[p + 1] = at_edges[p] * self.across[p] + total[p]
            near_edge = at_edges[:-1]
        else:
            for p in reversed(range(len(total))):
                at_edges[p] = at_edges[p + 1] * self.across[p] + total[p]
            near_edge = at_edges[1:]
        return (near_edge * self.e_half)[:, None] * outward + inner, at_edges


def per_region_terms(spec, x, y, k, max_order, n_nodes):
    x, y = max(x, y), min(x, y)
    terms = [SeriesTerm(0, "A0", +1, complex(np.exp(1j * k * (x - y))))]
    x_l, x_r = spec.support
    x_c, y_c = min(max(x, x_l), x_r), min(max(y, x_l), x_r)
    knots = sorted({*spec.knots(x_l, x_r), x_c, y_c})
    if max_order:
        edges = _split(knots, np.ceil(0.5 * abs(k) * np.diff(knots)))
        grid = PerRegionPanels(spec, edges, k, n_nodes)
        outside = np.exp(1j * k * (abs(x - x_c) + abs(y - y_c)))
        at_x = np.searchsorted(edges, x_c)
        from_y = np.exp(1j * k * abs(grid.z - y_c))
        by_order = []
        for region, d in (("A", -1), ("B", +1)):
            phi, sign = np.where(d * (grid.z - y_c) > 0, from_y, 0), 1
            for m in range(1, max_order + 1):
                d_in, d = d, -d
                sign *= -d_in
                phi, at_edges = grid.cumulative(-d_in * grid.f * phi, d)
                v = complex(outside * at_edges[at_x])
                by_order.append((m, f"{region}{m}", sign, v))
        terms += [SeriesTerm(*t) for t in sorted(by_order)]
    return terms


# valid media whose f is near the float limit
NEAR_LIMIT_STEP = PotentialSpec((
    Segment(0.0, 0.5, ConstantProfile(1e308)), Segment(0.5, 1.0, ConstantProfile(-1e308)),
))
NEAR_LIMIT_SAMPLED = PotentialSpec(
    (Segment(0.25, 1.0, SampledProfile(((0.0, 0.0), (3.47e-239, 1.0)))),)
)


@st.composite
def _born_cases(draw):
    n_segs = draw(st.integers(1, 3))
    xs = sorted(draw(st.lists(st.floats(-2.0, 2.0), min_size=n_segs + 1,
                              max_size=n_segs + 1, unique=True)))
    coef = st.floats(-1.0, 1.0)
    segs = []
    for a, b in zip(xs, xs[1:]):
        kind = draw(st.sampled_from(["constant", "linear", "sampled"]))
        if kind == "constant":
            profile = ConstantProfile(draw(coef))
        elif kind == "linear":
            profile = LinearProfile(draw(coef), draw(coef))
        else:
            px = sorted(draw(st.lists(st.floats(a - 0.3, b + 0.3), min_size=2,
                                      max_size=4, unique=True)))
            profile = SampledProfile(tuple((p, draw(coef)) for p in px))
        segs.append(Segment(a, b, profile))
    spec = PotentialSpec(tuple(segs))
    bps = spec.breakpoints()
    point = st.one_of(st.sampled_from(bps), st.floats(bps[0], bps[-1]),
                      st.floats(-4.0, 4.0))
    im_k = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(50.0, 400.0))
    k = complex(draw(st.floats(0.1, 5.0)), draw(im_k))
    return spec, draw(point), draw(point), k, draw(st.integers(0, 4)), draw(
        st.integers(1, 16))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_born_cases())
# a one-panel medium: one segment, x and y outside it, at small k
@example(case=(slab(0.3, 0.0, 0.5), 1.2, -0.4, 0.8 + 0.1j, 4, 5))
# x and y on breakpoints of a sloped and a sampled segment, at large Im k
@example(case=(PotentialSpec((
    Segment(-1.0, 0.5, LinearProfile(0.1, -0.2)),
    Segment(0.5, 1.0, SampledProfile(((0.2, 0.1), (0.7, -0.3), (1.4, 0.2)))),
)), 0.7, -1.0, 1.3 + 300j, 3, 16))
# node arrays of over 256 KiB, where numpy reuses temporaries in place,
# and a recurrence over 8250 panels
@example(case=(PotentialSpec((Segment(0.0, 1.0, LinearProfile(0.2, 0.1)),)),
               0.8, 0.2, 2000 + 0.5j, 2, 16))
@example(case=(slab(0.2, 0.0, 1.0), 0.8, 0.2, 16500 + 0.1j, 2, 2))
# f is finite but 2.9e238 at x = 1, its samples 3.5e-239 apart: the terms
# overflow, and a full run once drew such a medium where a run of this file
# alone did not
@example(case=(NEAR_LIMIT_SAMPLED, 0.8, 0.3, 1 + 0.1j, 2, 32))
def test_stacked_pass_keeps_the_bits_of_the_per_region_pass(case):
    spec, x, y, k, max_order, n_nodes = case
    with np.errstate(all="ignore"):
        want = per_region_terms(spec, x, y, k, max_order, n_nodes)
    try:
        _, terms = born_series(spec, x, y, k, max_order, n_nodes)
    except ResonanceDivision:
        # only where the per-region pass leaves the float range as well
        assert not all(np.isfinite(t.value) for t in want)
        return
    assert repr(terms) == repr(want)


@pytest.mark.parametrize(
    "spec, x, y, order",
    [(NEAR_LIMIT_STEP, 0.8, 0.1, 1), (NEAR_LIMIT_STEP, 0.8, 0.1, 2),
     (NEAR_LIMIT_SAMPLED, 0.8, 0.3, 2)],
    ids=["step-order-1", "step-order-2", "sampled-order-2"],
)
def test_a_term_past_the_float_range_raises(spec, x, y, order):
    # a valid medium whose f is near the float limit: born_series returned
    # nan and leaked numpy RuntimeWarnings
    with pytest.raises(ResonanceDivision, match="leaves the float range"):
        born_series(spec, x, y, 1 + 0.1j, max_order=order)


def test_born_memory_stays_near_the_per_region_pass():
    # the stacked pass holds both regions at once; the per-region pass
    # peaked at 35.7 MB at this call (7500 panels of 32 nodes), at any order
    spec = slab(0.2, 0.0, 1.0)
    born_series(spec, 0.8, 0.2, 1.0, max_order=1, n_nodes=32)  # the rule, cached
    for order in (1, 3):
        tracemalloc.start()
        try:
            born_series(spec, 0.8, 0.2, 15000 + 0.1j, max_order=order, n_nodes=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 35.7e6
