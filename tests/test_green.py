import cmath
import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from documents import TAILED_SLAB
from gf1d import transfer
from gf1d.born import born_series
from gf1d.cli import main
from gf1d.errors import ConfigError, ResonanceDivision, StepTooLarge
from gf1d.green import (
    green_closed_form,
    green_negative_power,
    green_polyrep,
    green_power,
    green_product,
    jump_condition_check,
)
from gf1d.polyrep import PolyVec, apply_generator, inverse_operator
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    Segment,
    slab,
)
from gf1d.sl3 import green_wronskian
from gf1d.verify import TOLERANCES
from gf1d.transfer import propagate, riccati_coefficients, semi_infinite_coefficients

SPEC = PotentialSpec(
    segments=(
        Segment(-0.5, 0.1, ConstantProfile(1.1)),
        Segment(0.1, 0.8, ConstantProfile(-0.7)),
    )
)
KS = (1.2, 0.7 + 0.5j, 2.1 + 0.1j)


def test_free_space_kernel():
    vac = PotentialSpec()
    for k in KS:
        for x in np.linspace(-2, 2, 9):
            for y in np.linspace(-2, 2, 9):
                g = green_closed_form(vac, x, y, k)
                want = np.exp(1j * k * abs(x - y))
                assert abs(2j * k * g.value - want) < 1e-13


def test_kernel_is_symmetric():
    for k in KS:
        a = green_closed_form(SPEC, 0.6, -0.2, k).value
        b = green_closed_form(SPEC, -0.2, 0.6, k).value
        assert a == b


def test_coincident_point_closed_form():
    for k in KS:
        for x in (-0.3, 0.1, 0.55):
            g = green_closed_form(SPEC, x, x, k)
            rr, rl = semi_infinite_coefficients(SPEC, x, k)
            want = (1.0 + rl) * (1.0 + rr) / (1.0 - rl * rr)
            assert abs(2j * k * g.value - want) < 1e-13


def test_closed_form_with_constant_tail():
    spec = PotentialSpec(
        segments=(Segment(0.0, 1.0, ConstantProfile(0.4)),),
        left_tail=1.5,
    )
    # below the tail barrier the kernel must decay to the left
    k = 0.8 + 0.0j
    g1 = green_closed_form(spec, -1.0, 0.5, k)
    g2 = green_closed_form(spec, -3.0, 0.5, k)
    assert abs(g2.value) < abs(g1.value)


def test_polyrep_routes_match_closed_form():
    for k in KS:
        for x, y in ((0.6, -0.3), (0.0, 0.0), (-0.45, 0.7)):
            gb = green_closed_form(SPEC, x, y, k)
            for variant in ("symmetric", "asymmetric"):
                gc = green_polyrep(SPEC, x, y, k, P=64, variant=variant)
                assert abs(gc.value - gb.value) < 1e-12 + gc.truncation_loss


def test_polyrep_outside_support():
    gb = green_closed_form(SPEC, 1.5, -1.2, 0.9 + 0.2j)
    gc = green_polyrep(SPEC, 1.5, -1.2, 0.9 + 0.2j, P=64)
    assert abs(gc.value - gb.value) < 1e-12


def test_power_identity():
    for k in KS[:2]:
        b = 2j * k * green_closed_form(SPEC, 0.5, -0.2, k).value
        for n in (1, 2, 3):
            gp = green_power(SPEC, 0.5, -0.2, k, n, P=64)
            assert abs(gp.value - b**n) < 1e-10
    with pytest.raises(ValueError):
        green_power(SPEC, 0.5, -0.2, 1.0, 0)


@pytest.mark.parametrize("n", [1.5, 2.5])
def test_fractional_power_is_the_principal_power(n):
    # the chain's rows carry fractional weights: its seeds are
    # (1 + R)**n (mu / (1 - R xi))**n, and apply_U raises tau to the weight
    media = (
        SPEC,
        slab(0.8, -0.5, 0.5),
        PotentialSpec(segments=SPEC.segments, left_tail=0.3),
        PotentialSpec(
            tuple(Segment(a, a + 0.4, ConstantProfile(c)) for a, c in
                  ((-0.6, 0.9), (-0.2, -1.2), (0.2, 0.5)))
        ),
    )
    for spec in media:
        for k in (*KS, 1.3 + 0.2j, 0.5 + 1.0j):
            for x, y in ((0.5, -0.2), (0.3, 0.3), (-0.4, 0.7)):
                ref = (2j * k * green_closed_form(spec, x, y, k).value) ** n
                gp = green_power(spec, x, y, k, n, P=96)
                allowed = 1e-8 * max(1.0, abs(ref)) + gp.truncation_loss
                assert abs(gp.value - ref) <= allowed


def test_negative_power_identity():
    for k in KS[:2]:
        b = 2j * k * green_closed_form(SPEC, 0.5, -0.2, k).value
        for n in (1, 2, 3):
            gn = green_negative_power(SPEC, 0.5, -0.2, k, n, P=64)
            assert abs(gn.value * b**n - 1.0) < 1e-9


def test_negative_power_vacuum_phase():
    vac = PotentialSpec()
    k = 1.3 + 0.2j
    g = green_negative_power(vac, 0.9, 0.1, k, 2, P=24)
    assert abs(g.value - np.exp(-2j * k * 0.8)) < 1e-13


def test_product_identities():
    k = 1.1 + 0.3j
    # nested, crossing and reversed pairs
    pairs = [(0.6, -0.3), (0.45, -0.1), (0.3, 0.05), (0.7, -0.4), (-0.2, 0.5)]
    values = [2j * k * green_closed_form(SPEC, x, y, k).value for x, y in pairs]
    for m in (2, 3, 4, 5):
        got = green_product(SPEC, pairs[:m], k, P=96)
        assert abs(got.value - math.prod(values[:m])) < 1e-9
    # one pair is route C's 2ikG
    one = green_product(SPEC, [(0.5, 0.2)], k).value
    assert abs(one - 2j * k * green_polyrep(SPEC, 0.5, 0.2, k).value) < 1e-14


def test_product_handles_unsorted_pairs():
    k = 1.1 + 0.3j
    a = green_product(SPEC, [(-0.3, 0.6), (-0.1, 0.45)], k, P=64).value
    b = green_product(SPEC, [(0.6, -0.3), (0.45, -0.1)], k, P=64).value
    assert abs(a - b) < 1e-14


def _route_b_product(spec, pairs, k):
    return math.prod(2j * k * green_closed_form(spec, x, y, k).value for x, y in pairs)


def test_product_walks_forward_when_an_order_allows_it():
    # in the caller's order the chain steps back from -0.7 to -2.0 and its
    # series grew to 9e30 times the value, with loss inf; sorted by y the
    # walk is forward and exact
    spec, k = slab(0.8, -1, 1), 2.36 + 1.54j
    pairs = [(1.9, -0.7), (-0.4, -2.0)]
    got = green_product(spec, pairs, k, P=64)
    want = _route_b_product(spec, pairs, k)
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert (got.x, got.y) == (-0.4, -0.7)  # the caller's x_m and y_1


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_products_with_a_forward_order_agree_with_route_b(data):
    # 2m points split into y_1 <= .. <= y_m <= x_1 <= .. <= x_m, then paired,
    # shuffled and each pair given either way round
    m = data.draw(st.integers(2, 3))
    pts = sorted(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * m, max_size=2 * m)))
    pairs = data.draw(st.permutations(list(zip(pts[m:], pts[:m]))))
    flips = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    pairs = [(y, x) if f else (x, y) for (x, y), f in zip(pairs, flips)]
    k = complex(data.draw(st.floats(0.5, 3.0)), data.draw(st.floats(0.0, 2.0)))
    spec = slab(0.8, -1, 1)
    got = green_product(spec, pairs, k, P=64)
    err = abs(got.value - _route_b_product(spec, pairs, k))
    # a forward walk has no link whose series grows: its loss is bounded
    assert math.isfinite(got.truncation_loss)
    assert err <= TOLERANCES["product-identity"] + got.truncation_loss


_SMOOTH = PotentialSpec(
    segments=(
        Segment(-1.0, -0.2, ConstantProfile(0.7)),
        Segment(-0.2, 0.5, LinearProfile(-0.4, 0.6)),
        Segment(0.5, 1.0, ConstantProfile(1.1)),
    ),
    left_tail=0.6,
    right_tail=-0.4,
)
_RK4 = {"method": "rk4", "step": 1e-3}


@pytest.mark.parametrize("k", [1.1 + 0.3j, 0.5 + 0.2j, 2 + 0.05j])
def test_series_routes_with_constant_tails_under_rk4(k):
    # route C, its powers and its products on a medium with constant tails
    # and a linear piece, against route B on the same sweep method
    def b(x, y):
        return 2j * k * green_closed_form(_SMOOTH, x, y, k, **_RK4).value

    def check(value, loss, want):
        # the chains of three or more factors can report an infinite loss,
        # which would bound nothing; their relative error is below 2e-14
        slack = loss if math.isfinite(loss) else 0.0
        assert abs(value - want) <= 1e-10 * max(1.0, abs(want)) + slack

    for x, y in ((0.6, -0.3), (1.3, -1.4), (-0.5, 0.8)):
        want = b(x, y)
        for variant in ("symmetric", "asymmetric"):
            g = green_polyrep(_SMOOTH, x, y, k, variant=variant, **_RK4)
            check(2j * k * g.value, g.truncation_loss, want)
        for g, w in (
            (green_power(_SMOOTH, x, y, k, 2, **_RK4), want**2),
            (green_negative_power(_SMOOTH, x, y, k, 1, **_RK4), 1.0 / want),
        ):
            check(g.value, g.truncation_loss, w)
    pairs = [(0.6, -0.3), (-0.1, 0.45), (1.3, -1.4), (0.2, 0.1), (-0.8, 0.9)]
    values = [b(x, y) for x, y in pairs]
    for m in (2, 3, 4, 5):
        g = green_product(_SMOOTH, pairs[:m], k, P=96, **_RK4)
        check(g.value, g.truncation_loss, math.prod(values[:m]))


def test_jump_condition():
    for k in (1.2 + 0.4j, 2.0):
        r = jump_condition_check(slab(0.9, -0.5, 0.5), 0.12, k, h=1e-4)
        assert r < 1e-6


def test_jump_condition_second_order():
    r1 = jump_condition_check(slab(0.9, -0.5, 0.5), 0.12, 1.5, h=2e-3)
    r2 = jump_condition_check(slab(0.9, -0.5, 0.5), 0.12, 1.5, h=1e-3)
    assert 3.2 <= r1 / r2 <= 4.8


@pytest.mark.parametrize("k", [0.0, float("nan"), complex(1.0, float("inf")), 1 - 0.5j])
@pytest.mark.parametrize(
    "route",
    [
        lambda spec, k: green_closed_form(spec, 0.3, -0.2, k),
        lambda spec, k: green_polyrep(spec, 0.3, -0.2, k, P=8),
        lambda spec, k: green_power(spec, 0.3, -0.2, k, 2, P=8),
        lambda spec, k: green_negative_power(spec, 0.3, -0.2, k, 1, P=8),
        lambda spec, k: green_product(spec, [(0.3, -0.2), (0.1, 0.0)], k, P=8),
        lambda spec, k: green_wronskian(spec, 0.3, -0.2, k),
    ],
    ids=["B", "C", "power", "negative_power", "product", "A"],
)
def test_routes_reject_wavenumbers_outside_domain(route, k):
    with pytest.raises(ConfigError):
        route(slab(0.8, -1, 1), k)


_POINT_ROUTES = {
    "B": lambda spec, x, y: green_closed_form(spec, x, y, 1.1),
    "C": lambda spec, x, y: green_polyrep(spec, x, y, 1.1, P=8),
    "power": lambda spec, x, y: green_power(spec, x, y, 1.1, 2, P=8),
    "negative_power": lambda spec, x, y: green_negative_power(spec, x, y, 1.1, 1, P=8),
    "product_first": lambda spec, x, y: green_product(spec, [(x, y), (0.1, 0.0)], 1.1, P=8),
    "product_last": lambda spec, x, y: green_product(spec, [(0.1, 0.0), (x, y)], 1.1, P=8),
    "A": lambda spec, x, y: green_wronskian(spec, x, y, 1.1),
    "born": lambda spec, x, y: born_series(spec, x, y, 1.1, max_order=1),
}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("route", list(_POINT_ROUTES))
def test_routes_reject_points_outside_domain(route, bad):
    for x, y, field in ((bad, -0.2, "x"), (0.3, bad, "y")):
        with pytest.raises(ConfigError) as err:
            _POINT_ROUTES[route](slab(0.8, -1, 1), x, y)
        assert err.value.field == field


_SLAB, _K = slab(0.8, -0.5, 0.5), 1.2 + 0.2j


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: green_polyrep(SPEC, 0.3, -0.2, 1.1, P=8, variant="mixed"), "variant"),
        (lambda: green_power(SPEC, 0.3, -0.2, 1.1, 0, P=8), "n"),
        (lambda: green_negative_power(SPEC, 0.3, -0.2, 1.1, 0, P=8), "n"),
        (lambda: green_product(SPEC, [], 1.1, P=8), "pairs"),
        (lambda: propagate(SPEC, 0.5, -0.5, 1.1), "x2"),
        (lambda: riccati_coefficients(SPEC, 0.5, -0.5, 1.1), "x2"),
        (lambda: apply_generator("M+", PolyVec({1: [1.0]}, P=4)), "name"),
        (lambda: inverse_operator("M+inv", PolyVec({2: [1.0]}, P=4)), "name"),
        (lambda: green_negative_power(_SLAB, 0.3, -0.2, _K, 2.0), "n"),
        (lambda: green_negative_power(_SLAB, 0.3, -0.2, _K, 1.5), "n"),
        (lambda: green_negative_power(_SLAB, 0.3, -0.2, _K, math.inf), "n"),
        (lambda: green_power(_SLAB, 0.3, -0.2, _K, math.nan), "n"),
        (lambda: green_power(_SLAB, 0.3, -0.2, _K, math.inf), "n"),
        (lambda: green_polyrep(_SLAB, 0.3, -0.2, _K, P=2.5), "P"),
        (lambda: green_polyrep(_SLAB, 0.3, -0.2, _K, P=3.0), "P"),
        (lambda: green_negative_power(_SLAB, 0.3, -0.2, _K, 1, P=2.5), "P"),
        (lambda: green_product(_SLAB, [(0.3, -0.2)] * 2, _K, P=3.0), "P"),
    ],
    ids=[
        "variant", "power", "negative_power", "product", "propagate", "riccati",
        "apply_generator", "inverse_operator",
        "negative_power_float_n", "negative_power_fractional_n",
        "negative_power_inf_n", "power_nan_n", "power_inf_n",
        "polyrep_fractional_P", "polyrep_float_P", "negative_power_fractional_P",
        "product_float_P",
    ],
)
def test_input_errors_name_their_field(call, field):
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.field == field


def test_product_loss_is_finite_and_bounds_the_cutoff_change():
    # the last coefficients of a chain vector sit at rounding level, and
    # their ratio used to make this loss infinite
    k = 0.8 + 0.5j
    pairs = [(0.6, -0.3), (0.45, -0.1), (0.3, 0.05)]
    a = green_product(SPEC, pairs, k, P=36)
    b = green_product(SPEC, pairs, k, P=72)
    assert math.isfinite(a.truncation_loss)
    assert abs(a.value - b.value) <= a.truncation_loss


@pytest.mark.parametrize(
    "spec, x, y, k",
    [(PotentialSpec(), 30.0, -30.0, 1 + 20j), (slab(0.8, -10, 10), 9.0, -9.0, 1 + 60j)],
    ids=["vacuum", "slab"],
)
def test_large_im_k_underflows_to_zero(spec, x, y, k):
    # |2ikG| ~ exp(-Im k |x - y|) underflows; it used to raise OverflowError
    for route in (green_closed_form, green_wronskian):
        v = 2j * k * route(spec, x, y, k).value
        assert cmath.isfinite(v) and abs(v) <= 1e-200


def test_wronskian_across_x0_names_an_overflowing_solution():
    # both points far right of the support midpoint x0: the left-decaying
    # solution grows like 1 / tau(x0, y), which leaves the float range
    with pytest.raises(ResonanceDivision):
        green_wronskian(slab(0.8, -10, 10), 12.5, 12.4, 1 + 60j)
    near = green_wronskian(slab(0.8, -10, 10), 9.5, 9.4, 1 + 60j).value
    assert abs(near - green_closed_form(slab(0.8, -10, 10), 9.5, 9.4, 1 + 60j).value) < 1e-12


def test_rk4_on_a_long_piece_underflows_without_warning():
    # Im k * width = 1200 on one linear piece: a single Magnus run
    # overflowed U and returned nan
    spec = PotentialSpec(segments=(Segment(0.0, 60.0, LinearProfile(0.5, -0.01)),))
    k = 1 + 20j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = green_closed_form(spec, 50.0, 10.0, k, method="rk4", step=1e-2).value
    assert cmath.isfinite(v) and abs(2j * k * v) <= 1e-200


@pytest.mark.parametrize("k", [1e150, 1e300])
def test_rk4_at_a_huge_wavenumber_is_named(k):
    # |k| h ~ 1e297 squared overflows in the Magnus exponent: k = 1e300 gave
    # nan+nanj, since a NaN step-doubling error passed the check, and
    # k = 1e150 warned of overflow
    spec = PotentialSpec(segments=(Segment(-0.5, 0.5, LinearProfile(0.2, 0.6)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge):
            green_closed_form(spec, 0.3, -0.2, k, method="rk4")


def test_value_path_never_propagates(monkeypatch, tmp_path, capsys):
    # reversed intervals come from forward spans: the matrix oracle is
    # reserved for verify
    def oracle_only(*args, **kwargs):
        raise AssertionError("the value path called the matrix oracle")

    for name in ("propagate", "invert", "compose"):
        monkeypatch.setattr(transfer, name, oracle_only)
    spec = PotentialSpec(segments=SPEC.segments, left_tail=0.6)
    k = 1.1 + 0.3j
    x, y = 0.6, -0.3
    for route in (green_wronskian, green_closed_form):
        assert cmath.isfinite(route(spec, x, y, k).value)
    for variant in ("symmetric", "asymmetric"):
        v = green_polyrep(spec, x, y, k, P=32, variant=variant).value
        assert cmath.isfinite(v)
    assert cmath.isfinite(green_power(spec, x, y, k, 2, P=32).value)
    assert cmath.isfinite(green_negative_power(spec, x, y, k, 1, P=32).value)
    # nested pairs: the chain steps back from x_1 to x_2 (and x_3), and
    # from y_1 to y_2 when the inner pair comes first
    for pairs in (
        [(0.6, -0.3), (0.45, -0.1)],
        [(0.45, -0.1), (0.6, -0.3)],
        [(0.6, -0.3), (0.45, -0.1), (0.3, 0.05)],
    ):
        assert cmath.isfinite(green_product(spec, pairs, k, P=48).value)
    p = tmp_path / "pot.yaml"
    p.write_text(TAILED_SLAB)
    argv = ["coefficients", "--potential", str(p), "--k", "1.1,0.3"]
    assert main(argv + ["--interval=0.4:-0.8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("n", [1500, 2000, 3000, 4000, 10**6])
def test_large_power_is_finite_or_named(n):
    # the coefficients of Lambda_r**n leave the float range near n = 2000:
    # they gave nan, a RuntimeWarning or a bare OverflowError
    spec, k = slab(0.8, -0.5, 0.5), 1.2 + 0.2j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if n > 1500:
            with pytest.raises(ResonanceDivision):
                green_power(spec, 0.3, -0.2, k, n)
            return
        gv = green_power(spec, 0.3, -0.2, k, n)
    assert cmath.isfinite(gv.value) and gv.truncation_loss == math.inf


@pytest.mark.parametrize("n", [100, 200])
def test_large_negative_power_is_named(n):
    # n = 100 ended in a bare OverflowError from the factorials of the
    # normalization, and n = 200 in a DomainViolation once the series
    # underflowed to zero
    with pytest.raises(ResonanceDivision, match="leaves the float range"):
        green_negative_power(slab(0.8, -0.5, 0.5), 0.3, -0.2, 1.2 + 0.2j, n)


def test_negative_power_of_an_underflowed_evolution_is_named():
    # tau = e^(-1200) underflows, and with it every coefficient of the
    # evolved series: that ended in a bare ValueError
    with pytest.raises(ResonanceDivision, match="leaves the float range"):
        green_negative_power(PotentialSpec(), 30.0, -30.0, 1.0 + 20j, 1)


@pytest.mark.parametrize("m", [100, 170, 200])
def test_long_product_is_finite_or_named(m):
    # the chain of m pairs grows like m! (m-1)!: without its guard, 100
    # pairs warned of an overflow and 170 gave nan+nanj
    gv = None
    with contextlib.suppress(ResonanceDivision):
        gv = green_product(slab(0.8, -0.5, 0.5), [(0.3, -0.2)] * m, 1.2 + 0.2j)
    assert gv is None or cmath.isfinite(gv.value)


@pytest.mark.parametrize("k", [1e300, -1e300, 1e155 + 1.0j])
def test_huge_wavenumber_is_transparent(k):
    # at |k| >> |c| the medium lets the wave through: |2ikG| = e^{-Im k |x - y|};
    # past |k| = 1.3e154 it used to be nan + nanj
    tails = PotentialSpec(slab(0.5).segments, left_tail=0.3, right_tail=-0.2)
    for spec in (slab(0.5), tails):
        for route in (green_closed_form, green_wronskian):
            value = 2j * k * route(spec, 0.5, 0.2, k).value
            assert cmath.isfinite(value)
            assert abs(abs(value) - math.exp(-0.3 * k.imag if k.imag else 0.0)) < 1e-9
