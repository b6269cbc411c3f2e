import cmath
import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from documents import POLE_K, POLE_POT, TAILED_SLAB
from gf1d import transfer
from gf1d.born import born_series
from gf1d.cli import main
from gf1d.errors import ConfigError, DenominatorZero, ResonanceDivision, StepTooLarge
from gf1d.green import (
    _denominator,
    closed_form_at,
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
    load_potential,
    slab,
)
from gf1d.sl3 import green_wronskian
from gf1d.verify import TOLERANCES
from gf1d.transfer import (
    Sweep,
    propagate,
    riccati_coefficients,
    semi_infinite_coefficients,
)

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


@pytest.mark.parametrize("k", [0.8 + 0.3j, POLE_K], ids=["off-pole", "pole"])
def test_closed_form_row_is_the_single_pairs(k):
    # every pair of a grid on one shared sweep, read against a fresh sweep
    # per pair: the same bits, and at a bound state the same pole pairs with
    # the same message
    spec = load_potential(io.StringIO(POLE_POT))
    grid = np.linspace(-1.6, 1.6, 7).tolist()
    shared = Sweep(spec, k)
    poles = 0
    for i, y in enumerate(grid):
        for x in grid[i:]:
            fresh = Sweep(spec, k)
            try:
                want = closed_form_at(fresh, *fresh.points((y, x)))
            except DenominatorZero as exc:
                with pytest.raises(DenominatorZero) as got:
                    closed_form_at(shared, *shared.points((y, x)))
                assert str(got.value) == str(exc)
                poles += 1
            else:
                assert repr(closed_form_at(shared, *shared.points((y, x)))) == repr(want)
                assert repr(green_closed_form(spec, y, x, k).value) == repr(want[0])
    assert poles == (28 if k == POLE_K else 0)


@st.composite
def _grids(draw):
    """(spec, grid, k, method): 1-3 constant pieces with constant or vacuum
    tails, and sorted points on breakpoints, between them and outside the
    support, equal points among them."""
    x, segs = draw(st.floats(-1.5, 0.0)), []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.floats(0.2, 1.2))
        segs.append(Segment(x, x + w, ConstantProfile(draw(st.floats(-1.5, 1.5)))))
        x += w
    tail = st.one_of(st.none(), st.floats(-1.0, 1.0))
    spec = PotentialSpec(tuple(segs), draw(tail), draw(tail))
    bps = spec.breakpoints()
    points = sorted({
        *bps,
        *(0.5 * (a + b) for a, b in zip(bps, bps[1:])),
        bps[0] - 1.3, bps[0] - 0.6, bps[-1] + 0.4, bps[-1] + 1.1,
    })
    grid = sorted(draw(st.lists(st.sampled_from(points), min_size=1, max_size=7)))
    k = complex(draw(st.floats(0.3, 2.5)), draw(st.floats(0.05, 1.0)))
    return spec, grid, k, "exact_piecewise"


def _resumed_row(sweep, points, a):
    """Route B along row a of the sweep's table, one pair at a time and a
    pole's message in its place, as the CLI reads it."""
    got = []
    for p in points[a:]:
        try:
            got.append(repr(closed_form_at(sweep, points[a], p)))
        except DenominatorZero as exc:
            got.append(str(exc))
    return got


def _fresh_span(sweep, y, x):
    """repr of the span of [y, x] read as a lone span of the sweep."""
    return repr(sweep.between(*sweep.points((y, x))))


def _fresh_value(spec, x, y, k, method):
    """Route B at (x, y), x >= y, from a fresh sweep, or a pole's message;
    also from the lone reads R_l(inf, x), span [y, x] and R_r(y, -inf) of
    another fresh sweep and the closed form, which must agree bit for bit."""
    fresh = Sweep(spec, k, method, 0.01)
    try:
        value = repr(closed_form_at(fresh, *fresh.points((y, x))))
    except DenominatorZero as exc:
        value = str(exc)
    sweep = Sweep(spec, k, method, 0.01)
    (p,), (q,) = sweep.points([x]), sweep.points([y])
    rl3, t, rr1 = sweep.rl_of(p), sweep.between(q, p), sweep.rr_of(q)
    try:
        d = _denominator(sweep.k, rl3, t, rr1)
    except DenominatorZero as exc:
        assert value == str(exc)
    else:
        g = (1.0 + rl3) * t[0] * (1.0 + rr1) / d / (2j * sweep.k)
        assert value == repr((g, 0.0))
    return value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_grids())
# equal points, as --grid=1:1.0000000000000002:3 gives them, on an edge
@example(case=(load_potential(io.StringIO(POLE_POT)), [1.0, 1.0, 1.0 + 2**-52],
               0.8 + 0.3j, "exact_piecewise"))
@example(case=(load_potential(io.StringIO(POLE_POT)), [-1.6, -1.0, 0.3, 1.0, 1.6],
               POLE_K, "exact_piecewise"))
# a linear medium under rk4, the grid reaching past both edges
@example(case=(PotentialSpec((Segment(0.0, 1.0, LinearProfile(0.2, 0.6)),)),
               [-0.3, 0.0, 0.3, 0.3, 0.8, 1.0, 1.4], 1.2 + 0.3j, "rk4"))
def test_table_rows_are_fresh_per_pair_sweeps(case):
    # the spans and route B values read along each row of one sweep's table
    # have the bits of a fresh sweep per pair, and a pole its message
    spec, grid, k, method = case
    shared = Sweep(spec, k, method, 0.01)
    points = shared.points(grid)
    for a, y in enumerate(grid):
        spans = [repr(shared.between(points[a], p)) for p in points[a:]]
        fresh = [_fresh_span(Sweep(spec, k, method, 0.01), y, x) for x in grid[a:]]
        assert spans == fresh
        want = [_fresh_value(spec, x, y, k, method) for x in grid[a:]]
        assert _resumed_row(shared, points, a) == want


@pytest.mark.xfail(strict=True, reason="route C at |R| = 1 sums a divergent series")
def test_polyrep_at_unit_reflection_agrees_with_closed_form():
    # f = 1 in both tails and 0 on [-1, 1] at real k below the threshold:
    # |R| = 1 at the edges.  At P = 24 route C gives 2ikG = 29.05+29.48i with
    # truncation loss 0.0, where route B gives 29.05i
    spec = load_potential(io.StringIO(POLE_POT))
    k = 0.5249332646611294
    c = green_polyrep(spec, 0.3, -0.2, k, P=24)
    b = green_closed_form(spec, 0.3, -0.2, k)
    err = abs(2j * k * c.value - 2j * k * b.value)
    assert err <= TOLERANCES["route-polyrep-vs-closed"] + c.truncation_loss


# the series routes' values and truncation losses on two media: one whose
# product chains walk forward, and one whose chains take reversed links
_SERIES_MEDIA = {
    "forward": (
        PotentialSpec(
            tuple(
                Segment(a, b, ConstantProfile(c))
                for a, b, c in ((-0.8, -0.2, 0.7), (-0.2, 0.3, -0.4), (0.3, 0.9, 0.5))
            ),
            left_tail=0.1,
        ),
        (0.6, -0.5),
        [(0.5, -0.6), (0.7, -0.2), (0.9, 0.1)],
    ),
    "reversed": (
        PotentialSpec((Segment(-0.5, 0.5, ConstantProfile(0.8)),), right_tail=0.25),
        (-0.3, 0.4),
        [(0.4, -0.3), (0.1, 0.0), (0.3, -0.1)],
    ),
}
_SERIES_PINNED = {
    "forward": (
        ((0.2982271841537677-0.0757451505247116j), 2.6549462706032225e-20),
        ((0.29822718415376775-0.07574515052471162j), 5.2417988851043506e-20),
        ((-0.6431053624556473+0.12511784987283198j), 2.809734840081239e-20),
        ((-0.5039796618530187-0.30567925204340113j), 2.298320145288561e-20),
        ((0.11851474988872882-1.2297525016826918j), 1.0105301933284564e-20),
        ((-0.6834011235587875+0.2593415778813135j), 1.1194834787033287e-16),
        ((-0.33824096234885453-0.4768182641398429j), 5.478248114319754e-16),
    ),
    "reversed": (
        ((0.15465964147361821-0.2740943323048599j), 5.8386678849642275e-12),
        ((0.15465964147361821-0.2740943323048599j), 1.0941053268358881e-11),
        ((0.1616255111427755+0.6660784158335793j), 1.6530050009742501e-10),
        ((-0.05924071338089574+0.6208228152382624j), 6.690610123515611e-10),
        ((0.9494811940339658-0.7466403538607567j), 5.482823525686905e-11),
        ((0.6845440855347413+0.47931599859669466j), 8.390780577216465e-09),
        ((0.45838853967697474+0.6460072764377185j), 6.848490112039206e-06),
    ),
}


@pytest.mark.parametrize("medium", sorted(_SERIES_PINNED))
def test_series_values_keep_their_bits(medium):
    spec, (x, y), pairs = _SERIES_MEDIA[medium]
    k, P = 1.3 + 0.2j, 32
    values = [
        green_polyrep(spec, x, y, k, P=P),
        green_polyrep(spec, x, y, k, P=P, variant="asymmetric"),
        green_power(spec, x, y, k, 2, P=P),
        green_power(spec, x, y, k, 2.5, P=P),
        green_negative_power(spec, x, y, k, 1, P=P),
        green_product(spec, pairs[:2], k, P=P),
        green_product(spec, pairs, k, P=P),
    ]
    got = [repr((v.value, float(v.truncation_loss))) for v in values]
    assert got == list(map(repr, _SERIES_PINNED[medium]))


# ---------------------------------------------------------------------------
# the shared sweep: consecutive public calls on one medium object and one k
# read one sweep (transfer._shared_sweep), and no value may depend on it


def _tailed_medium():
    """A fresh medium object, so that its first call misses the shared sweep."""
    return PotentialSpec(segments=SPEC.segments, left_tail=0.4, right_tail=-0.3)


def _linear_medium():
    return PotentialSpec(segments=(Segment(-0.5, 0.8, LinearProfile(0.2, 0.6)),))


@pytest.fixture
def built(monkeypatch):
    """Every sweep built while the test runs, in order."""
    sweeps = []

    class Spy(transfer.Sweep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sweeps.append(self)

    monkeypatch.setattr(transfer, "Sweep", Spy)
    return sweeps


_X, _Y, _P = 0.6, -0.3, 32
_PAIRS = [(0.6, -0.3), (0.45, -0.1), (0.3, 0.05)]
_RK4 = {"method": "rk4", "step": 0.01}


def _route_bundle(spec, linear, k):
    """(name, public call, the same reader on a fresh sweep) for every public
    route that takes the shared sweep."""
    from gf1d.green import _chain, polyrep_at
    from gf1d.sl3 import wronskian_at
    from gf1d.transfer import interval_triple

    def pair(s, x=_X, y=_Y):
        return s.points((y, x))

    def value(v):
        return (v.value, v.truncation_loss)

    def fresh(reader, medium=spec, **kw):
        return lambda: reader(Sweep(medium, k, **kw))

    def product(pairs):
        m = len(pairs)
        prefactor = (-1) ** (m - 1) / (math.factorial(m) * math.factorial(m - 1))

        def reader(s):
            val, loss = _chain(s, [s.points(p) for p in pairs], _P)
            return prefactor * val, loss

        return reader

    def semi_infinite(s):
        (p,) = s.points((_X,))
        return s.rr_of(p), s.rl_of(p)

    bundle = [
        ("A", lambda: value(green_wronskian(spec, _X, _Y, k)),
         fresh(lambda s: wronskian_at(s, *pair(s)))),
        ("B", lambda: value(green_closed_form(spec, _X, _Y, k)),
         fresh(lambda s: closed_form_at(s, *pair(s)))),
        ("C", lambda: value(green_polyrep(spec, _X, _Y, k, P=_P)),
         fresh(lambda s: polyrep_at(s, *pair(s), _P))),
        ("C-asym", lambda: value(green_polyrep(spec, _X, _Y, k, P=_P, variant="asymmetric")),
         fresh(lambda s: polyrep_at(s, *pair(s), _P, "asymmetric"))),
        ("product2", lambda: value(green_product(spec, _PAIRS[:2], k, P=_P)),
         fresh(product(_PAIRS[:2]))),
        ("product3", lambda: value(green_product(spec, _PAIRS, k, P=_P)),
         fresh(product(_PAIRS))),
        ("triple", lambda: interval_triple(spec, _Y, _X, k)[:3],
         fresh(lambda s: s.between(*pair(s))[:3])),
        ("triple-reversed", lambda: interval_triple(spec, _X, _Y, k)[:3],
         fresh(lambda s: s.between(*pair(s)[::-1])[:3])),
        ("semi-infinite", lambda: semi_infinite_coefficients(spec, _X, k),
         fresh(semi_infinite)),
        ("rk4-B", lambda: value(green_closed_form(linear, _X, _Y, k, **_RK4)),
         fresh(lambda s: closed_form_at(s, *pair(s)), linear, **_RK4)),
        ("rk4-A", lambda: value(green_wronskian(linear, _X, _Y, k, **_RK4)),
         fresh(lambda s: wronskian_at(s, *pair(s)), linear, **_RK4)),
    ]
    for n in (2, 2.5):
        def reader(s, n=n):
            val, loss = _chain(s, [pair(s)], _P, n)
            return val / n, loss

        bundle.append((f"power{n}", lambda n=n: value(green_power(spec, _X, _Y, k, n, P=_P)),
                       fresh(reader)))
    # no pair reader: the reference is the route on a medium object of its own,
    # equal by value, which builds its own sweep
    bundle.append((
        "negpower1", lambda: value(green_negative_power(spec, _X, _Y, k, 1, P=_P)),
        lambda: value(green_negative_power(
            PotentialSpec(spec.segments, spec.left_tail, spec.right_tail), _X, _Y, k, 1, P=_P
        )),
    ))
    return bundle


def test_shared_sweep_keeps_the_bits_of_a_fresh_one(built):
    spec, linear, k = _tailed_medium(), _linear_medium(), 1.1 + 0.3j
    bundle = _route_bundle(spec, linear, k)
    for calls in (bundle, bundle[::-1]):
        n = len(built)
        got = {name: repr(call()) for name, call, _ in calls}
        shared = len(built) - n
        want = {name: repr(reference()) for name, _, reference in calls}
        assert got == want
        # one sweep per medium in the forward order; the reversed order
        # enters the tailed medium's calls twice, after and before the rk4 ones
        assert shared <= 3


def test_shared_sweep_is_keyed_by_the_checked_k_and_the_medium_object(built):
    spec = _tailed_medium()
    green_closed_form(spec, _X, _Y, 1)
    # a bool is refused before any lookup, though True == 1
    with pytest.raises(ConfigError) as info:
        green_closed_form(spec, _X, _Y, True)
    assert info.value.field == "k"
    assert len(built) == 1
    green_closed_form(spec, _X, _Y, 1.0 + 0j)
    assert len(built) == 1
    # equal under ==, but not the same k
    green_closed_form(spec, _X, _Y, complex(1.0, -0.0))
    assert len(built) == 2 and built[1].k.imag == 0.0
    assert math.copysign(1.0, built[1].k.imag) == -1.0
    # a medium equal by value is another object
    twin = PotentialSpec(spec.segments, spec.left_tail, spec.right_tail)
    assert twin == spec
    green_closed_form(twin, _X, _Y, 1)
    assert len(built) == 3 and built[2].spec is twin
    # the step and its type key an rk4 sweep; exact_piecewise never reads it
    linear = _linear_medium()
    for step in (0.01, 0.01, 0.02, np.float64(0.02)):
        green_closed_form(linear, _X, _Y, 1.1 + 0.3j, method="rk4", step=step)
    assert len(built) == 6
    for step in (1e-3, 0.5):
        green_closed_form(spec, _X, _Y, 1.1 + 0.3j, step=step)
    assert len(built) == 7


def test_a_numpy_point_never_serves_a_float_point(built):
    # a numpy float's arithmetic rounds unlike a float's, so an entry made
    # for np.float64(0.6) must not serve 0.6 on the shared sweep
    spec, k = _tailed_medium(), 1.1 + 0.3j
    x, y = np.float64(_X), np.float64(_Y)
    green_closed_form(spec, x, y, k)
    got = green_closed_form(spec, _X, _Y, k).value
    assert len(built) == 1
    fresh = Sweep(spec, k)
    want = closed_form_at(fresh, *fresh.points((_Y, _X)))[0]
    assert repr(got) == repr(want)


def test_a_failed_call_leaves_the_shared_sweep_usable(built):
    from gf1d.transfer import interval_triple

    pole = load_potential(io.StringIO(POLE_POT))
    with pytest.raises(DenominatorZero):
        green_closed_form(pole, 0.3, -0.2, POLE_K)
    got = interval_triple(pole, -0.2, 0.3, POLE_K)
    fresh = Sweep(pole, POLE_K)
    assert repr(got[:3]) == repr(fresh.between(*fresh.points((-0.2, 0.3)))[:3])
    got = semi_infinite_coefficients(pole, 0.3, POLE_K)
    (p,) = fresh.points((0.3,))
    assert repr(got) == repr((fresh.rr_of(p), fresh.rl_of(p)))
    # f = 3x - 1.5 in three pieces at a coarse step: a span over all three
    # fails the summed step-doubling error, a span inside one piece passes
    ramp = PotentialSpec(
        segments=tuple(Segment(a, a + 0.5, LinearProfile(3.0 * a - 1.5, 3.0))
                       for a in (0.0, 0.5, 1.0))
    )
    k, rk4 = 1.2 + 0.3j, {"method": "rk4", "step": 0.05}
    with pytest.raises(StepTooLarge):
        interval_triple(ramp, 0.0, 1.5, k, **rk4)
    got = interval_triple(ramp, 0.6, 0.9, k, **rk4)
    fresh = Sweep(ramp, k, **rk4)
    assert repr(got[:3]) == repr(fresh.between(*fresh.points((0.6, 0.9)))[:3])
    # the remembered sweep served both calls after each failure
    assert [s.spec for s in built] == [pole, ramp]


def test_a_long_scan_keeps_the_shared_table_bounded(built):
    # route B along x at a fixed y: each call brings one new point
    spec, k, bound = _tailed_medium(), 1.1 + 0.3j, transfer._SHARED_POINTS
    xs = [-0.9 + 1.7 * i / (10 * bound) for i in range(10 * bound)]
    got = [repr(green_closed_form(spec, x, _Y, k).value) for x in xs]
    assert len(built) >= 10
    assert max(len(s._table) for s in built) <= bound
    want = []
    for x in xs:
        s = Sweep(spec, k)
        want.append(repr(closed_form_at(s, *s.points(sorted((x, _Y))))[0]))
    assert got == want


def test_the_point_series_bundle_builds_one_sweep(monkeypatch, built):
    # a point_series job's eight routes on one medium and k: 8 sweeps before
    # the shared sweep, and about 2.6 times the constant pieces
    pieces = []
    piece = transfer._constant_piece
    monkeypatch.setattr(transfer, "_constant_piece", lambda *a: pieces.append(a) or piece(*a))
    k = 1.3 + 0.4j
    counts = []
    for _ in range(2):
        spec = _tailed_medium()
        n, m = len(built), len(pieces)
        green_wronskian(spec, _X, _Y, k)
        green_closed_form(spec, _X, _Y, k)
        green_polyrep(spec, _X, _Y, k, P=64)
        green_polyrep(spec, _X, _Y, k, P=64, variant="asymmetric")
        green_power(spec, _X, _Y, k, 2, P=64)
        green_negative_power(spec, _X, _Y, k, 1, P=64)
        green_product(spec, _PAIRS[:2], k, P=64)
        green_product(spec, _PAIRS, k, P=128)
        counts.append((len(built) - n, len(pieces) - m))
    # a second medium object builds its own sweep, and the counts repeat
    assert counts[0] == counts[1]
    assert counts[0][0] == 1
    # each route on a sweep of its own composes the pieces again
    n = len(pieces)
    spec = _tailed_medium()
    green_wronskian(spec, _X, _Y, k)
    for _ in range(5):
        green_closed_form(PotentialSpec(spec.segments, spec.left_tail, spec.right_tail),
                          _X, _Y, k)
    assert len(pieces) - n > counts[0][1]


def test_threads_read_their_own_shared_sweeps():
    # Sweep._row extends a row by check-then-append: a sweep shared between
    # threads could append one span twice and shift the spans after it.  In
    # each round every thread runs the bundle on the same new medium object,
    # at one shared k and at a k of its own.
    import sys
    import threading
    import time

    # many slabs, so that extending a row is a long loop
    edges = np.linspace(-0.9, 0.9, 25).tolist()
    segments = tuple(
        Segment(a, b, ConstantProfile(0.9 * math.sin(3.0 * a))) for a, b in zip(edges, edges[1:])
    )
    spec = PotentialSpec(segments=segments, left_tail=0.4, right_tail=-0.3)
    linear = _linear_medium()
    shared_k, n_threads = 1.1 + 0.3j, 8
    ks = [shared_k] + [1.0 + 0.1 * i + 0.25j for i in range(n_threads)]
    reference = {
        k: {name: repr(call()) for name, call, _ in _route_bundle(spec, linear, k)}
        for k in ks
    }
    deadline = time.monotonic() + 2.0
    media, failures, go = [], [], []

    def next_round():  # run by one thread while the others wait
        go.append(time.monotonic() < deadline)
        media.append(PotentialSpec(spec.segments, spec.left_tail, spec.right_tail))

    barrier = threading.Barrier(n_threads, action=next_round, timeout=60)

    def work(own_k):
        try:
            while barrier.wait() is not None and go[-1]:
                medium = media[-1]
                for k in (shared_k, own_k):
                    for name, call, _ in _route_bundle(medium, linear, k):
                        if repr(call()) != reference[k][name]:
                            failures.append((k, name))
        except Exception as exc:  # reported below, not lost with the thread
            failures.append(repr(exc))
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in ks[1:]]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(media) > 2
