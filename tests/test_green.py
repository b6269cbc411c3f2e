import numpy as np
import pytest

from gf1d.errors import ConfigError
from gf1d.green import (
    green_closed_form,
    green_negative_power,
    green_polyrep,
    green_power,
    green_product,
    jump_condition_check,
)
from gf1d.potential import ConstantProfile, PotentialSpec, Segment, slab, vacuum_spec
from gf1d.sl3 import green_wronskian
from gf1d.transfer import semi_infinite_coefficients

SPEC = PotentialSpec(
    segments=(
        Segment(-0.5, 0.1, ConstantProfile(1.1)),
        Segment(0.1, 0.8, ConstantProfile(-0.7)),
    )
)
KS = (1.2, 0.7 + 0.5j, 2.1 + 0.1j)


def test_free_space_kernel():
    vac = vacuum_spec()
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


def test_negative_power_identity():
    for k in KS[:2]:
        b = 2j * k * green_closed_form(SPEC, 0.5, -0.2, k).value
        for n in (1, 2, 3):
            gn = green_negative_power(SPEC, 0.5, -0.2, k, n, P=64)
            assert abs(gn.value * b**n - 1.0) < 1e-9


def test_negative_power_vacuum_phase():
    vac = vacuum_spec()
    k = 1.3 + 0.2j
    g = green_negative_power(vac, 0.9, 0.1, k, 2, P=24)
    assert abs(g.value - np.exp(-2j * k * 0.8)) < 1e-13


def test_product_identities():
    k = 1.1 + 0.3j
    pairs2 = [(0.6, -0.3), (0.45, -0.1)]
    want = 1.0
    for x, y in pairs2:
        want *= 2j * k * green_closed_form(SPEC, x, y, k).value
    got = green_product(SPEC, pairs2, k, P=96)
    assert abs(got.value - want) < 1e-9
    pairs3 = pairs2 + [(0.3, 0.05)]
    want *= 2j * k * green_closed_form(SPEC, 0.3, 0.05, k).value
    got = green_product(SPEC, pairs3, k, P=96)
    assert abs(got.value - want) < 1e-8
    with pytest.raises(ValueError):
        green_product(SPEC, [(0.5, 0.2)], k)


def test_product_handles_unsorted_pairs():
    k = 1.1 + 0.3j
    a = green_product(SPEC, [(-0.3, 0.6), (-0.1, 0.45)], k, P=64).value
    b = green_product(SPEC, [(0.6, -0.3), (0.45, -0.1)], k, P=64).value
    assert abs(a - b) < 1e-14


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
