import numpy as np
import pytest

from gf1d.born import born_series, path_term_count
from gf1d.errors import ConfigError, QuadratureBudget
from gf1d.green import green_closed_form
from gf1d.potential import slab, vacuum_spec


def test_path_term_count():
    assert path_term_count(0) == 1
    assert path_term_count(1) == 2
    assert path_term_count(3) == 2
    with pytest.raises(ValueError):
        path_term_count(-1)


def test_order_zero_is_free_kernel():
    gv, terms = born_series(vacuum_spec(), 0.9, -0.4, 1.2 + 0.3j, max_order=3)
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
    for m in (1, 2, 3):
        assert len(by_order[m]) == path_term_count(m)


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
    with pytest.raises(QuadratureBudget):
        born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1.0, max_order=3, node_budget=100)
    with pytest.raises(ValueError):
        born_series(slab(0.2, 0.0, 1.0), 0.8, 0.2, 1.0, max_order=4)


def test_value_keeps_caller_argument_order():
    spec = slab(0.2, 0.0, 1.0)
    gv, _ = born_series(spec, 0.3, 0.8, 1.1)
    assert (gv.x, gv.y) == (0.3, 0.8)
    swapped, _ = born_series(spec, 0.8, 0.3, 1.1)
    assert swapped.value == gv.value


def test_domain_errors_are_config_errors():
    with pytest.raises(ConfigError):
        born_series(slab(0.2), 0.3, 0.8, 1.0, max_order=7)
    with pytest.raises(ConfigError):
        born_series(slab(0.2), 0.3, 0.8, 0.0)


def test_negative_order_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        path_term_count(-1)
    assert err.value.field == "order"
