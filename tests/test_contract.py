"""The library boundary names every input it rejects.

Each call below hands a public entry point a value of the wrong kind: a
string for a number, a profile for a tail, a malformed list of pairs.  Each
must raise ``ConfigError`` naming the field, never a ``TypeError``,
``ValueError`` or ``AttributeError`` from deep inside, and never run on a
silently converted value.
"""

import pytest

from gf1d.born import born_series
from gf1d.errors import ConfigError
from gf1d.green import (
    green_closed_form,
    green_negative_power,
    green_polyrep,
    green_power,
    green_product,
    jump_condition_check,
)
from gf1d.polyrep import PolyVec, inner_product
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
    Sweep,
    interval_triple,
    propagate,
    riccati_coefficients,
    semi_infinite_coefficients,
)
from gf1d.verify import run_suite

SPEC = slab(0.8, -0.5, 0.5)
LINEAR = PotentialSpec((Segment(-0.5, 0.5, LinearProfile(0.3, 0.5)),))
K = 1.2 + 0.2j

CASES = {
    # a string for a point: TypeError from math.isfinite
    "closed-form-str-x": (lambda: green_closed_form(SPEC, "0.3", 0.1, 1.0), "x"),
    "born-str-x": (lambda: born_series(SPEC, "0.3", 0.1, 1.0), "x"),
    # a string for k: complex("1") read it as 1+0j
    "closed-form-str-k": (lambda: green_closed_form(SPEC, 0.3, 0.1, "1"), "k"),
    # strings and profiles for numbers of the medium
    "slab-str-c": (lambda: slab("1"), "c"),
    "str-tail": (lambda: PotentialSpec((), left_tail="1"), "left_tail"),
    "profile-tail": (
        lambda: PotentialSpec((), left_tail=ConstantProfile(1.0)), "left_tail"
    ),
    # AttributeError: 'NoneType' object has no attribute 'value'
    "segment-without-profile": (
        lambda: PotentialSpec((Segment(0, 1, None),)), "profile"
    ),
    # the series routes' own arguments
    "power-str-n": (lambda: green_power(SPEC, 0.3, -0.2, K, "2"), "n"),
    "product-short-pair": (lambda: green_product(SPEC, [(0.3,)], K), "pairs"),
    "product-not-pairs": (lambda: green_product(SPEC, 5, K), "pairs"),
    # a bool is an int: P=True ran at P = 1, order=True at order 1, and
    # n_nodes=True ended in TypeError from the quadrature rule
    "polyrep-bool-P": (lambda: green_polyrep(SPEC, 0.3, -0.2, K, P=True), "P"),
    "born-bool-order": (
        lambda: born_series(SPEC, 0.3, -0.2, K, max_order=True), "order"
    ),
    "born-bool-nodes": (
        lambda: born_series(SPEC, 0.3, -0.2, K, n_nodes=True), "n_nodes"
    ),
    # the same for the points, k, the rk4 step and the powers: x = True was
    # returned as the value's x, k = True read as 1+0j, step = True ran at
    # step 1 (or ended in "rk4 step True too large"), n = True ran at n = 1
    "closed-form-bool-x": (lambda: green_closed_form(SPEC, True, -0.2, 1.0), "x"),
    "closed-form-bool-y": (lambda: green_closed_form(SPEC, 0.3, False, 1.0), "y"),
    "closed-form-bool-k": (lambda: green_closed_form(SPEC, 0.3, -0.2, True), "k"),
    "rk4-bool-step": (
        lambda: green_closed_form(SPEC, 0.3, -0.2, K, method="rk4", step=True),
        "step",
    ),
    "riccati-bool-step": (
        lambda: riccati_coefficients(SPEC, -0.5, 0.5, K, step=True), "step"
    ),
    "power-bool-n": (lambda: green_power(SPEC, 0.3, -0.2, K, True), "n"),
    "negative-power-bool-n": (
        lambda: green_negative_power(SPEC, 0.3, -0.2, K, n=True), "n"
    ),
    # numpy's ValueError and TypeErrors from default_rng; None drew a seed
    # from the OS, and True ran as seed 1
    "suite-negative-seed": (lambda: run_suite(seed=-1), "seed"),
    "suite-float-seed": (lambda: run_suite(seed=1.5), "seed"),
    "suite-str-seed": (lambda: run_suite(seed="3"), "seed"),
    "suite-none-seed": (lambda: run_suite(seed=None), "seed"),
    "suite-bool-seed": (lambda: run_suite(seed=True), "seed"),
    # a negative h swapped the one-sided stencils and returned about 2, h = 0
    # ended in ZeroDivisionError, and complex("1") read a string k
    "jump-negative-h": (lambda: jump_condition_check(SPEC, 0.1, K, h=-1e-4), "h"),
    "jump-zero-h": (lambda: jump_condition_check(SPEC, 0.1, K, h=0), "h"),
    "jump-nan-h": (lambda: jump_condition_check(SPEC, 0.1, K, h=float("nan")), "h"),
    "jump-inf-h": (lambda: jump_condition_check(SPEC, 0.1, K, h=float("inf")), "h"),
    "jump-bool-h": (lambda: jump_condition_check(SPEC, 0.1, K, h=True), "h"),
    "jump-str-h": (lambda: jump_condition_check(SPEC, 0.1, K, h="1e-4"), "h"),
    "jump-str-k": (lambda: jump_condition_check(SPEC, 0.1, "1"), "k"),
    # series vectors at two cutoffs: numpy's reshape error, or a plain
    # ValueError
    "inner-product-two-cutoffs": (
        lambda: inner_product(PolyVec({1: [1.0]}, 4), PolyVec({1: [1.0]}, 5)), "P"
    ),
    "sum-two-cutoffs": (lambda: PolyVec({1: [1.0]}, 4) + PolyVec({1: [1.0]}, 5), "P"),
    "difference-two-cutoffs": (
        lambda: PolyVec({1: [1.0]}, 4) - PolyVec({1: [1.0]}, 5), "P"
    ),
    "basis-degree-past-cutoff": (lambda: PolyVec.basis(7, 1, 4), "p"),
    # a medium that is no PotentialSpec: AttributeError from the first of its
    # attributes a route read, and propagate over an empty interval returned I
    "closed-form-none-spec": (lambda: green_closed_form(None, 0.3, -0.2, K), "spec"),
    "polyrep-dict-spec": (lambda: green_polyrep({}, 0.3, -0.2, K), "spec"),
    "power-none-spec": (lambda: green_power(None, 0.3, -0.2, K, 2), "spec"),
    "negative-power-dict-spec": (
        lambda: green_negative_power({}, 0.3, -0.2, K, 1), "spec"
    ),
    "product-none-spec": (lambda: green_product(None, [(0.3, -0.2)], K), "spec"),
    "wronskian-dict-spec": (lambda: green_wronskian({}, 0.3, -0.2, K), "spec"),
    "sweep-none-spec": (lambda: Sweep(None, K), "spec"),
    "propagate-empty-dict-spec": (lambda: propagate({}, 0.3, 0.3, K), "spec"),
    "riccati-none-spec": (lambda: riccati_coefficients(None, -0.5, 0.5, K), "spec"),
    "interval-dict-spec": (lambda: interval_triple({}, -0.5, 0.5, K), "spec"),
    "semi-infinite-none-spec": (
        lambda: semi_infinite_coefficients(None, 0.3, K), "spec"
    ),
    "born-dict-spec": (lambda: born_series({}, 0.3, -0.2, K), "spec"),
    # segments that are no Segments: TypeError or AttributeError
    "none-segments": (lambda: PotentialSpec(None), "segments"),
    "int-segments": (lambda: PotentialSpec(5), "segments"),
    "str-segment": (lambda: PotentialSpec(("a",)), "segments"),
    # sample points that are no (x, f) pairs were accepted, and a medium built
    # on them ended in a ValueError
    "one-value-points": (lambda: SampledProfile(((0.0,), (1.0,))), "points"),
    "three-value-points": (
        lambda: SampledProfile(((0.0, 0.1, 0.2), (1.0, 0.1, 0.2))), "points"
    ),
    # the suite's cutoff: a string ended in TypeError, and 2.5 and True were
    # refused only after the algebra checks ran
    "suite-str-P": (lambda: run_suite(P="4"), "P"),
    "suite-float-P": (lambda: run_suite(P=2.5), "P"),
    "suite-bool-P": (lambda: run_suite(P=True), "P"),
    # propagate over an empty interval returned the identity before it read
    # its method and step
    "propagate-empty-bad-method": (
        lambda: propagate(SPEC, 0.3, 0.3, K, method="euler"), "method"
    ),
    "propagate-empty-zero-step": (
        lambda: propagate(SPEC, 0.3, 0.3, K, method="rk4", step=0.0), "step"
    ),
    # on a linear medium without rk4 the first span read raised
    # UnsupportedProfile before P was checked
    "polyrep-zero-P-first": (lambda: green_polyrep(LINEAR, 0.3, -0.2, K, P=0), "P"),
    "polyrep-asym-zero-P-first": (
        lambda: green_polyrep(LINEAR, 0.3, -0.2, K, P=0, variant="asymmetric"), "P"
    ),
    "power-zero-P-first": (lambda: green_power(LINEAR, 0.3, -0.2, K, 2, P=0), "P"),
    "product-zero-P-first": (
        lambda: green_product(LINEAR, [(0.3, -0.2), (0.4, 0.1)], K, P=0), "P"
    ),
    "negative-power-zero-P-first": (
        lambda: green_negative_power(LINEAR, 0.3, -0.2, K, 1, P=0), "P"
    ),
    # a bad y was refused by the inner route call, naming x
    "jump-str-y": (lambda: jump_condition_check(SPEC, "a", K), "y"),
    "jump-nan-y": (lambda: jump_condition_check(SPEC, float("nan"), K), "y"),
    "jump-bool-y": (lambda: jump_condition_check(SPEC, True, K), "y"),
}


@pytest.mark.parametrize("call, field", CASES.values(), ids=CASES.keys())
def test_a_value_of_the_wrong_kind_names_its_field(call, field):
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.field == field
