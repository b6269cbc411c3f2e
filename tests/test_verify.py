import functools

import numpy as np
import pytest

from gf1d.verify import TOLERANCES, run_suite, sample_potentials, sample_wavenumbers


def test_suite_passes_default_seed():
    reports = run_suite()
    assert reports
    assert all(r.status == "pass" for r in reports)


# the (seed, check) pairs that fail over seeds 0-9, each with its cause as
# far as ROADMAP Direction 2 knows it; a new failure or a fix shows as a
# failing test
_ROUNDING = "rounding: the residual is absolute and grows as eps |U|**2"
_KNOWN_FAILURES = {
    (4, "inverse-evolution"): _ROUNDING,
    (7, "inverse-evolution"): _ROUNDING,
    (7, "unimodularity"): _ROUNDING + " (assumed, not measured apart)",
    (7, "negative-power-identity"): "the inverse ladders' truncation is missing from the loss",
    (9, "negative-power-identity"): "the inverse ladders' truncation is missing from the loss",
}


@functools.cache
def _statuses(seed):
    return {r.check_id: r.status for r in run_suite(seed=seed)}


@pytest.mark.parametrize(
    "seed, check",
    [
        pytest.param(
            seed, check,
            marks=[pytest.mark.xfail(strict=True, reason=_KNOWN_FAILURES[seed, check])]
            if (seed, check) in _KNOWN_FAILURES else [],
        )
        for seed in range(10)
        for check in TOLERANCES
    ],
)
def test_suite_over_a_seed_range(seed, check):
    assert _statuses(seed)[check] == "pass"


def test_suite_is_deterministic():
    a = [r.line() for r in run_suite(seed=3)]
    b = [r.line() for r in run_suite(seed=3)]
    assert a == b


def test_every_check_has_a_registered_tolerance():
    for r in run_suite():
        assert r.tolerance == TOLERANCES[r.check_id]
        assert r.anchor


def test_corruption_is_detected():
    reports = run_suite(corrupt=True)
    failing = {r.check_id for r in reports if r.status == "fail"}
    assert "sl3-commutation" in failing


def test_report_serialization():
    r = run_suite()[0]
    d = r.to_dict()
    assert set(d) == {"check_id", "anchor", "residual", "tolerance", "status"}
    assert isinstance(r.line(), str)


def test_sample_distributions():
    rng = np.random.default_rng(11)
    specs = sample_potentials(rng, 20)
    for spec in specs:
        assert 1 <= len(spec.segments) <= 5
        for seg in spec.segments:
            assert 0.1 <= seg.x_end - seg.x_start <= 1.0
            assert abs(seg.profile.c) <= 2.0
    ks = sample_wavenumbers(rng, 20)
    for k in ks:
        assert 0.3 <= abs(k) <= 3.0
        assert k.imag >= 0.0
