import io
import json

import pytest

from gf1d.errors import ConfigError
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    SampledProfile,
    Segment,
    check_wavenumber,
    evaluate_f,
    load_potential,
    schroedinger_potential,
    slab,
    truncate,
    vacuum_spec,
)


def test_wavenumber_validation():
    assert check_wavenumber(1.5) == 1.5 + 0j
    assert check_wavenumber(0.3 + 0.7j) == 0.3 + 0.7j
    with pytest.raises(ValueError):
        check_wavenumber(1.0 - 0.1j)


def test_vacuum_is_zero_everywhere():
    spec = vacuum_spec()
    for x in (-5.0, 0.0, 2.3):
        assert evaluate_f(spec, x) == 0.0
    smooth, deltas = schroedinger_potential(spec, 1.0)
    assert smooth == 0.0
    assert deltas == []


def test_slab_values_and_support():
    spec = slab(0.7, -1.0, 2.0)
    assert spec.support == (-1.0, 2.0)
    assert evaluate_f(spec, 0.5) == 0.7
    assert evaluate_f(spec, -3.0) == 0.0
    assert evaluate_f(spec, 5.0) == 0.0


def test_one_sided_limits_at_jump():
    spec = slab(0.7, 0.0, 1.0)
    assert evaluate_f(spec, 0.0, side=-1) == 0.0
    assert evaluate_f(spec, 0.0, side=+1) == 0.7
    assert evaluate_f(spec, 1.0, side=-1) == 0.7
    assert evaluate_f(spec, 1.0, side=+1) == 0.0


def test_jump_points_and_delta_weights():
    spec = PotentialSpec(
        segments=(
            Segment(0.0, 1.0, ConstantProfile(0.5)),
            Segment(1.0, 2.0, ConstantProfile(-0.25)),
        )
    )
    jumps = dict(spec.jump_points())
    assert jumps[0.0] == 0.5
    assert jumps[1.0] == -0.75
    assert jumps[2.0] == 0.25
    smooth, deltas = schroedinger_potential(spec, 0.5)
    assert smooth == 0.25
    assert len(deltas) == 3


def test_linear_profile_potential():
    # f = 1 + 2(x - 0), so V = f^2 + 2 away from the edges
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(1.0, 2.0)),))
    smooth, _ = schroedinger_potential(spec, 0.25)
    f = 1.0 + 2.0 * 0.25
    assert abs(smooth - (f * f + 2.0)) < 1e-14


def test_sampled_profile_interpolates():
    prof = SampledProfile(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, prof),))
    assert abs(evaluate_f(spec, 0.25) - 0.5) < 1e-14
    assert abs(evaluate_f(spec, 0.75) - 0.5) < 1e-14
    assert not prof.is_constant


def test_segments_must_be_contiguous():
    with pytest.raises(ValueError):
        PotentialSpec(
            segments=(
                Segment(0.0, 1.0, ConstantProfile(1.0)),
                Segment(1.5, 2.0, ConstantProfile(1.0)),
            )
        )


def test_truncate_restricts_support():
    spec = slab(0.7, 0.0, 2.0)
    cut = truncate(spec, 0.5, 1.5)
    assert cut.support == (0.5, 1.5)
    assert evaluate_f(cut, 1.0) == 0.7
    assert evaluate_f(cut, 0.25) == 0.0
    assert evaluate_f(cut, 1.75) == 0.0


def test_truncate_materializes_constant_tails():
    spec = PotentialSpec(
        segments=(Segment(0.0, 1.0, ConstantProfile(0.5)),),
        left_tail=0.3,
        right_tail=-0.2,
    )
    cut = truncate(spec, -1.0, 2.0)
    assert cut.left_tail is None and cut.right_tail is None
    assert evaluate_f(cut, -0.5) == 0.3
    assert evaluate_f(cut, 1.5) == -0.2
    assert evaluate_f(cut, -2.0) == 0.0


def test_load_potential_yaml():
    doc = """
segments:
  - x_start: -0.5
    x_end: 0.5
    profile: {type: constant, c: 0.8}
right_tail: {type: constant, c: 0.25}
"""
    spec = load_potential(io.StringIO(doc))
    assert spec.support == (-0.5, 0.5)
    assert evaluate_f(spec, 0.0) == 0.8
    assert spec.right_tail == 0.25
    assert spec.left_tail is None


def test_load_potential_json_subset():
    doc = json.dumps(
        {
            "segments": [
                {
                    "x_start": 0,
                    "x_end": 1,
                    "profile": {"type": "linear", "c0": 0.1, "c1": -0.2},
                }
            ]
        }
    )
    spec = load_potential(io.StringIO(doc))
    assert abs(evaluate_f(spec, 0.5) - 0.0) < 1e-15


def test_load_potential_errors_name_the_field():
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO("segments:\n  - x_start: 0\n"))
    assert "x_end" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_potential(
            io.StringIO(
                "segments:\n  - {x_start: 0, x_end: 1, profile: {type: nope}}\n"
            )
        )
    assert "profile.type" in str(err.value)
    with pytest.raises(ConfigError):
        load_potential(io.StringIO("- just\n- a list\n"))
    with pytest.raises(ConfigError):
        load_potential(io.StringIO("bad: ["))


@pytest.mark.parametrize(
    "k", [0.0, 0j, float("nan"), float("inf"), complex(1.0, float("nan")), 1 - 1e-9j]
)
def test_check_wavenumber_rejects_outside_domain(k):
    with pytest.raises(ConfigError):
        check_wavenumber(k)


def test_bad_tail_keeps_its_field_name():
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO("left_tail: {type: linear}\n"))
    assert err.value.field == "left_tail.type"
