import io
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from documents import LINEAR_JSON, MALFORMED, POT_RIGHT_TAIL, VALID
from gf1d import potential
from gf1d.cli import main
from gf1d.errors import ConfigError
from gf1d.green import green_closed_form
from gf1d.potential import (
    ConstantProfile,
    LinearProfile,
    PotentialSpec,
    SampledProfile,
    Segment,
    check_wavenumber,
    evaluate_f,
    load_potential,
    slab,
)
from gf1d.sl3 import green_wronskian


def test_wavenumber_validation():
    assert check_wavenumber(1.5) == 1.5 + 0j
    assert check_wavenumber(0.3 + 0.7j) == 0.3 + 0.7j
    with pytest.raises(ValueError):
        check_wavenumber(1.0 - 0.1j)


def test_vacuum_is_zero_everywhere():
    spec = PotentialSpec()
    for x in (-5.0, 0.0, 2.3):
        assert evaluate_f(spec, x) == 0.0
    assert spec.breakpoints() == ()


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
    # the delta weight of V at each breakpoint is the jump f(x+) - f(x-)
    bps = spec.breakpoints()
    assert bps == (0.0, 1.0, 2.0)
    jumps = [evaluate_f(spec, x, side=+1) - evaluate_f(spec, x, side=-1) for x in bps]
    assert jumps == [0.5, -0.75, 0.25]
    # the smooth part f**2 + f' is 0.25 on the first, constant stretch
    assert evaluate_f(spec, 0.5) == 0.5 and spec.ends(0.0, 1.0) == (0.5, 0.5)


def test_linear_profile_potential():
    # f = 1 + 2(x - 0), so V = f^2 + 2 away from the edges: f' = 2 is the
    # change of f across the unit stretch
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, LinearProfile(1.0, 2.0)),))
    assert abs(evaluate_f(spec, 0.25) - 1.5) < 1e-14
    assert spec.ends(0.0, 1.0) == (1.0, 3.0)


def test_sampled_profile_interpolates():
    prof = SampledProfile(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    spec = PotentialSpec(segments=(Segment(0.0, 1.0, prof),))
    assert abs(evaluate_f(spec, 0.25) - 0.5) < 1e-14
    assert abs(evaluate_f(spec, 0.75) - 0.5) < 1e-14
    # neither stretch is constant: its two end values differ
    assert spec.knots(0.0, 1.0) == [0.0, 0.5, 1.0]
    assert spec.ends(0.0, 0.5) == (0.0, 1.0)
    assert spec.ends(0.5, 1.0) == (1.0, 0.0)


def test_segments_must_be_contiguous():
    with pytest.raises(ValueError):
        PotentialSpec(
            segments=(
                Segment(0.0, 1.0, ConstantProfile(1.0)),
                Segment(1.5, 2.0, ConstantProfile(1.0)),
            )
        )


def test_load_potential_yaml():
    spec = load_potential(io.StringIO(POT_RIGHT_TAIL))
    assert spec.support == (-0.5, 0.5)
    assert evaluate_f(spec, 0.0) == 0.8
    assert spec.right_tail == 0.25
    assert spec.left_tail is None


def test_load_potential_json_subset():
    spec = load_potential(io.StringIO(LINEAR_JSON))
    assert abs(evaluate_f(spec, 0.5) - 0.0) < 1e-15


def test_load_potential_errors_name_the_field():
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO(MALFORMED["missing-x-end"][0]))
    assert "x_end" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO(MALFORMED["unknown-profile"][0]))
    assert "profile.type" in str(err.value)
    with pytest.raises(ConfigError):
        load_potential(io.StringIO(MALFORMED["list-root"][0]))
    with pytest.raises(ConfigError):
        load_potential(io.StringIO(MALFORMED["unclosed-mapping"][0]))


@pytest.mark.parametrize(
    "k", [0.0, 0j, float("nan"), float("inf"), complex(1.0, float("nan")), 1 - 1e-9j]
)
def test_check_wavenumber_rejects_outside_domain(k):
    with pytest.raises(ConfigError):
        check_wavenumber(k)


def test_bad_tail_keeps_its_field_name():
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO(MALFORMED["linear-tail"][0]))
    assert err.value.field == "left_tail.type"


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ConstantProfile(math.nan), "c"),
        (lambda: LinearProfile(0.1, math.inf), "c1"),
        (lambda: SampledProfile(((0.0, 0.1), (math.nan, 0.2))), "points"),
        (lambda: SampledProfile(((0.0, 0.1), (1.0, -math.inf))), "points"),
        (lambda: Segment(0.0, math.inf, ConstantProfile(0.1)), "x_end"),
        (lambda: Segment(-math.inf, 0.0, ConstantProfile(0.1)), "x_start"),
        (lambda: PotentialSpec(left_tail=math.inf), "left_tail"),
        (lambda: PotentialSpec(right_tail=math.nan), "right_tail"),
    ],
)
def test_medium_rejects_non_finite_numbers(build, field):
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.field == field


@pytest.mark.parametrize(
    "segment",
    [
        Segment(0.0, 0.5, SampledProfile(((0.0, 0.0), (2.225073858507e-311, 1.0)))),
        Segment(0.0, 10.0, LinearProfile(0.0, 1e308)),
        Segment(0.0, 1.0, SampledProfile(((0.0, -1e308), (1.0, 1e308)))),
    ],
    ids=["subnormal-samples", "linear-overflow", "sampled-overflow"],
)
def test_medium_rejects_a_non_finite_f(segment):
    # each number is finite, but f is not at a knot, or its change across a
    # stretch overflows: every route read inf or nan from such a medium
    with pytest.raises(ConfigError) as err:
        PotentialSpec((Segment(-1.0, 0.0, ConstantProfile(0.2)), segment))
    assert err.value.field == "segments[1].profile"


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Segment(1.0, 0.0, ConstantProfile(0.1)), "x_start"),
        (lambda: SampledProfile(((0.0, 0.1),)), "points"),
        (lambda: SampledProfile(((0.0, 0.1), (0.5, 0.2), (0.5, 0.3))), "points"),
    ],
    ids=["reversed-segment", "one-sample", "repeated-abscissa"],
)
def test_medium_shape_errors_name_the_field(build, field):
    # these were plain ValueErrors, outside the package's error types
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.field == field


# PyYAML's pure-Python parser and libyaml's, which load_potential prefers
LOADERS = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", None)]
needs_libyaml = pytest.mark.skipif(
    LOADERS[1] is None, reason="PyYAML is built without libyaml"
)


@needs_libyaml
@pytest.mark.parametrize("name", sorted(VALID))
def test_loaders_build_equal_media(name, tmp_path, monkeypatch):
    path = tmp_path / "medium.yaml"
    path.write_text(VALID[name])
    specs = []
    for loader in LOADERS:
        monkeypatch.setattr(potential, "_LOADER", loader)
        specs.append(load_potential(str(path)))
    assert specs[0] == specs[1]


@needs_libyaml
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_loaders_name_the_same_field(name, tmp_path, monkeypatch, capsys):
    text, field = MALFORMED[name]
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    for loader in LOADERS:
        monkeypatch.setattr(potential, "_LOADER", loader)
        with pytest.raises(ConfigError) as err:
            load_potential(str(path))
        assert err.value.field == field
        assert main(["green", "--potential", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_knots_of_tails_and_samples():
    # a vacuum medium has no knot, so the default CLI medium is unchanged
    assert PotentialSpec().breakpoints() == ()
    assert PotentialSpec(left_tail=0.0).breakpoints() == ()
    # tails that differ switch at 0, where evaluate_f puts the jump
    tails = PotentialSpec(left_tail=0.3)
    assert tails.breakpoints() == (0.0,)
    assert evaluate_f(tails, 0.0) == 0.3 and evaluate_f(tails, 0.0, side=+1) == 0.0
    assert tails.ends(-2.0, 0.0) == (0.3, 0.3) and tails.ends(0.0, 2.0) == (0.0, 0.0)
    # a sample abscissa outside its own segment is no knot
    prof = SampledProfile(((-0.5, 0.1), (0.3, -0.1), (0.8, 0.12)))
    spec = PotentialSpec((Segment(0.0, 1.0, prof),))
    assert spec.breakpoints() == (0.0, 0.3, 0.8, 1.0)
    assert spec.knots(-1.0, 0.5) == [-1.0, 0.0, 0.3, 0.5]


_AMP = st.floats(-1.5, 1.5)


@st.composite
def _media(draw):
    """(spec, piecewise constant): 0-3 segments of constant, linear or
    sampled profiles, with vacuum or constant tails."""
    constant = draw(st.booleans())
    kinds = ["constant"] if constant else ["constant", "linear", "sampled"]
    x, segs = draw(st.floats(-2.0, 0.5)), []
    for _ in range(draw(st.integers(0, 3))):
        w, kind = draw(st.floats(0.1, 1.5)), draw(st.sampled_from(kinds))
        if kind == "constant":
            prof = ConstantProfile(draw(_AMP))
        elif kind == "linear":
            prof = LinearProfile(draw(_AMP), draw(st.floats(-2.0, 2.0)))
        else:
            fs = draw(st.lists(_AMP, min_size=2, max_size=4))
            xs = np.linspace(x, x + w, len(fs)).tolist()
            prof = SampledProfile(tuple(zip(xs, fs)))
        segs.append(Segment(x, x + w, prof))
        x += w
    tail = st.one_of(st.none(), _AMP)
    return PotentialSpec(tuple(segs), draw(tail), draw(tail)), constant


@settings(max_examples=100, deadline=None)
@given(
    medium=_media(),
    points=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    k_re=st.floats(0.3, 2.0),
    k_im=st.floats(0.05, 1.0),
)
def test_ends_agree_with_point_reads_and_routes_agree(medium, points, k_re, k_im):
    spec, constant = medium
    bps = spec.breakpoints()
    edges = [bps[0] - 1.0, *bps, bps[-1] + 1.0] if bps else [-1.0, 1.0]
    for a, b in zip(edges, edges[1:]):
        want = (evaluate_f(spec, a, side=+1), evaluate_f(spec, b, side=-1))
        assert spec.ends(a, b) == want
        assert spec.knots(a, b) == [a, b]
    if not constant:
        return
    # Re k > 0 keeps k off the bound-state poles on the imaginary axis
    k = complex(k_re, k_im)
    want = green_closed_form(spec, *points, k).value
    got = green_wronskian(spec, *points, k).value
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# an integer too large for a float, at each place the schema reads a number
_HUGE = 10**400


def _one_segment(profile, x_end=1):
    return {"segments": [{"x_start": 0, "x_end": x_end, "profile": profile}]}


_HUGE_INTS = {
    "x_end": (_one_segment({"type": "constant", "c": 0.5}, _HUGE), "segments[0]"),
    "constant-c": (_one_segment({"type": "constant", "c": _HUGE}), "segments[0].profile"),
    "tail-c": ({"left_tail": {"type": "constant", "c": -_HUGE}}, "left_tail.c"),
    "sampled-point": (
        _one_segment({"type": "sampled", "points": [[0, 0.1], [1, _HUGE]]}),
        "segments[0].profile",
    ),
}


@pytest.mark.parametrize("syntax", ["yaml", "json"])
@pytest.mark.parametrize("place", sorted(_HUGE_INTS))
def test_huge_integers_name_their_field(place, syntax, tmp_path, capsys):
    # float() of such an integer raises OverflowError, which ended the CLI
    # in a traceback and exit 1
    doc, field = _HUGE_INTS[place]
    text = json.dumps(doc) if syntax == "json" else yaml.safe_dump(doc, width=10**4)
    assert str(_HUGE) in text
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO(text))
    assert err.value.field == field
    path = tmp_path / f"huge.{syntax}"
    path.write_text(text)
    assert main(["green", "--potential", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [
        b"segments:\n  - {x_start: 0, x_end: 1, profile: {type: constant, c: 0.5}}"
        b"  # caf\xe9\n",
        b"\xff\xfe{}",
    ],
    ids=["latin-1-comment", "utf-16-bom"],
)
def test_undecodable_file_is_a_document_error(data, tmp_path, capsys):
    # the read's UnicodeDecodeError ended the CLI in a traceback and exit 1
    path = tmp_path / "medium.yaml"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        load_potential(str(path))
    assert err.value.field == "<document>"
    assert main(["green", "--potential", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: <document>: ")
    assert captured.err.count("\n") == 1


# the documents rendered as JSON; a malformed one only where it is data, not
# broken syntax
VALID_JSON = {name: json.dumps(yaml.safe_load(text)) for name, text in VALID.items()}
MALFORMED_JSON = {
    name: (json.dumps(yaml.safe_load(text)), field)
    for name, (text, field) in MALFORMED.items()
    if field != "<document>"
}


def _forbid_yaml(monkeypatch):
    """From here on yaml.load raises: a JSON document is read by json alone."""

    def spy(*args, **kwargs):
        raise AssertionError("a JSON document reached yaml.load")

    # potential imports yaml where it reads a document json rejects
    monkeypatch.setattr(yaml, "load", spy)


@pytest.mark.parametrize("name", sorted(VALID))
def test_json_rendering_builds_the_yaml_medium(name, monkeypatch):
    want = load_potential(io.StringIO(VALID[name]))
    _forbid_yaml(monkeypatch)
    assert load_potential(io.StringIO(VALID_JSON[name])) == want


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
def test_json_rendering_names_the_yaml_field(name, monkeypatch):
    text, field = MALFORMED_JSON[name]
    _forbid_yaml(monkeypatch)
    with pytest.raises(ConfigError) as err:
        load_potential(io.StringIO(text))
    assert err.value.field == field


def test_green_grid_reads_json_and_yaml_alike(tmp_path, capsys):
    out = []
    media = ((".yaml", POT_RIGHT_TAIL), (".json", VALID_JSON["pot-right-tail"]))
    for suffix, text in media:
        path = tmp_path / f"medium{suffix}"
        path.write_text(text)
        argv = ["green", "--route", "B", "--potential", str(path),
                "--grid=-1:1:7", "--k", "1.2,0.3", "--k", "0.7"]
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    assert out[0].count("\n") == 1 + 2 * 49


@pytest.mark.parametrize("syntax", ["yaml", "json"])
def test_integer_past_the_digit_limit_is_a_document_error(syntax, tmp_path, capsys):
    # json rejects an integer of more than 4300 digits and hands it to the
    # YAML loader, whose int() raised a bare ValueError
    doc = _one_segment({"type": "constant", "c": 0.5}, "X")
    text = json.dumps(doc) if syntax == "json" else yaml.safe_dump(doc)
    path = tmp_path / f"digits.{syntax}"
    path.write_text(text.replace('"X"' if syntax == "json" else "X", "9" * 5000))
    assert main(["green", "--potential", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: <document>: not valid YAML/JSON: ")
    assert captured.err.count("\n") == 1
