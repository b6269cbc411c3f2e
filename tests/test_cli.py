import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gf1d.cli import main

POT = """
segments:
  - x_start: -0.5
    x_end: 0.5
    profile: {type: constant, c: 0.8}
"""


@pytest.fixture
def pot_file(tmp_path):
    p = tmp_path / "pot.yaml"
    p.write_text(POT)
    return str(p)


def test_coefficients_vacuum(capsys):
    code = main(["coefficients", "--k", "1.0", "--interval", "0:1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["tau_re"]) - np.cos(1.0)) < 1e-14
    assert abs(float(row["tau_im"]) - np.sin(1.0)) < 1e-14
    assert float(row["r_right_re"]) == 0.0


def test_coefficients_slab_matches_library(pot_file, capsys):
    from gf1d.potential import slab
    from gf1d.transfer import interval_triple

    code = main(["coefficients", "--potential", pot_file, "--k", "1.0,0.5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    t = interval_triple(slab(0.8, -0.5, 0.5), -0.5, 0.5, 1.0 + 0.5j)
    assert abs(float(row["tau_re"]) - t.tau.real) < 1e-14
    assert abs(float(row["r_left_im"]) - t.r_left.imag) < 1e-14


def test_green_free_space_grid(capsys):
    code = main(["green", "--k", "1.0", "--grid=-1:1:5", "--route", "B"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 25
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        x, y = float(row["x"]), float(row["y"])
        want = np.exp(1j * abs(x - y))
        assert abs(float(row["two_ik_g_re"]) - want.real) < 1e-12
        assert abs(float(row["two_ik_g_im"]) - want.imag) < 1e-12


def test_green_route_check_column(pot_file, capsys):
    code = main(
        [
            "green", "--potential", pot_file, "--k", "1.3,0.2",
            "--grid=-1:1:3", "--route", "C", "--check",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[-1] == "abs_diff_route_b"
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["abs_diff_route_b"]) < 1e-8 + float(row["truncation_loss"])


def test_green_born_route(pot_file, capsys):
    code = main(
        [
            "green", "--potential", pot_file, "--k", "1.0",
            "--grid", "0.2:0.2:1", "--route", "born", "--order", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "born_1" in out


def test_born_route_rejects_constant_tail(tmp_path, capsys):
    p = tmp_path / "tail.yaml"
    p.write_text(POT + "left_tail: {type: constant, c: 0.05}\n")
    code = main(["green", "--potential", str(p), "--route", "born"])
    assert code == 2
    assert "left_tail" in capsys.readouterr().err


def test_jsonl_output(pot_file, capsys):
    code = main(
        [
            "green", "--potential", pot_file, "--k", "1.0",
            "--grid", "0:0:1", "--format", "jsonl",
        ]
    )
    assert code == 0
    rows = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert rows and rows[0]["route"] == "closed_form"


def test_output_is_byte_stable(pot_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = main(
            [
                "green", "--potential", pot_file, "--k", "1.1,0.1",
                "--grid=-1:1:7", "--route", "C", "--out", str(path),
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_malformed_potential_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("segments:\n  - x_start: 0\n")
    code = main(["coefficients", "--potential", str(p)])
    assert code == 2
    assert "x_end" in capsys.readouterr().err


def test_bad_flags_exit_2(capsys):
    assert main(["green", "--route", "Z"]) == 2
    assert main(["green", "--k", "nope"]) == 2
    assert main(["green", "--grid", "1:0:5"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    p = tmp_path / "lin.yaml"
    p.write_text(
        "segments:\n"
        "  - x_start: 0\n"
        "    x_end: 1\n"
        "    profile: {type: linear, c0: 0.0, c1: 1.0}\n"
    )
    # exact piecewise propagation cannot handle a varying profile
    code = main(["coefficients", "--potential", str(p), "--k", "1.0"])
    assert code == 3
    assert "UnsupportedProfile" in capsys.readouterr().err


def test_verify_exit_codes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["verify", "--inject-corruption"]) == 1


def test_verify_jsonl(capsys):
    code = main(["verify", "--format", "jsonl"])
    assert code == 0
    rows = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert all(r["status"] == "pass" for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["green", "--grid=0:1:2", "--k", "1,nan"],
        ["green", "--k", "0"],
        ["green", "--route", "born", "--order", "-1"],
        ["green", "--route", "C", "--P", "-5"],
        ["green", "--grid=0:1e400:2"],
        ["green", "--grid=nan:1:2"],
        ["green", "--route", "born", "--method", "rk4"],
    ],
)
def test_out_of_domain_input_exits_2(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert len(out.splitlines()) <= 1  # at most the header, no data row
    assert err.startswith("error: ") and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_green_rk4_on_linear_medium(tmp_path, capsys):
    from gf1d.green import green_closed_form
    from gf1d.potential import load_potential

    p = tmp_path / "lin.yaml"
    p.write_text(
        "segments:\n"
        "  - x_start: 0\n"
        "    x_end: 1\n"
        "    profile: {type: linear, c0: 0.2, c1: 0.6}\n"
    )
    code = main(
        [
            "green", "--potential", str(p), "--k", "1.2,0.3", "--grid=0.1:0.9:3",
            "--method", "rk4", "--step", "0.01",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 1 + 9
    spec = load_potential(str(p))
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        k = complex(float(row["k_re"]), float(row["k_im"]))
        gv = green_closed_form(
            spec, float(row["x"]), float(row["y"]), k, method="rk4", step=0.01
        )
        want = 2j * k * gv.value
        assert float(row["two_ik_g_re"]) == want.real
        assert float(row["two_ik_g_im"]) == want.imag


def test_large_im_k_grid_is_finite(capsys):
    # exp(-Im k |x - y|) underflows to 0 instead of raising OverflowError
    code = main(["green", "--grid=-30:30:2", "--k", "1,20"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert np.isfinite(float(row["two_ik_g_re"]))
        assert np.isfinite(float(row["two_ik_g_im"]))


# f = 1 in both tails and 0 on [-1, 1]: a bound state at the real k below
# the tail threshold, where the closed-form denominator vanishes
POLE_POT = """
left_tail: {type: constant, c: 1.0}
right_tail: {type: constant, c: 1.0}
segments:
  - x_start: -1.0
    x_end: 1.0
    profile: {type: constant, c: 0.0}
"""
POLE_K = 0.5149332646611294


def _rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a, b):
    return abs(a - b) <= 1e-13 * max(abs(a), abs(b))


@pytest.mark.parametrize("route", ["A", "B", "C"])
def test_grid_rows_equal_per_pair_library_calls(route, tmp_path, capsys):
    from gf1d import green, sl3
    from gf1d.errors import DenominatorZero, WronskianZero
    from gf1d.potential import load_potential

    p = tmp_path / "pole.yaml"
    p.write_text(POLE_POT)
    code = main(
        [
            "green", "--potential", str(p), "--grid=-1.6:1.6:7", "--route", route,
            "--k", "0.8,0.3", "--k", f"{POLE_K!r}", "--P", "24", "--check",
        ]
    )
    assert code == 0
    spec = load_potential(str(p))
    library = {
        "A": lambda x, y, k: sl3.green_wronskian(spec, x, y, k),
        "B": lambda x, y, k: green.green_closed_form(spec, x, y, k),
        "C": lambda x, y, k: green.green_polyrep(spec, x, y, k, P=24),
    }[route]
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 2 * 49
    poles = blank_checks = 0
    for row in rows:
        x, y = float(row["x"]), float(row["y"])
        k = complex(float(row["k_re"]), float(row["k_im"]))
        try:
            want = 2j * k * library(x, y, k).value
        except (DenominatorZero, WronskianZero):
            assert row["route"] == "pole"
            poles += 1
            continue
        got = complex(float(row["two_ik_g_re"]), float(row["two_ik_g_im"]))
        assert _close(got, want)
        try:
            check = abs(want - 2j * k * green.green_closed_form(spec, x, y, k).value)
        except DenominatorZero:
            assert row["abs_diff_route_b"] == ""
            blank_checks += 1
            continue
        assert _close(float(row["abs_diff_route_b"]), check)
    # route C has no pole guard: at the pole only its check column is blank
    assert (blank_checks if route == "C" else poles) > 0


def test_coefficients_grid_matches_propagation(pot_file, capsys):
    from gf1d.potential import slab
    from gf1d.transfer import invert, propagate, scattering_coefficients

    code = main(
        [
            "coefficients", "--potential", pot_file, "--k", "1.3,0.2", "--k", "0.6,0.4",
            "--grid=-1:1.5:11", "--interval=0.7:-0.8",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 2 * 11
    spec = slab(0.8, -0.5, 0.5)
    for row in rows:
        x1, x2 = float(row["x1"]), float(row["x2"])
        k = complex(float(row["k_re"]), float(row["k_im"]))
        if x1 <= x2:
            want = scattering_coefficients(propagate(spec, x1, x2, k))
        else:
            want = scattering_coefficients(invert(propagate(spec, x2, x1, k)))
        for name in ("tau", "r_right", "r_left"):
            got = complex(float(row[f"{name}_re"]), float(row[f"{name}_im"]))
            w = getattr(want, name)
            assert abs(got - w) <= 1e-13 * max(1.0, abs(w))


def test_reversed_interval_at_large_im_k_exits_3(capsys):
    # tau of [30, -30] is e^1200; it used to end in an OverflowError traceback
    code = main(["coefficients", "--interval=30:-30", "--k", "1,20"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ResonanceDivision: ")


@pytest.mark.parametrize(
    "doc, field",
    [
        (
            "segments:\n"
            "  - {x_start: 0, x_end: 1, profile: {type: constant, c: .nan}}\n",
            "segments[0].profile",
        ),
        ("left_tail: {type: constant, c: .inf}\n", "left_tail"),
        (
            "segments:\n"
            "  - {x_start: 0, x_end: .inf, profile: {type: constant, c: 0.5}}\n",
            "segments[0]",
        ),
    ],
    ids=["nan-profile", "inf-tail", "inf-edge"],
)
def test_non_finite_medium_exits_2(doc, field, tmp_path, capsys):
    # each used to write four nan rows and exit 0
    p = tmp_path / "bad.yaml"
    p.write_text(doc)
    code = main(["green", "--potential", str(p), "--k", "1,0.2", "--grid=0:1:2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ") and "finite" in err


TAIL_ONLY = "left_tail: {type: constant, c: 0.3}\n"


def test_tail_only_medium_switches_tails_at_zero(tmp_path, capsys):
    # the tails meet at 0, as in the same medium written with a zero segment
    # on [0, 1]; the sweep used to miss that jump while evaluate_f kept it
    explicit = (
        TAIL_ONLY + "segments:\n"
        "  - {x_start: 0, x_end: 1, profile: {type: constant, c: 0.0}}\n"
    )
    values = {}
    for name, doc in (("tail", TAIL_ONLY), ("explicit", explicit)):
        p = tmp_path / f"{name}.yaml"
        p.write_text(doc)
        for route in ("A", "B", "C"):
            argv = [
                "green", "--potential", str(p), "--k", "1.1,0.3",
                "--grid=-0.8:-0.5:2", "--route", route,
            ]
            assert main(argv) == 0
            rows = _rows(capsys.readouterr().out)
            values[name, route] = [
                complex(float(r["two_ik_g_re"]), float(r["two_ik_g_im"])) for r in rows
            ]
    want = values["explicit", "B"]
    assert abs(want[1] - (0.8010 + 0.2997j)) < 1e-4  # the (-0.8, -0.5) row
    for got in values.values():
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w)


def test_closed_pipe_exits_quietly():
    # a reader that stops early (| head -1) used to leave a BrokenPipeError
    # traceback and exit 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["-m", "gf1d.cli", "green", "--grid=-1:1:201", "--k", "1,0.2"]
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b"x,y,") and err == b""
