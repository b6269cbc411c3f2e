import json
import warnings

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
        ["green", "--route", "born", "--order", "7"],
        ["green", "--route", "C", "--P", "-5"],
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
