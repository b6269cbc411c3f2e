import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from documents import (
    LINEAR,
    MALFORMED,
    NON_FINITE_F,
    POLE_K,
    POLE_POT,
    POT,
    POT_LEFT_TAIL,
    RAMP,
    RAMP_STEP_RAMP,
    SIX_SLABS,
    TAIL_ONLY,
    TAIL_ONLY_EXPLICIT,
)
from gf1d.cli import main


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
    p.write_text(POT_LEFT_TAIL)
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
    p.write_text(MALFORMED["missing-x-end"][0])
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


# each input error the loader or a flag parser names: the command (with
# {doc} a file holding the document, {dir} a directory), the document, and
# the field its ConfigError names
_INPUT_ERRORS = {
    "profile-not-a-mapping": (
        "green --potential {doc}",
        "segments:\n  - {x_start: 0, x_end: 1, profile: 3}\n",
        "segments[0].profile",
    ),
    "linear-without-c1": (
        "green --potential {doc}",
        "segments:\n  - {x_start: 0, x_end: 1, profile: {type: linear, c0: 1}}\n",
        "segments[0].profile.c1",
    ),
    "tail-without-c": ("green --potential {doc}", "left_tail: {type: constant}\n", "left_tail.c"),
    "tail-c-not-a-number": (
        "green --potential {doc}", "right_tail: {type: constant, c: abc}\n", "right_tail.c"
    ),
    "tail-not-a-mapping": ("green --potential {doc}", "right_tail: 3\n", "right_tail"),
    "potential-is-a-directory": ("green --potential {dir}", "", "<document>"),
    "segments-not-a-list": ("green --potential {doc}", "segments: 3\n", "segments"),
    "segment-not-a-mapping": ("green --potential {doc}", "segments:\n  - 3\n", "segments[0]"),
    "k-three-parts": ("green --k 1,2,3", "", "--k"),
    "grid-two-parts": ("green --grid=0:1", "", "--grid"),
    "grid-not-a-number": ("green --grid=a:1:3", "", "--grid"),
    "interval-not-a-number": ("coefficients --interval=a:1", "", "--interval"),
}


@pytest.mark.parametrize("command, doc, field", _INPUT_ERRORS.values(), ids=_INPUT_ERRORS)
def test_input_errors_exit_2_naming_their_field(command, doc, field, tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    path.write_text(doc)
    code = main(command.format(doc=path, dir=tmp_path).split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


def test_numerical_failure_exits_3(tmp_path, capsys):
    p = tmp_path / "lin.yaml"
    p.write_text(RAMP)
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
        ["coefficients", "--interval", "0:1e400"],
        ["coefficients", "--interval", "0:nan"],
        # numpy's "expected non-negative integer" ended in a traceback, exit 1
        ["verify", "--seed", "-1"],
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


@pytest.mark.parametrize("command", ["green", "coefficients"])
def test_tiny_step_exits_3(command, tmp_path, capsys):
    # it ended in a numpy _ArrayMemoryError traceback of 7.28 TiB
    p = tmp_path / "lin.yaml"
    p.write_text(LINEAR)
    argv = [command, "--potential", str(p), "--k", "1.3,0.2"]
    code = main(argv + ["--method", "rk4", "--step", "1e-12"])
    out, err = capsys.readouterr()
    assert code == 3
    assert len(out.splitlines()) <= 1  # at most the header, no data row
    assert err.startswith("error: StepBudget: ") and len(err.splitlines()) == 1


def test_green_rk4_on_linear_medium(tmp_path, capsys):
    from gf1d.green import green_closed_form
    from gf1d.potential import load_potential

    p = tmp_path / "lin.yaml"
    p.write_text(LINEAR)
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



def _rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a, b):
    return abs(a - b) <= 1e-13 * max(abs(a), abs(b))


@pytest.mark.parametrize("route", ["A", "B", "C", "C-asym", "born"])
def test_grid_rows_equal_per_pair_library_calls(route, tmp_path, capsys):
    # the grid computes each unordered pair once and writes it for (x, y)
    # and (y, x): every row must still be the library value at its own pair
    from gf1d import born, green, sl3
    from gf1d.errors import DenominatorZero, WronskianZero
    from gf1d.potential import load_potential

    p = tmp_path / "medium.yaml"
    p.write_text(POT if route == "born" else POLE_POT)  # born needs vacuum tails
    spec = load_potential(str(p))
    library = {
        "A": lambda x, y, k: sl3.green_wronskian(spec, x, y, k),
        "B": lambda x, y, k: green.green_closed_form(spec, x, y, k),
        "C": lambda x, y, k: green.green_polyrep(spec, x, y, k, P=24),
        "C-asym": lambda x, y, k: green.green_polyrep(
            spec, x, y, k, P=24, variant="asymmetric"
        ),
        "born": lambda x, y, k: born.born_series(spec, x, y, k, max_order=2)[0],
    }[route]
    for check in ([], ["--check"]):
        argv = [
            "green", "--potential", str(p), "--grid=-1.6:1.6:7", "--route", route,
            "--k", "0.8,0.3", "--k", f"{POLE_K!r}", "--P", "24", *check,
        ]
        assert main(argv) == 0
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
            assert got == want
            if not check:
                assert "abs_diff_route_b" not in row
                continue
            try:
                b = green.green_closed_form(spec, x, y, k).value
            except DenominatorZero:
                assert row["abs_diff_route_b"] == ""
                blank_checks += 1
                continue
            assert float(row["abs_diff_route_b"]) == abs(want - 2j * k * b)
        # the series routes have no pole guard: at the pole only their check
        # column is blank; the Born medium has no pole
        if route in ("A", "B"):
            assert poles > 0
        elif route != "born":
            assert poles == 0 and (blank_checks > 0) == bool(check)


SAMPLED = (
    "segments:\n"
    "  - x_start: 0\n"
    "    x_end: 1.2\n"
    "    profile:\n"
    "      type: sampled\n"
    "      points: [[0, 0.3], [0.4, -0.5], [0.8, 0.9], [1.2, 0.1]]\n"
)


def _reference_text(fmt, header, rows):
    """Rows as the csv module and json.dumps write them."""
    buf = io.StringIO()
    if fmt == "csv":
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    else:
        for row in rows:
            buf.write(json.dumps(dict(zip(header, row))) + "\n")
    return buf.getvalue()


def _grid(start, stop, n):
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n)]


def _library_green_rows(spec, grid, ks, route, check, **kw):
    """The rows of `gf1d green` from one public library call per (x, y, k)."""
    from gf1d import born, green, sl3
    from gf1d.errors import DenominatorZero, WronskianZero

    library = {
        "A": lambda x, y, k: sl3.green_wronskian(spec, x, y, k, **kw),
        "B": lambda x, y, k: green.green_closed_form(spec, x, y, k, **kw),
        "C": lambda x, y, k: green.green_polyrep(spec, x, y, k, P=CUTOFF, **kw),
        "C-asym": lambda x, y, k: green.green_polyrep(
            spec, x, y, k, P=CUTOFF, variant="asymmetric", **kw
        ),
        "born": lambda x, y, k: born.born_series(spec, x, y, k, max_order=2)[0],
    }[route]
    rows = []
    for k in ks:
        for x in grid:
            for y in grid:
                row = [x, y, k.real, k.imag]
                try:
                    gv = library(x, y, k)
                except (DenominatorZero, WronskianZero):
                    rows.append(row + ["", "", "pole", ""] + ([""] if check else []))
                    continue
                val = 2j * k * gv.value
                row += [val.real, val.imag, gv.route, gv.truncation_loss]
                if check:
                    try:
                        b = green.green_closed_form(spec, x, y, k, **kw).value
                        row.append(abs(val - 2j * k * b))
                    except DenominatorZero:
                        row.append("")
                rows.append(row)
    return rows


CUTOFF = 5
GREEN_HEADER = [
    "x", "y", "k_re", "k_im", "two_ik_g_re", "two_ik_g_im", "route", "truncation_loss",
]
RK4 = {"method": "rk4", "step": 0.01}
# (document, route, grid, ks as the --k text, propagation keywords)
GREEN_CASES = {
    **{
        f"pole-{route}": (
            POLE_POT, route, (-1.6, 1.6, 5), ["0.8,0.3", repr(POLE_K)], {}
        )
        for route in ("A", "B", "C", "C-asym")
    },
    # 1e-14 above the bound state: row 0 holds a value, five poles and a
    # value, so the row is read on past a pole
    "pole-mid-row": (POLE_POT, "B", (-1.6, 1.6, 7), ["0.5149332646611394"], {}),
    "born": (POT, "born", (-1.2, 0.9, 4), ["0.8,0.3", "2.5"], {}),
    **{
        f"rk4-{name}-{route}": (doc, route, (0.1, 1.1, 4), ["1.2,0.3"], RK4)
        for name, doc in (("linear", LINEAR), ("sampled", SAMPLED))
        for route in ("A", "B", "C", "C-asym")
    },
    # a negative zero k_im, and exponents down to 1e-301 and up to 1e+300
    "exponents": ("", "B", (-1e300, 1e300, 3), ["1e-300,0", "1,-0"], {}),
    # an infinite truncation loss off the diagonal: at P = 5 the tail of the
    # evolved series no longer shrinks, and its estimate has no bound
    "infinite-loss": (
        "segments:\n  - {x_start: -1, x_end: 1, profile: {type: constant, c: 5.0}}\n",
        "C", (-0.4, 0.4, 2), ["0.05,0.01"], {},
    ),
    # the shape the cli_grid benchmark measures: six slabs, a constant left
    # tail, 12 points reaching into both tails, two k
    "six-slabs": (SIX_SLABS, "B", (-1.8, 1.8, 12), ["1.7,0.3", "0.9,0.45"], {}),
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
@pytest.mark.parametrize("case", sorted(GREEN_CASES))
def test_green_rows_equal_a_reference_writer(case, check, fmt, tmp_path, capsys):
    # every cell is formatted once and a mirrored row reuses its twin's text:
    # the bytes must stay those of csv.writer and json.dumps over the values
    # of the public library routes
    from gf1d.potential import PotentialSpec, load_potential

    doc, route, (start, stop, n), ks, kw = GREEN_CASES[case]
    flags = [f"--{key}={val}" for key, val in kw.items()]
    argv = ["green", "--route", route, f"--grid={start!r}:{stop!r}:{n}",
            f"--P={CUTOFF}", "--format", fmt, *flags]
    for k in ks:
        argv += ["--k", k]
    spec = PotentialSpec()
    if doc:
        path = tmp_path / "medium.yaml"
        path.write_text(doc)
        argv += ["--potential", str(path)]
        spec = load_potential(str(path))
    if check:
        argv.append("--check")
    assert main(argv) == 0
    out = capsys.readouterr().out
    ks = [complex(*map(float, k.split(","))) for k in ks]
    rows = _library_green_rows(spec, _grid(start, stop, n), ks, route, check, **kw)
    header = GREEN_HEADER + (["abs_diff_route_b"] if check else [])
    assert out == _reference_text(fmt, header, rows)
    if case == "infinite-loss":
        assert any(row[7] == math.inf for row in rows)
    if case == "pole-mid-row":
        assert [row[6] for row in rows[:n]] == ["closed_form", *["pole"] * 5, "closed_form"]
    # the text after y of each row is that of its mirrored twin at the same k
    sep = "," if fmt == "csv" else ", "
    lines = out.splitlines()[1:] if fmt == "csv" else out.splitlines()
    tails = {}
    for i, line in enumerate(lines):
        x, y, tail = line.split(sep, 2)
        tails[i // n**2, x.split(": ")[-1], y.split(": ")[-1]] = tail
    assert len(tails) == len(lines)
    for (block, x, y), tail in tails.items():
        assert tails[block, y, x] == tail


@pytest.mark.parametrize("route", ["A", "B", "C"])
def test_coinciding_grid_points_equal_a_reference_writer(route, tmp_path, capsys):
    # --grid=1:1.0000000000000002:3 gives the points 1.0, 1.0 and
    # 1.0000000000000002: two coincide on the medium's right edge and the
    # third lies in its right tail.  The rows print two points alike, so the
    # mirrored-text check of the test above does not apply to them.
    from gf1d.potential import load_potential

    path = tmp_path / "medium.yaml"
    path.write_text(POLE_POT)
    spec = load_potential(str(path))
    grid = _grid(1.0, 1.0000000000000002, 3)
    assert grid[0] == grid[1] < grid[2]
    for fmt in ("csv", "jsonl"):
        for check in ([], ["--check"]):
            argv = ["green", "--route", route, "--grid=1:1.0000000000000002:3",
                    f"--P={CUTOFF}", "--format", fmt, "--potential", str(path),
                    "--k", "0.8,0.3", "--k", repr(POLE_K), *check]
            assert main(argv) == 0
            ks = [0.8 + 0.3j, complex(POLE_K)]
            rows = _library_green_rows(spec, grid, ks, route, bool(check))
            header = GREEN_HEADER + (["abs_diff_route_b"] if check else [])
            assert capsys.readouterr().out == _reference_text(fmt, header, rows)


def test_a_failing_pair_leaves_the_rows_before_it(tmp_path, capsys):
    # each pair is computed as it is written: R_l(inf, 2.4) fails the summed
    # step error at the third pair of the first row, after two rows.  stdout
    # and the message are those of a per-pair loop over the public library,
    # in the grid's order, that stops at the first pair that raises.
    from gf1d.errors import Gf1dError
    from gf1d.green import green_closed_form
    from gf1d.potential import load_potential

    path = tmp_path / "medium.yaml"
    path.write_text(RAMP_STEP_RAMP)
    spec = load_potential(str(path))
    argv = ["green", "--route", "B", "--method", "rk4", "--step", "0.08",
            "--grid=1.2:3.6:5", "--k", "2.5,0.3", "--potential", str(path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    k, rows, message = 2.5 + 0.3j, [], None
    pairs = [(x, y) for x in _grid(1.2, 3.6, 5) for y in _grid(1.2, 3.6, 5)]
    for x, y in pairs:
        try:
            gv = green_closed_form(spec, x, y, k, method="rk4", step=0.08)
        except Gf1dError as exc:
            message = f"error: {type(exc).__name__}: {exc}\n"
            break
        val = 2j * k * gv.value
        rows.append([x, y, k.real, k.imag, val.real, val.imag, gv.route,
                     gv.truncation_loss])
    assert len(rows) == 2
    assert message.startswith("error: StepTooLarge: ")
    assert message.endswith(" on [2.4000000000000004, 3.0]\n")
    assert out == _reference_text("csv", GREEN_HEADER, rows)
    assert err == message


def test_coefficients_rows_equal_a_reference_writer(tmp_path, capsys):
    from gf1d.potential import load_potential
    from gf1d.transfer import interval_triple

    header = [
        "x1", "x2", "k_re", "k_im", "tau_re", "tau_im", "r_right_re", "r_right_im",
        "r_left_re", "r_left_im",
    ]
    for doc, kw in ((POT_LEFT_TAIL, {}), (SAMPLED, RK4)):
        path = tmp_path / "medium.yaml"
        path.write_text(doc)
        spec = load_potential(str(path))
        for fmt in ("csv", "jsonl"):
            argv = ["coefficients", "--potential", str(path), "--format", fmt,
                    *(f"--{key}={val}" for key, val in kw.items()), "--k", "1.3,0.2",
                    "--k", "0.6", "--grid=-1:1.5:6", "--interval=0.7:-0.3"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            spans = [(0.7, -0.3)] + [(-1.0, x) for x in _grid(-1.0, 1.5, 6)[1:]]
            rows = []
            for k in (1.3 + 0.2j, 0.6 + 0j):
                for x1, x2 in spans:
                    t = interval_triple(spec, x1, x2, k, **kw)
                    rows.append([x1, x2, k.real, k.imag, t.tau.real, t.tau.imag,
                                 t.r_right.real, t.r_right.imag,
                                 t.r_left.real, t.r_left.imag])
            assert out == _reference_text(fmt, header, rows)


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_2(where, tmp_path, capsys):
    # it used to end in an IsADirectoryError or FileNotFoundError traceback
    out = tmp_path if where == "directory" else tmp_path / "missing" / "rows.csv"
    code = main(["green", "--grid=0:1:2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out: ")


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
    [MALFORMED[name] for name in ("nan-profile", "inf-tail", "inf-edge")],
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


@pytest.mark.parametrize(
    "route", [["born"], ["A", "--method=rk4"], ["B", "--method=rk4"]],
    ids=["born", "A-rk4", "B-rk4"],
)
@pytest.mark.parametrize("name", sorted(NON_FINITE_F))
def test_non_finite_f_exits_2(name, route, tmp_path, capsys):
    # every number of the document is finite but f is not: route born wrote
    # nan rows and leaked RuntimeWarnings with exit 0, and rk4 ended in an
    # OverflowError or ValueError traceback with exit 1
    doc, field = NON_FINITE_F[name]
    p = tmp_path / "bad.yaml"
    p.write_text(doc)
    argv = ["green", "--potential", str(p), "--k", "1,0.1", "--grid=0.1:0.3:2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--route", *route])
    out, err = capsys.readouterr()
    assert (code, out, caught) == (2, "", [])
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {field}: ")


NEAR_LIMIT = {
    "step": (
        "segments:\n"
        "  - {x_start: 0, x_end: 0.5, profile: {type: constant, c: 1.0e+308}}\n"
        "  - {x_start: 0.5, x_end: 1, profile: {type: constant, c: -1.0e+308}}\n",
        "--grid=0.1:0.8:2",
    ),
    "sampled": (
        "segments:\n"
        "  - {x_start: 0.25, x_end: 1, profile: {type: sampled,\n"
        "     points: [[0, 0], [3.47e-239, 1]]}}\n",
        "--grid=0.3:0.8:2",
    ),
}


@pytest.mark.parametrize("name", sorted(NEAR_LIMIT))
def test_born_past_the_float_range_exits_3(name, tmp_path, capsys):
    # f is finite but near the float limit: route born wrote nan rows and
    # leaked numpy RuntimeWarnings with exit 0
    doc, grid = NEAR_LIMIT[name]
    p = tmp_path / "near.yaml"
    p.write_text(doc)
    argv = ["green", "--potential", str(p), "--k", "1,0.1", grid, "--route", "born"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and "nan" not in out
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ResonanceDivision: ") and "float range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["green", "--k", "1.3,0.2", "--grid=-1:1:3", "--route", "C", "--check"],
        ["coefficients", "--interval", "0:1", "--format", "jsonl"],
        ["verify", "--seed", "1", "--P", "16"],
        ["green", "--nope"],
        ["green", "--k", "1", "--route", "B", "extra"],
        ["green", "--format", "xml"],
        ["green", "--grid"],
        ["coefficients", "--step", "fast"],
        [],
        ["nope"],
        ["-h"],
        ["green", "-h"],
        ["--", "green"],
    ],
    ids=["green", "coefficients", "verify", "unknown-flag", "extra-positional",
         "bad-choice", "missing-value", "bad-type", "no-command", "unknown-command",
         "help", "command-help", "double-dash"],
)
def test_one_parse_matches_the_full_parser(argv, capsys, monkeypatch):
    # main reads argv with the command's own parser; the full parser, which
    # reads it twice, must give the same output, messages and exit code
    from gf1d.cli import build_parser

    def run():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, capsys.readouterr()

    got = run()
    parser = build_parser()
    monkeypatch.setattr(parser, "commands", {})  # every argv to the full parser
    assert run() == got


def test_tail_only_medium_switches_tails_at_zero(tmp_path, capsys):
    # the tails meet at 0, as in the same medium written with a zero segment
    # on [0, 1]; the sweep used to miss that jump while evaluate_f kept it
    values = {}
    for name, doc in (("tail", TAIL_ONLY), ("explicit", TAIL_ONLY_EXPLICIT)):
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


def _env():
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_closed_pipe_exits_quietly():
    # a reader that stops early (| head -1) used to leave a BrokenPipeError
    # traceback and exit 1
    argv = ["-m", "gf1d.cli", "green", "--grid=-1:1:201", "--k", "1,0.2"]
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b"x,y,") and err == b""


def test_cached_parser_keeps_no_state(pot_file, capsys):
    # the parser is built once per process: no call may leave a --k, a
    # route or a --check behind for the next
    from gf1d.cli import build_parser

    grid = ["--potential", pot_file, "--grid=-1:1:3"]
    calls = [
        ["green", *grid, "--k", "1.3,0.2", "--k", "0.7", "--route", "C", "--check"],
        ["green", *grid],
        ["green", *grid, "--k", "0.9,0.1", "--route", "A"],
        ["coefficients", "--potential", pot_file, "--k", "1.1"],
        ["coefficients", "--potential", pot_file],
    ]
    first = []
    for argv in calls:
        assert main(argv) == 0
        first.append(capsys.readouterr().out)
    for i in [4, 2, 0, 3, 1, 0, 1]:
        assert main(calls[i]) == 0
        assert capsys.readouterr().out == first[i]
    assert build_parser() is build_parser()


def test_huge_real_k_grid_is_finite(pot_file, capsys):
    # c**2 - k**2 overflowed: four nan rows and exit 0
    code = main(["green", "--potential", pot_file, "--grid=0.2:0.5:2", "--k", "1e300,0"])
    out, err = capsys.readouterr()
    assert code == 0 and err == "" and "nan" not in out
    for row in _rows(out):
        value = complex(float(row["two_ik_g_re"]), float(row["two_ik_g_im"]))
        assert abs(abs(value) - 1.0) < 1e-9


def test_huge_k_rk4_exits_3(tmp_path, capsys):
    # the Magnus steps leave the float range: nan rows and exit 0 before
    p = tmp_path / "lin.yaml"
    p.write_text(LINEAR)
    code = main(["green", "--potential", str(p), "--method", "rk4", "--k", "1e300,0"])
    out, err = capsys.readouterr()
    assert code == 3 and "nan" not in out + err
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: StepTooLarge: ")


def test_oversized_cutoff_exits_3():
    # P = 1e7 ended in a numpy MemoryError traceback and exit 1
    run = subprocess.run(
        [sys.executable, "-m", "gf1d.cli", "green", "--route", "C", "--P", "10000000"],
        capture_output=True, text=True, timeout=60, env=_env(),
    )
    assert run.returncode == 3
    assert run.stderr.startswith("error: CutoffBudget: ")
    assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr


LAZY = """
import sys
import gf1d
spec = gf1d.load_potential(sys.argv[1])
assert spec.support == (-0.5, 0.5)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("gf1d", "numpy"))
assert loaded == ["gf1d", "gf1d.errors", "gf1d.potential"], loaded
names = {}
exec("from gf1d import *", names)
assert set(gf1d.__all__) <= set(names) and set(gf1d.__all__) <= set(dir(gf1d))
assert names["green_closed_form"] is sys.modules["gf1d.green"].green_closed_form
# a stale __all__ entry in any submodule fails here, not at a user's import
import pkgutil
for mod in pkgutil.iter_modules(gf1d.__path__):
    exec(f"from gf1d.{mod.name} import *", {})
"""


def test_package_import_is_lazy(pot_file):
    # loading a medium needs neither numpy nor the routes
    run = subprocess.run(
        [sys.executable, "-c", LAZY, pot_file],
        capture_output=True, text=True, timeout=60, env=_env(),
    )
    assert run.returncode == 0, run.stderr
