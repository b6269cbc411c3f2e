"""Each output check of the benchmark accepts gf1d's output and rejects a perturbed one.

    python3 perfbench/test_checks.py        # or: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import cmath
import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gf1d  # noqa: E402
import gf1d.cli  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SEED = 7


def _run(workload, i=0):
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    runner = worker.Runner(gf1d, workload)
    job = workloads.make_job(workload, SEED, i)
    try:
        ops = runner.run(runner.prepare(job))
    finally:
        if os.path.exists(runner.path):
            os.remove(runner.path)
    return job, ops


def _scaled(pair, factor):
    z = complex(*pair) * factor
    return [z.real, z.imag]


def _rejects(workload, job, ops, op_name):
    bad = reference.check_job(workload, job, ops)
    assert bad, f"perturbed {op_name} passed"
    assert any(msg.startswith(op_name) for msg in bad), bad


def _check_every_value(workload, factor_of):
    job, ops = _run(workload)
    assert reference.check_job(workload, job, ops) == []
    for j, op in enumerate(ops):
        if "v" in op:
            bent = copy.deepcopy(ops)
            bent[j]["v"] = _scaled(op["v"], factor_of(job, op))
            _rejects(workload, job, bent, op["op"])
        if "t" in op:
            for c, name in ((0, "tau"), (2, "R_r"), (4, "R_l")):
                bent = copy.deepcopy(ops)
                bent[j]["t"][c:c + 2] = _scaled(op["t"][c:c + 2], 1 + 1e-6)
                _rejects(workload, job, bent, f"{op['op']} {name}")
    return job, ops


def test_point_series_rejects_each_perturbed_route():
    job, ops = _check_every_value("point_series", lambda job, op: 1 + 1e-6)
    counted = [op["op"] for op in ops if "err" in op]
    assert counted == ["overflow0", "overflow1"]


def test_born_rejects_error_beyond_the_weak_medium_bound():
    def factor(job, op):
        order = int(op["op"][-1])
        two_ik_g = 2j * complex(*job["k"]) * complex(*op["v"])
        return 1 + 3 * reference.born_bound(job["s"], order) / abs(two_ik_g)

    _check_every_value("born_weak", factor)


def test_smooth_ode_rejects_perturbed_values_and_triples():
    _check_every_value("smooth_ode", lambda job, op: 1 + 1e-6)


def test_cli_grid_rejects_a_perturbed_row_and_a_missing_row():
    job, ops = _run("cli_grid")
    assert reference.check_job("cli_grid", job, ops) == []
    lines = ops[0]["csv"].splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-6))
    bent = copy.deepcopy(ops)
    bent[0]["csv"] = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert reference.check_job("cli_grid", job, bent)
    bent[0]["csv"] = "\n".join(lines[:2] + lines[3:]) + "\n"
    assert reference.check_job("cli_grid", job, bent)


def test_symmetry_check_rejects_an_asymmetric_value():
    values = {(0.5, -0.5, 1j): 0.3 + 0.1j, (-0.5, 0.5, 1j): 0.3 + 0.1j}
    assert reference.check_symmetry(values) == []
    values[(0.5, -0.5, 1j)] *= 1 + 1e-9
    assert reference.check_symmetry(values)


def test_reflection_bound():
    assert reference.check_reflection_bound("R", 0.999 + 0j) == []
    assert reference.check_reflection_bound("R", 1.0001 + 0j)


def test_overflow_queries_accept_only_overflow_or_underflow():
    assert reference.check_overflow_query({"op": "q", "err": "OverflowError"}) == []
    assert reference.check_overflow_query({"op": "q", "v": [0.0, 0.0]}) == []
    assert reference.check_overflow_query({"op": "q", "err": "ZeroDivisionError"})
    assert reference.check_overflow_query({"op": "q", "v": [1e-100, 0.0]})


def test_reference_is_exp_ik_distance_in_vacuum():
    k = 1.3 + 0.2j
    prop = reference.Propagator(reference.Medium({"segments": []}), k)
    (g,) = prop.green2ik([(0.7, -0.4)])
    assert abs(g - cmath.exp(1j * k * 1.1)) < 1e-13


if __name__ == "__main__":
    tests = [v for n, v in sorted(globals().items()) if n.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
    print(f"{len(tests)} passed")
