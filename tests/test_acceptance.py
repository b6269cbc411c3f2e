"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Randomized criteria draw their ensembles from the documented seeded
distributions (1-5 constant slabs, amplitudes in [-2, 2], widths in
[0.1, 1], |k| in [0.3, 3] in the closed upper-right quadrant).
"""

import math

import numpy as np
import pytest

from gf1d import born, green, polyrep, sl3, transfer, verify
from gf1d.cli import main
from gf1d.potential import ConstantProfile, PotentialSpec, Segment, slab

RNG_SEED = 12345


def _report(name, worst, tol):
    ok = worst <= tol
    print(f"{'PASS' if ok else 'FAIL'} {name}: residual {worst:.3e} <= {tol:.1e}")
    assert ok


def _ensemble(n_pot=50, n_k=10):
    rng = np.random.default_rng(RNG_SEED)
    return rng, verify.sample_potentials(rng, n_pot), verify.sample_wavenumbers(rng, n_k)


def test_criterion_1_algebra_suite():
    worst = max(res for _, res in sl3.commutation_table_check())
    worst = max(
        worst, max(res for _, res in polyrep.commutation_action_check(64))
    )
    _report("criterion 1 (algebra relations, both realizations)", worst, 1e-13)


def test_criterion_2_gauss_factorization():
    _, specs, ks = _ensemble()
    worst = 0.0
    for spec in specs:
        x_l, x_r = spec.support
        for k in ks:
            m = transfer.propagate(spec, x_l, x_r, k)
            t = transfer.scattering_coefficients(m)
            worst = max(worst, sl3.gauss_factorization_check(m, t))
    _report("criterion 2 (Gauss factorization, 50x10 ensemble)", worst, 1e-9)


def test_criterion_3_free_space():
    vac = PotentialSpec()
    worst = 0.0
    for k in (1.0, 0.8 + 0.6j):
        for x in np.linspace(-2.0, 2.0, 21):
            for y in np.linspace(-2.0, 2.0, 21):
                g = green.green_closed_form(vac, x, y, k)
                worst = max(
                    worst, abs(2j * k * g.value - np.exp(1j * k * abs(x - y)))
                )
    _report("criterion 3 (free-space kernel, 21x21 grid)", worst, 1e-12)


def test_criterion_4_route_equivalence():
    rng, specs, ks = _ensemble()
    P = 48
    w_ab = w_cb = w_asym = 0.0
    for spec in specs:
        x_l, x_r = spec.support
        for k in ks:
            pts = rng.uniform(x_l, x_r, 10)
            for i in range(5):
                x = float(max(pts[2 * i : 2 * i + 2]))
                y = float(min(pts[2 * i : 2 * i + 2]))
                gb = green.green_closed_form(spec, x, y, k)
                ga = sl3.green_wronskian(spec, x, y, k)
                w_ab = max(w_ab, abs(ga.value - gb.value) * abs(2 * k))
                gc = green.green_polyrep(spec, x, y, k, P=P)
                err = abs(gc.value - gb.value) * abs(2 * k)
                w_cb = max(w_cb, err - gc.truncation_loss)
                gd = green.green_polyrep(spec, x, y, k, P=P, variant="asymmetric")
                w_asym = max(w_asym, abs(gd.value - gc.value) * abs(2 * k))
    _report("criterion 4a (route A vs B)", w_ab, 1e-8)
    _report("criterion 4b (route C vs B, minus truncation loss)", w_cb, 1e-8)
    _report("criterion 4c (asymmetric vs symmetric C)", w_asym, 1e-10)


def test_criterion_5_coincident_point():
    _, specs, ks = _ensemble(10, 5)
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for spec in specs:
        x_l, x_r = spec.support
        for k in ks:
            for x in rng.uniform(x_l, x_r, 3):
                g = green.green_closed_form(spec, x, x, k)
                rr, rl = transfer.semi_infinite_coefficients(spec, x, k)
                want = (1.0 + rl) * (1.0 + rr) / (1.0 - rl * rr)
                worst = max(worst, abs(2j * k * g.value - want))
    _report("criterion 5 (coincident-point closed form)", worst, 1e-12)


def test_criterion_6_powers_and_products():
    spec = PotentialSpec(
        segments=(
            Segment(-0.5, 0.1, ConstantProfile(1.1)),
            Segment(0.1, 0.8, ConstantProfile(-0.7)),
        )
    )
    ks = (1.2, 0.7 + 0.5j)
    P = 64
    w_pow = w_prod2 = w_prod3 = w_neg = 0.0
    for k in ks:
        x, y = 0.55, -0.25
        b = 2j * k * green.green_closed_form(spec, x, y, k).value
        for n in (2, 3):
            gp = green.green_power(spec, x, y, k, n, P=P)
            w_pow = max(w_pow, abs(gp.value - b**n))
        gn = green.green_negative_power(spec, x, y, k, 1, P=P)
        w_neg = max(w_neg, abs(gn.value * b - 1.0))
        pairs2 = [(0.6, -0.3), (0.45, -0.1)]
        want = 1.0
        for xx, yy in pairs2:
            want *= 2j * k * green.green_closed_form(spec, xx, yy, k).value
        w_prod2 = max(
            w_prod2, abs(green.green_product(spec, pairs2, k, P=P).value - want)
        )
        pairs3 = pairs2 + [(0.3, 0.05)]
        want *= 2j * k * green.green_closed_form(spec, 0.3, 0.05, k).value
        w_prod3 = max(
            w_prod3, abs(green.green_product(spec, pairs3, k, P=P).value - want)
        )
    _report("criterion 6a (powers n=2,3)", w_pow, 1e-7)
    _report("criterion 6b (two-factor product)", w_prod2, 1e-7)
    _report("criterion 6c (three-factor product)", w_prod3, 1e-6)
    _report("criterion 6d (negative power n=1)", w_neg, 1e-6)


def test_criterion_7_inverse_operator_identities():
    P = 220
    p_max = 24
    worst = 0.0
    for c in (0.8, -0.35, 0.5 + 0.6j):
        for m in range(2, 7):
            for n in range(1, m):
                # n-fold lowering of the resolvent vector
                v = polyrep.mu_over_one_minus_c_xi(m, c, P)
                for _ in range(n):
                    v = polyrep.inverse_operator("(L-+K+)inv", v)
                scale = (
                    math.factorial(m - n - 1)
                    / math.factorial(m - 1)
                    / (1.0 + c) ** n
                )
                want = polyrep.mu_over_one_minus_c_xi(m - n, c, P, scale)
                worst = max(
                    worst,
                    max(
                        abs(v.component(m - n)[p] - want.component(m - n)[p])
                        for p in range(p_max)
                    ),
                )
                # pure mu powers, both lowering and raising inverses
                w = polyrep.PolyVec.basis(0, m, 8)
                for _ in range(n):
                    w = polyrep.inverse_operator("L-inv", w)
                want_c = math.factorial(m - n - 1) / math.factorial(m - 1)
                worst = max(worst, abs(w.rows[m - n][0] - want_c))
                w = polyrep.PolyVec.basis(0, m, 8)
                for _ in range(n):
                    w = polyrep.inverse_operator("L+inv", w)
                want_c = (-1.0) ** n * math.factorial(m) / math.factorial(m + n)
                worst = max(worst, abs(w.rows[m + n][0] - want_c))
    _report("criterion 7 (inverse-operator closed forms)", worst, 1e-12)


def test_criterion_8_reflection_bounds():
    _, specs, ks = _ensemble()
    worst = 0.0
    for spec in specs:
        x_l, x_r = spec.support
        for k in ks:
            t = transfer.interval_triple(spec, x_l, x_r, k)
            worst = max(worst, abs(t.r_right) - 1.0, abs(t.r_left) - 1.0)
    _report("criterion 8 (|R| <= 1 over the ensemble)", max(worst, 0.0), 1e-12)


def test_criterion_9_jump_condition():
    spec = slab(0.9, -0.5, 0.5)
    k = 1.5
    r1 = green.jump_condition_check(spec, 0.12, k, h=1e-3)
    r2 = green.jump_condition_check(spec, 0.12, k, h=5e-4)
    _report("criterion 9a (derivative jump at h=1e-3)", r1, 1e-4)
    ratio = r1 / r2
    ok = 3.2 <= ratio <= 4.8
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 9b (O(h^2) stencil): "
        f"ratio {ratio:.2f} in [3.2, 4.8]"
    )
    assert ok


def test_criterion_10_born_scaling():
    k = 1.0
    errs = []
    for c in (0.1, 0.05):
        spec = slab(c, 0.0, 1.0)
        gb = green.green_closed_form(spec, 0.7, 0.25, k)
        gv, _ = born.born_series(spec, 0.7, 0.25, k, max_order=2)
        errs.append(abs(gv.value - gb.value))
    ratio = errs[0] / errs[1]
    ok = 5.6 <= ratio <= 11.2
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 10 (weak-medium error scaling): "
        f"ratio {ratio:.2f} in [5.6, 11.2]"
    )
    assert ok


def test_criterion_11_inner_product_integral():
    worst = 0.0
    for p in range(5):
        for q in range(5):
            if p + q < 1:
                continue
            quad, formula = polyrep.inner_product_integral_check(p, q)
            worst = max(worst, abs(quad - formula))
    _report("criterion 11 (weight quadrature, p,q <= 4)", worst, 1e-6)


def test_criterion_12_negative_control(capsys):
    code = main(["verify", "--inject-corruption", "--out", "/dev/null"])
    ok = code != 0
    print(f"{'PASS' if ok else 'FAIL'} criterion 12 (corruption detected): exit {code}")
    assert ok
