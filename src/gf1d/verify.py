"""Machine-checked verification suite for the package's identities.

Every algebraic relation the implementation relies on is re-checked
numerically on a seeded ensemble of random slab potentials and complex
wavenumbers.  Each check yields one CheckReport with a residual, the
tolerance it is held to, and a pass/fail status; the suite is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import born as born_mod
from . import green as green_mod
from . import polyrep, sl3, transfer
from .errors import ConfigError
from .potential import PotentialSpec, Segment, ConstantProfile, slab

__all__ = [
    "CheckReport",
    "TOLERANCES",
    "sample_potentials",
    "sample_wavenumbers",
    "run_suite",
]

# every tolerance used by the suite, in one place
TOLERANCES = {
    "sl3-commutation": 1e-13,
    "polyrep-commutation": 1e-13,
    "unimodularity": 1e-9,
    "inverse-evolution": 1e-9,
    "composition-associativity": 1e-9,
    "triple-composition": 1e-9,
    "riccati-transfer": 1e-6,
    "reflection-bound": 1e-12,
    "gauss-factorization": 1e-9,
    "intertwiners": 1e-9,
    "adjoint": 1e-9,
    "inner-product-quadrature": 1e-6,
    "ladder-closed-form": 1e-12,
    "ladder-lambda-power": 1e-12,
    "inverse-ladder-roundtrip": 1e-12,
    "inverse-ladder-closed-form": 1e-10,
    "inverse-mu-powers": 1e-12,
    "free-space": 1e-12,
    "coincident-closed-form": 1e-12,
    "route-wronskian-vs-closed": 1e-8,
    "route-polyrep-vs-closed": 1e-8,  # plus the reported truncation loss
    "route-asym-vs-sym": 1e-10,
    "power-identity": 1e-7,
    "product-identity": 1e-6,
    "negative-power-identity": 1e-6,
    "jump-condition": 1e-4,
    "born-weak-scaling": 1e-12,
}


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    anchor: str
    residual: float
    tolerance: float
    status: str

    def to_dict(self):
        return asdict(self)

    def line(self):
        return (
            f"{self.status.upper():4s} {self.check_id:28s} "
            f"residual={self.residual:.3e} tol={self.tolerance:.1e}  {self.anchor}"
        )


def sample_potentials(rng, n):
    """Seeded random piecewise-constant media: 1-5 slabs per draw."""
    out = []
    for _ in range(n):
        n_slabs = int(rng.integers(1, 6))
        widths = rng.uniform(0.1, 1.0, n_slabs)
        amps = rng.uniform(-2.0, 2.0, n_slabs)
        x = -0.5 * float(np.sum(widths))
        segs = []
        for w, a in zip(widths, amps):
            segs.append(Segment(x, x + float(w), ConstantProfile(float(a))))
            x += float(w)
        out.append(PotentialSpec(segments=tuple(segs)))
    return out


def sample_wavenumbers(rng, n):
    """|k| in [0.3, 3], phase in the closed upper-right quadrant."""
    mod = rng.uniform(0.3, 3.0, n)
    arg = rng.uniform(0.0, 0.5 * np.pi, n)
    return [complex(m * np.exp(1j * a)) for m, a in zip(mod, arg)]


def _report(check_id, anchor, residual, results):
    tol = TOLERANCES[check_id]
    residual = float(residual)
    ok = math.isfinite(residual) and residual <= tol
    results.append(
        CheckReport(check_id, anchor, residual, tol, "pass" if ok else "fail")
    )


def _interior_points(spec, rng, n):
    x_l, x_r = spec.support
    return rng.uniform(x_l + 0.05 * (x_r - x_l), x_r - 0.05 * (x_r - x_l), n)


def run_suite(seed=0, P=48, corrupt=False):
    """Run every check on 8 random media and 4 wavenumbers drawn from
    ``seed``; returns one CheckReport per check, deterministic per seed.

    ``corrupt`` perturbs one 3x3 generator entry before checking, a
    negative control that must produce failing reports.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError("seed", f"must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    specs = sample_potentials(rng, 8)
    ks = sample_wavenumbers(rng, 4)
    results = []

    gens = sl3.GeneratorSet3()
    if corrupt:
        gens = gens.perturbed("L+", 1e-3)

    # algebra of the generators, both realizations
    r = max(res for _, res in sl3.commutation_table_check(gens))
    _report("sl3-commutation", "bracket table, 3x3 matrices", r, results)
    r = max(res for _, res in polyrep.commutation_action_check(16))
    _report("polyrep-commutation", "bracket table, differential action", r, results)

    # evolution matrices
    uni = inv = assoc = trip = ricc = refl = gauss = inter = 0.0
    for spec in specs:
        x_l, x_r = spec.support
        for k in ks:
            m = transfer.propagate(spec, x_l, x_r, k)
            uni = max(uni, m.unimodularity_residual())
            prod = transfer.compose(m, transfer.invert(m)).as_matrix()
            inv = max(inv, float(np.max(np.abs(prod - np.eye(2)))))
            xm1, xm2 = x_l + 0.3 * (x_r - x_l), x_l + 0.7 * (x_r - x_l)
            m1 = transfer.propagate(spec, x_l, xm1, k)
            m2 = transfer.propagate(spec, xm1, xm2, k)
            m3 = transfer.propagate(spec, xm2, x_r, k)
            a = transfer.compose(transfer.compose(m3, m2), m1).as_matrix()
            b = transfer.compose(m3, transfer.compose(m2, m1)).as_matrix()
            assoc = max(assoc, float(np.max(np.abs(a - b))))
            t_whole = transfer.scattering_coefficients(m)
            t_comp = transfer.compose_triples(
                transfer.scattering_coefficients(transfer.compose(m3, m2)),
                transfer.scattering_coefficients(m1),
            )
            trip = max(
                trip,
                abs(t_whole.tau - t_comp.tau),
                abs(t_whole.r_right - t_comp.r_right),
                abs(t_whole.r_left - t_comp.r_left),
            )
            refl = max(
                refl,
                abs(t_whole.r_right) - 1.0,
                abs(t_whole.r_left) - 1.0,
            )
            gauss = max(gauss, sl3.gauss_factorization_check(m, t_whole, gens))
            inter = max(
                inter,
                max(res for _, res in sl3.intertwiner_check(m, t_whole, gens)),
            )
        # one first-order integration per potential is enough
        k = ks[0]
        t_ode = transfer.riccati_coefficients(spec, x_l, x_r, k, step=2e-3)
        t_ref = transfer.interval_triple(spec, x_l, x_r, k)
        ricc = max(
            ricc,
            abs(t_ode.tau - t_ref.tau),
            abs(t_ode.r_right - t_ref.r_right),
            abs(t_ode.r_left - t_ref.r_left),
        )
    _report("unimodularity", "det U = 1", uni, results)
    _report("inverse-evolution", "U(x,y) U(y,x) = I", inv, results)
    _report("composition-associativity", "matrix chain order", assoc, results)
    _report("triple-composition", "two-interval coefficient formula", trip, results)
    _report("riccati-transfer", "first-order equations vs matrices", ricc, results)
    _report("reflection-bound", "|R| <= 1 for Im k >= 0", max(refl, 0.0), results)
    _report("gauss-factorization", "triangular x diagonal x triangular", gauss, results)
    _report("intertwiners", "evolution/ladder exchange", inter, results)

    # inner-product structure
    r = max(res for _, res in polyrep.adjoint_check(16))
    _report("adjoint", "pairing-adjoint table", r, results)
    r = 0.0
    for p in range(5):
        for q in range(5):
            if p + q < 1:
                continue
            quad, formula = polyrep.inner_product_integral_check(p, q)
            r = max(r, abs(quad - formula) / abs(formula))
    _report("inner-product-quadrature", "radial integral of the weight", r, results)

    # ladder identities
    r = r2 = 0.0
    for _ in range(3):
        c = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        for n in (1, 2):
            for m in (1, 2, 3):
                got = _raised(polyrep.mu_over_one_minus_c_xi(m, c, P + n), n, P)
                scale = (
                    math.factorial(m + n - 1)
                    / math.factorial(m - 1)
                    * (1.0 + c) ** n
                )
                want = polyrep.mu_over_one_minus_c_xi(m + n, c, P, scale)
                r = max(r, got.max_abs_diff(want))
            # on the generating vector: n! times its (n+1)-st power
            got = _raised(polyrep.lambda_r(c, P + n), n, P)
            want = math.factorial(n) * polyrep.lambda_r_power(c, n + 1, P)
            r2 = max(r2, got.max_abs_diff(want))
    _report("ladder-closed-form", "n-fold raising on resolvent vectors", r, results)
    _report("ladder-lambda-power", "raising ladder powers the vector", r2, results)

    # inverse operators
    r = _inverse_roundtrip_residual(rng, P)
    _report("inverse-ladder-roundtrip", "inverse then forward is identity", r, results)
    r = _inverse_closed_form_residual()
    _report(
        "inverse-ladder-closed-form", "lowering on resolvent vectors", r, results
    )
    r = _inverse_mu_power_residual()
    _report("inverse-mu-powers", "closed forms on pure mu powers", r, results)

    # Green function routes
    vac = PotentialSpec()
    r = 0.0
    for x in np.linspace(-1.5, 1.5, 7):
        for y in np.linspace(-1.5, 1.5, 7):
            got = green_mod.green_closed_form(vac, x, y, 1.0 + 0.2j)
            want = np.exp(1j * (1.0 + 0.2j) * abs(x - y))
            r = max(r, abs(2j * (1.0 + 0.2j) * got.value - want))
    _report("free-space", "uniform medium kernel", r, results)

    r_coinc = r_wron = r_poly = r_asym = 0.0
    r_pow = r_prod = r_neg = 0.0
    for spec in specs[:4]:
        for k in ks[:2]:
            pts = _interior_points(spec, rng, 2)
            x, y = float(max(pts)), float(min(pts))
            gb = green_mod.green_closed_form(spec, x, y, k)
            ga = sl3.green_wronskian(spec, x, y, k)
            r_wron = max(r_wron, abs(ga.value - gb.value) * abs(2j * k))
            gc = green_mod.green_polyrep(spec, x, y, k, P=P)
            err = abs(gc.value - gb.value) * abs(2 * k)
            r_poly = max(r_poly, max(0.0, err - gc.truncation_loss))
            gasym = green_mod.green_polyrep(spec, x, y, k, P=P, variant="asymmetric")
            r_asym = max(r_asym, abs(gasym.value - gc.value) * abs(2 * k))
            g0 = green_mod.green_closed_form(spec, x, x, k)
            rr, rl = transfer.semi_infinite_coefficients(spec, x, k)
            want = (1.0 + rl) * (1.0 + rr) / (1.0 - rl * rr)
            r_coinc = max(r_coinc, abs(2j * k * g0.value - want))
            b = 2j * k * gb.value
            for n in (2, 3):
                gp = green_mod.green_power(spec, x, y, k, n, P=P)
                r_pow = max(r_pow, abs(gp.value - b**n))
            gneg = green_mod.green_negative_power(spec, x, y, k, 1, P=P)
            r_neg = max(r_neg, abs(gneg.value * b - 1.0))
    _report("coincident-closed-form", "equal-argument value", r_coinc, results)
    _report("route-wronskian-vs-closed", "decaying-solutions route", r_wron, results)
    _report(
        "route-polyrep-vs-closed", "matrix-element route", r_poly, results
    )
    _report("route-asym-vs-sym", "one-sided vs two-sided pairing", r_asym, results)
    _report("power-identity", "n-th power matrix element", r_pow, results)
    for spec in specs[:2]:
        k = ks[0]
        pts = sorted(_interior_points(spec, rng, 10))
        pairs = [(pts[-1 - i], pts[i]) for i in range(5)]  # nested: x_i > x_i+1
        want = 2j * k * green_mod.green_closed_form(spec, *pairs[0], k).value
        for m in range(2, 6):
            want *= 2j * k * green_mod.green_closed_form(spec, *pairs[m - 1], k).value
            got = green_mod.green_product(spec, pairs[:m], k, P=2 * P)
            r_prod = max(r_prod, abs(got.value - want) - got.truncation_loss)
    _report("product-identity", "chained two- to five-point products", r_prod, results)
    _report("negative-power-identity", "reciprocal via inverse ladders", r_neg, results)

    # jump of the first derivative across the diagonal
    spec = slab(0.7, -0.5, 0.5)
    r = green_mod.jump_condition_check(spec, 0.1, 1.2 + 0.3j, h=1e-4)
    _report("jump-condition", "unit derivative jump", r, results)

    # weak-medium scaling of the second- and third-order partial sums
    r = _born_scaling_residual()
    _report("born-weak-scaling", "third- and fourth-order error scaling", r, results)

    return results


def _raised(v, n, P):
    """(L- + K+)**n applied to v, cut to P: v formed at P + n leaves the
    orders up to P free of truncation."""
    for _ in range(n):
        v = polyrep.apply_generator("L-", v) + polyrep.apply_generator("K+", v)
    return polyrep.PolyVec(v.rows, P)


def _inverse_roundtrip_residual(rng, P):
    r = 0.0
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    for m in (2, 3, 5):
        v = polyrep.PolyVec({m: g}, P)
        w = polyrep.inverse_operator("(L-+K+)inv", v)
        back = polyrep.apply_generator("L-", w) + polyrep.apply_generator("K+", w)
        for row in (back - v).rows.values():
            r = max(r, np.max(np.abs(row[:P])))
        w = polyrep.inverse_operator("L-inv", v)
        back = polyrep.apply_generator("L-", w)
        r = max(r, back.max_abs_diff(v))
        w = polyrep.inverse_operator("(L+-K-)inv", v)
        back = polyrep.apply_generator("L+", w) - polyrep.apply_generator("K-", w)
        r = max(r, back.max_abs_diff(v))
        w = polyrep.inverse_operator("L+inv", v)
        back = polyrep.apply_generator("L+", w)
        r = max(r, back.max_abs_diff(v))
    return r


def _inverse_closed_form_residual(P=220, p_max=32):
    """(L-+K+)^{-1} on resolvent vectors against the closed form.

    The basis change to powers of (1+xi) folds the truncated tail into
    every coefficient, so the comparison uses an enlarged working cutoff
    and checks the low-order coefficients only.
    """
    r = 0.0
    for c in (0.35, -0.5, 0.6 + 0.2j):
        for m in (2, 3, 6):
            v = polyrep.mu_over_one_minus_c_xi(m, c, P)
            got = polyrep.inverse_operator("(L-+K+)inv", v)
            want = polyrep.mu_over_one_minus_c_xi(
                m - 1, c, P, 1.0 / ((m - 1) * (1.0 + c))
            )
            diff = got.component(m - 1) - want.component(m - 1)
            r = max(r, np.max(np.abs(diff[:p_max])))
            # n-fold version down to degree m - n
            n = m - 1
            w = v
            for _ in range(n):
                w = polyrep.inverse_operator("(L-+K+)inv", w)
            scale = (
                math.factorial(m - n - 1)
                / math.factorial(m - 1)
                / (1.0 + c) ** n
            )
            want = polyrep.mu_over_one_minus_c_xi(m - n, c, P, scale)
            diff = w.component(m - n) - want.component(m - n)
            r = max(r, np.max(np.abs(diff[:p_max])))
    return r


def _inverse_mu_power_residual(P=16):
    r = 0.0
    for m in (2, 3, 6):
        for n in range(1, m):
            v = polyrep.PolyVec.basis(0, m, P)
            for _ in range(n):
                v = polyrep.inverse_operator("L-inv", v)
            want = math.factorial(m - n - 1) / math.factorial(m - 1)
            r = max(r, abs(v.component(m - n)[0] - want))
    for m in (1, 2, 4):
        for n in (1, 2, 3):
            v = polyrep.PolyVec.basis(0, m, P)
            for _ in range(n):
                v = polyrep.inverse_operator("L+inv", v)
            want = (-1.0) ** n * math.factorial(m) / math.factorial(m + n)
            r = max(r, abs(v.component(m + n)[0] - want))
    return r


def _born_scaling_residual():
    """How far the error ratio of the order-m partial sum at c = 0.1 and
    0.05 lies outside its bracket about 2**(m + 1), for m = 2 and 3."""
    k, r = 1.0, 0.0
    # x + y away from the slab center so the third-order term does not vanish
    for order, lo, hi in ((2, 5.6, 11.2), (3, 11.3, 22.6)):
        errs = []
        for c in (0.1, 0.05):
            spec = slab(c, 0.0, 1.0)
            gb = green_mod.green_closed_form(spec, 0.7, 0.25, k)
            got, _ = born_mod.born_series(spec, 0.7, 0.25, k, order, n_nodes=24)
            errs.append(abs(got.value - gb.value))
        ratio = errs[0] / errs[1]
        r = max(r, 0.0 if lo <= ratio <= hi else min(abs(ratio - lo), abs(ratio - hi)))
    return r
