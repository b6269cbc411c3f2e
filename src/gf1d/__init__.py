"""Green functions of the 1D stationary Schrodinger equation.

The potential is described through f(x) with V = f**2 + f'; the same
Green function is computed through independent routes (decaying
solutions and their Wronskian, a closed form in interval
transmission/reflection coefficients, matrix elements in a polynomial
representation of the underlying rank-two algebra, and a
multiple-scattering series), plus a verification suite that re-checks
every algebraic identity the routes rest on.

The public names are resolved on first use (PEP 562), so that loading a
medium imports neither numpy nor the routes.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_SOURCES = {
    "born": ("born_series",),
    "green": (
        "GreenValue",
        "green_closed_form",
        "green_negative_power",
        "green_polyrep",
        "green_power",
        "green_product",
        "jump_condition_check",
    ),
    "potential": (
        "PotentialSpec",
        "Segment",
        "ConstantProfile",
        "LinearProfile",
        "SampledProfile",
        "check_wavenumber",
        "load_potential",
        "slab",
    ),
    "sl3": ("GeneratorSet3", "green_wronskian"),
    "transfer": (
        "ScatteringTriple",
        "TransferMatrix",
        "interval_triple",
        "propagate",
        "riccati_coefficients",
        "semi_infinite_coefficients",
    ),
    "verify": ("CheckReport", "run_suite"),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
