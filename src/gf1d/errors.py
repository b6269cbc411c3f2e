"""Exception types shared across the package."""


class Gf1dError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(Gf1dError, ValueError):
    """An input is outside the supported domain, or a potential/config file
    could not be parsed; the message names the field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class IntervalMismatch(Gf1dError):
    """Two interval-carrying objects do not share the required endpoint or k."""


class UnsupportedProfile(Gf1dError):
    """exact_piecewise propagation requested on a stretch where f is not constant."""


class StepTooLarge(Gf1dError):
    """Fixed-step integration failed a local error heuristic."""


class ResonanceDivision(Gf1dError):
    """|alpha(k)| fell below threshold (transmission zero / numerical
    resonance), or a value left the float range."""


class BranchUndefined(Gf1dError):
    """k**2 == c**2 exactly: square-root branch point of a constant tail."""


class LogBranch(Gf1dError):
    """log(tau) undefined because tau == 0."""


class WronskianZero(Gf1dError):
    """Wronskian below threshold (bound-state pole at this k)."""


class DenominatorZero(Gf1dError):
    """Closed-form Green denominator below threshold (bound-state pole)."""


class GammaPole(Gf1dError):
    """Inner-product weight requested at a Gamma-function pole."""


class DomainViolation(Gf1dError):
    """Input vector outside the domain of an inverse operator."""


class QuadratureBudget(Gf1dError):
    """Nested quadrature would exceed the configured panel budget."""


class CutoffBudget(Gf1dError):
    """A series cutoff P would exceed the fixed work budget of the series."""
