"""Exception types shared across the package.

Every error raised on purpose derives from GcalcError so callers (and the
command line front end) can tell deliberate rejections apart from bugs.
"""


class GcalcError(Exception):
    """Base class for all deliberate errors raised by this package."""


class DimensionError(GcalcError):
    """Operands have incompatible shapes or an unsupported dimension."""


class InputError(GcalcError):
    """An input value is outside the documented domain (non-finite payoff, control
    outside the volatility box, empty path set, and so on)."""


class GridResolutionError(GcalcError):
    """The space grid is too coarse for the requested time step, so the
    one-step transition would collapse onto a single node."""


class DegenerateBoxError(GcalcError):
    """An operation that requires (or forbids) a collapsed volatility box was
    called with the wrong kind of box."""


class ConvergenceError(GcalcError):
    """An iterative routine did not reach its tolerance within the allowed
    number of iterations. Carries the distance trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class DegenerateDenominatorError(GcalcError):
    """The denominator data of a ratio diagnostic is not bounded away from
    zero, so the ratio is meaningless."""


class WeightOverflowError(GcalcError):
    """An exponential time weight would overflow double precision."""


class ConfigError(GcalcError):
    """A run configuration failed validation. Message names the field."""
