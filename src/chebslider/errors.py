"""Exception types shared across the library."""


class ChebSliderError(Exception):
    """Base class for all chebslider errors."""


class DomainError(ChebSliderError, ValueError):
    """Invalid interval or hyper-rectangle."""


class ConfigurationError(ChebSliderError, ValueError):
    """Inconsistent build configuration (dimension mismatches, bad tuples)."""


class ParameterError(ChebSliderError, ValueError):
    """Numeric parameter outside its admissible range."""


class ArgumentError(ChebSliderError, ValueError):
    """Invalid argument to an evaluation, a statistic or the command line."""


class SamplingError(ChebSliderError, ValueError):
    """A sampled function returned a non-finite value."""


class ModelDomainError(ChebSliderError, ValueError):
    """Market state outside the pricing model's domain."""


class MissingCurveError(ChebSliderError, KeyError):
    """A trade references a curve id absent from the market."""


class UnknownFactorError(ChebSliderError, KeyError):
    """A risk-factor name is not part of the scenario set."""
