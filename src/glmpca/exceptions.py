"""Exception hierarchy for glmpca."""


class GlmPcaError(Exception):
    """Base class for all glmpca errors."""


class ConfigError(GlmPcaError):
    """Invalid model or run configuration."""


class DataError(GlmPcaError):
    """Input data cannot be parsed or violates the noise model's support."""


class DomainError(GlmPcaError):
    """Argument outside the domain of a family function."""


class FitError(GlmPcaError):
    """Optimization failed irrecoverably; carries the objective trace."""

    def __init__(self, message: str, trace=None):
        self.trace = list(trace) if trace is not None else []
        super().__init__(message)
