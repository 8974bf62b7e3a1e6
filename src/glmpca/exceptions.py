"""Exception hierarchy for glmpca."""


class GlmPcaError(Exception):
    """Base class for all glmpca errors."""


class ConfigError(GlmPcaError):
    """Invalid model or run configuration."""


class DataError(GlmPcaError):
    """Input data cannot be parsed or violates the noise model's support."""


class DomainError(GlmPcaError):
    """Argument outside the domain of a family function."""


class DegenerateColumnError(GlmPcaError):
    """Fisher information identically zero for a column update."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(
            f"Fisher information for column {column} is identically zero "
            "(unpenalized column paired with an all-zero partner column)"
        )


class PostprocessError(GlmPcaError):
    """Covariate projection impossible (rank-deficient design matrix)."""


class FitError(GlmPcaError):
    """Optimization failed irrecoverably; carries the objective trace."""

    def __init__(self, message: str, trace=None):
        self.trace = list(trace) if trace is not None else []
        super().__init__(message)
