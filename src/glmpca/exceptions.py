"""Exception hierarchy for glmpca, the one check of a scalar option and
the one check that an array argument holds finite real numbers."""

import numbers
import sys

import numpy as np


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


def check_option(value, name: str, *, integer: bool = False,
                 positive: bool = False):
    """The scalar option ``value`` as a Python int when ``integer``, else
    as a float.

    Raises ConfigError naming ``name`` for a bool, a non-number, a
    non-integer when ``integer``, a value that is not a finite float
    otherwise, and a value below 0, or at 0 when ``positive``.  An
    integer of any size passes unconverted to float.
    """
    # a numpy scalar is checked as its Python twin: then an int of any
    # size is compared with a Python float exactly, where numpy would
    # convert one side and could overflow; NaN fails every comparison
    number = value.item() if isinstance(value, np.generic) else value
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(number, bool) or not isinstance(number, kind)
            or not (number > 0 if positive else number >= 0)
            or not (integer or number <= sys.float_info.max)):
        sign = "positive" if positive else "nonnegative"
        what = "integer" if integer else "finite scalar"
        raise ConfigError(f"{name} must be a {sign} {what}, got {value!r}")
    return int(number) if integer else float(number)


def _as_real(values, what: str, error: type[Exception], *,
             finite: bool = True) -> np.ndarray:
    """``values`` as a float array, not copied when it is one.  Raises
    ``error`` naming ``what`` unless numpy reads ``values`` as a bool,
    integer or float array: a complex array, whose imaginary part a cast
    to float would drop, and one holding a string or any other object
    that is not a number, which the cast would parse or fail on.  With
    ``finite``, it also raises for an array holding inf or NaN."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise error(f"{what} must hold real numbers only, not {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if finite and not np.all(np.isfinite(arr)):
        raise error(f"{what} contains non-finite values")
    return arr
