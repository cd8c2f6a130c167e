"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies.
"""

import math


class ConfigError(ValueError):
    """A schedule, mixture, or sampler specification is invalid."""


class NumericalError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


def finite_real(name: str, value) -> float:
    """``value`` as a float, or a ConfigError naming ``name`` if it is not a
    finite real number (bools and strings included)."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)
