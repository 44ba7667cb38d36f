"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary bad arguments; the classes here
mark failure modes that callers (and the command line driver) need to tell
apart: an under-resolved time grid, a level crossing, a violated adiabaticity
precondition, a rejected configuration, and a blown resource budget.  The
budget itself, MAX_ELEMENTS, is checked here for every layer, as is every
count and real number that an entry point takes.
"""

import math
import numbers
import sys

__all__ = [
    "ResolutionError",
    "DegeneracyError",
    "AdiabaticityError",
    "ConfigError",
    "ResourceLimitError",
]


class ResolutionError(ValueError):
    """Time step too coarse to resolve the requested dynamics."""


class DegeneracyError(RuntimeError):
    """Instantaneous spectrum has (or nearly has) a level crossing."""


class AdiabaticityError(RuntimeError):
    """An adiabaticity precondition is violated and strict mode is on."""


class ConfigError(ValueError):
    """Experiment configuration failed validation.

    It takes, and carries as ``errors``, the list of every problem found,
    not just the first one.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ResourceLimitError(RuntimeError):
    """Requested ensemble exceeds the configured memory/work bound."""


#: cap on the elements of one ensemble-wide array, e.g. realizations x time
#: steps x components
MAX_ELEMENTS = 2**28


def _check_elements(shape: tuple, what: str) -> None:
    """Refuse, before allocating, an array of ``shape`` above MAX_ELEMENTS."""
    elements = math.prod(shape)
    if elements > MAX_ELEMENTS:
        raise ResourceLimitError(
            f"{what} of shape {shape} needs {elements} elements, above the "
            f"bound {MAX_ELEMENTS}"
        )


def _shown(value):
    """``value`` as a message echoes it: a number beyond the float range as
    the inf or -inf it rounds to, not digit by digit."""
    if not abs(value) > sys.float_info.max:  # NaN too
        return value
    return math.inf if value > 0 else -math.inf


def _check_count(value, name: str, minimum=None, maximum=None) -> int:
    """``value`` as a Python int, once a count of the argument ``name``
    that is not an integer >= ``minimum`` (if given) and <= ``maximum`` (if
    given, with a minimum) is refused: TypeError for a non-integer or a
    bool, ValueError out of range or beyond the float range."""
    integer = type(value) is int or isinstance(value, numbers.Integral)  # ABCs are slow
    if not integer or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if maximum is not None and not minimum <= value <= maximum:
        interval = f"[{minimum}, {maximum}]"
        raise ValueError(f"{name} must be in {interval}, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(value)}")
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {_shown(value)}")
    return int(value)


def _check_real(value, name: str, minimum=None, maximum=None, strict=False) -> float:
    """``value`` as a Python float, once a real of the argument ``name``
    that is not finite and >= ``minimum`` (> when ``strict``) and <=
    ``maximum``, each bound if given, is refused: TypeError for a
    non-number or a bool, ValueError for NaN, +-inf, an integer beyond the
    float range or a value out of range.  A maximum of pi is named "pi"."""
    real = type(value) is float or isinstance(value, numbers.Real)  # as above
    if not real or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    low = -math.inf if minimum is None else minimum
    high = math.inf if maximum is None else maximum
    above = low < value or not strict and value == low
    if above and value <= high and abs(value) <= sys.float_info.max:
        return float(value)  # NaN fails every comparison
    if maximum is None:
        bound = "" if minimum is None else f" and {'>' if strict else '>='} {minimum}"
        raise ValueError(f"{name} must be finite{bound}, got {_shown(value)}")
    high = "pi" if maximum == math.pi else maximum
    interval = f"{'(' if strict else '['}{minimum}, {high}]"
    raise ValueError(f"{name} must lie in {interval}, got {_shown(value)}")
