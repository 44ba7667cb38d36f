"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary bad arguments; the classes here
mark failure modes that callers (and the command line driver) need to tell
apart: an under-resolved time grid, a level crossing, a violated adiabaticity
precondition, a rejected configuration, and a blown resource budget.  The
budget itself, MAX_ELEMENTS, is checked here for every layer.
"""

import math

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

    ``errors`` carries the full list of problems, not just the first one.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
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
