"""Noisy-control dephasing of geometric quantum computation.

A simulation laboratory for how stochastic noise in a classical control
field dephases the adiabatic geometric phase, degrades a geometric
controlled-phase gate, and destroys the efficiency of period finding on a
geometric quantum computer.  Everything is computed twice: by brute-force
Monte Carlo over noise realizations and by Gaussian closed forms, and the
two are required to agree.
"""

from . import adiabatic, ensemble, errors, gate, noise, shor
from .adiabatic import *  # noqa: F403
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .gate import *  # noqa: F403
from .noise import *  # noqa: F403
from .shor import *  # noqa: F403

__all__ = [
    *noise.__all__,
    *adiabatic.__all__,
    *ensemble.__all__,
    *gate.__all__,
    *shor.__all__,
    *errors.__all__,
]

__version__ = "0.1.0"
