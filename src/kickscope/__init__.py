"""Two-slit interference with an imperfect which-way detector.

The package decomposes the detector into unambiguous path flags plus a
discrimination-failure state, and shows how the resulting branches carry
the loss of fringe visibility as random half-fringe momentum kicks.

The package exports every public name of its library modules, as each
module's ``__all__`` lists it.
"""

from . import errors, experiment, hilbert, wavepacket
from .errors import *  # noqa: F401,F403
from .hilbert import *  # noqa: F401,F403
from .wavepacket import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *hilbert.__all__, *wavepacket.__all__, *experiment.__all__]
