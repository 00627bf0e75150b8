"""Variational computation of collisional periodic orbits in time-dependent
planar two-center Stark-Zeeman systems.

The package discretizes a regularized action functional on the loop space of
the doubly-branched cover of the plane (where binary collisions become
regular points), finds its critical points by damped Gauss-Newton iteration,
and certifies each converged orbit against the underlying Newtonian dynamics.

Each module's ``__all__`` is the list of names exported here.
"""

from . import action, dynamics, fields, geometry, loops, solver
from .geometry import *
from .loops import *
from .fields import *
from .action import *
from .dynamics import *
from .solver import *

__version__ = "0.1.0"

__all__ = [
    *geometry.__all__,
    *loops.__all__,
    *fields.__all__,
    *action.__all__,
    *dynamics.__all__,
    *solver.__all__,
]
