"""Certified pullback/forward attractors of contractive difference equations.

Periodic integrodifference equations of Hammerstein type are discretized by
quadrature collocation; a per-period contraction certificate then drives a
pullback sweep with an explicit sup-norm error bound on the computed
attractor fibers.  A small companion toolkit covers finite-dimensional
semilinear difference equations and a generic iterate-contraction solver.
"""

from .exceptions import *
from .grid import *
from .models import *
from .dynamics import *
from .attractor import *
from .semilinear import *
from .config import *

__version__ = "0.1.0"
