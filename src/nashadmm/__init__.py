"""Distributed Nash equilibrium seeking via consensus ADMM.

Players of a convex game, each knowing only their own cost, exchange local
copies of the full action profile over a communication graph. The solver
drives the copies to consensus and the profile to a Nash equilibrium; a
projected pseudo-gradient baseline, a convergence-condition checker, and a
congestion-game testbed round out the package.
"""

from . import admm, baseline, games, graph, metrics
from .admm import *
from .baseline import *
from .games import *
from .graph import *
from .metrics import *

__version__ = "0.1.0"

__all__ = [*admm.__all__, *baseline.__all__, *games.__all__, *graph.__all__, *metrics.__all__]
