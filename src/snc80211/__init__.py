"""Stochastic network-calculus backlog bounds for a single 802.11 DCF node,
with a slot-level discrete-event simulator for validation.

Typical flow: solve the MAC fixed point, characterize the channel
impairment as a (sigma, rho) MGF envelope, assemble one of four backlog
tail bounds, query quantiles, and cross-check against simulation.

The package re-exports each module's ``__all__``; a public name is declared
once, in its module.
"""
from . import bounds, characterize, config, dcf, sim
from .bounds import *  # noqa: F401,F403
from .characterize import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .dcf import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (bounds, characterize, config, dcf, sim)
           for name in module.__all__]
