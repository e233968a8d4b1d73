"""Outage lifecycle modeling.

Failure arrivals as a nonhomogeneous Poisson process, restoration durations
as failure-time-conditioned Weibull mixtures, the induced recovery process
and expected-outage curves, Monte Carlo simulation, estimation and
goodness-of-fit, and resilience-threshold analysis.
"""

from . import estimate, fitting, ingest, rates, recovery, resilience, simulate, weibull
from .estimate import *
from .fitting import *
from .ingest import *
from .rates import *
from .recovery import *
from .resilience import *
from .simulate import *
from .weibull import *

__version__ = "0.1.0"

# each model module's `__all__` is the one list of its public names
__all__ = []
__all__ += estimate.__all__
__all__ += fitting.__all__
__all__ += ingest.__all__
__all__ += rates.__all__
__all__ += recovery.__all__
__all__ += resilience.__all__
__all__ += simulate.__all__
__all__ += weibull.__all__
