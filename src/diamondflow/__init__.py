"""Geometric modular flow and local temperature for wedges and causal diamonds."""

# Each module's __all__ lists its public names once; the package re-exports
# them, and its own __all__ is their union.
from . import errors, flow, geometry, limits, thermo
from .errors import *
from .flow import *
from .geometry import *
from .limits import *
from .thermo import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *geometry.__all__, *flow.__all__,
           *thermo.__all__, *limits.__all__]
