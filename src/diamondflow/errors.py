"""Domain errors shared across the package.

Everything derives from ValueError so callers who do not care about the
distinction can catch one base class.
"""

__all__ = [
    "DiamondflowError",
    "LightlikeInput",
    "OutOfRegion",
    "OutOfRange",
    "StepOutOfRegion",
    "NonpositiveAcceleration",
    "SpecMismatch",
]


class DiamondflowError(ValueError):
    """Base class for all domain errors raised by this package."""


class LightlikeInput(DiamondflowError):
    """Ray inversion was applied on (or numerically too close to) the light cone."""


class OutOfRegion(DiamondflowError):
    """A point lies outside the wedge or diamond an operation requires."""


class OutOfRange(DiamondflowError):
    """A scalar argument lies outside its admissible interval."""


class StepOutOfRegion(DiamondflowError):
    """An integrator stage left the closed region; reduce the step size."""


class NonpositiveAcceleration(DiamondflowError):
    """Unruh temperature requires a strictly positive proper acceleration."""


class SpecMismatch(DiamondflowError):
    """Region parameters are inconsistent with the requested comparison mode."""
