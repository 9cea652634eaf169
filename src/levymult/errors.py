"""Exception types shared across the package."""


class LevyMultError(Exception):
    """Base class for all levymult errors."""


class MeasureValidationError(LevyMultError):
    """A measure, modulator, or data triple failed validation."""


class AtomAtOrigin(MeasureValidationError):
    pass


class NonIntegrableMeasure(MeasureValidationError):
    pass


class ShapeMismatch(MeasureValidationError):
    pass


class ModulatorExceedsOne(MeasureValidationError):
    pass


class KNormExceedsOne(MeasureValidationError):
    pass


class AlphaOutOfRange(MeasureValidationError):
    pass


class ModulatorUndefinedOnSupport(LevyMultError):
    pass


class EpsTooLarge(LevyMultError):
    pass


class RequiresFiniteMeasure(LevyMultError):
    pass


class RequiresEqualMatrices(LevyMultError):
    pass


class DegenerateDenominator(LevyMultError):
    pass


class ZeroCoordinate(LevyMultError):
    pass


class ZeroFrequencyVector(LevyMultError):
    pass


class GridMismatch(LevyMultError):
    pass


class StepTooCoarse(LevyMultError):
    pass


class SymbolSpecError(LevyMultError):
    """A symbol specification names no variant, preset or axis that exists."""


class SymbolBoundViolation(LevyMultError):
    """A tabulated symbol exceeded the unit bound beyond tolerance."""


class ParseError(LevyMultError):
    """Config text could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ConfigValidationError(LevyMultError):
    """Config parsed but describes an invalid run."""
