"""Exception hierarchy shared across the package."""


class StatemetricError(Exception):
    """Base class for all domain errors raised by this package."""


class NotHermitian(StatemetricError):
    pass


class DimensionMismatch(StatemetricError):
    pass


class NotClosed(StatemetricError):
    """The generator span does not close under commutation."""


class DependentGenerators(StatemetricError):
    """Generators are linearly dependent (or too ill-conditioned to separate)."""


class UnknownGenerator(StatemetricError):
    pass


class MissingParameter(StatemetricError):
    pass


class DuplicateParameter(StatemetricError):
    """A parameter drives more than one circuit factor; ``factor`` is the
    index of the second factor it drives."""

    def __init__(self, message: str, factor: int):
        super().__init__(message)
        self.factor = factor


class NonFiniteAngle(StatemetricError, ValueError):
    """A circuit angle, or a two-spin direction angle, is NaN or infinite."""


class StepOutOfRange(StatemetricError):
    pass


class EmptyGrid(StatemetricError):
    pass


class InsufficientGrid(StatemetricError):
    pass


class DegenerateSection(StatemetricError):
    pass


class SubspaceLeak(StatemetricError):
    pass


class InvalidSpin(StatemetricError):
    pass


class InvalidOscillator(StatemetricError):
    """Non-positive or non-finite mass or frequency, or a negative level."""


class BadNormalization(StatemetricError):
    pass


class TruncationTooSmall(StatemetricError):
    pass


class BadVariant(StatemetricError):
    pass


class UnknownModel(StatemetricError):
    pass


class ManifestError(StatemetricError):
    """Structural problem in a manifest file; message carries the field path."""
