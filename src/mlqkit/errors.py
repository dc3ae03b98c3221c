"""Exception types shared across the package."""


class MlqkitError(ValueError):
    """Base class for all domain errors."""


class SizeMismatch(MlqkitError):
    pass


class NotAPermutation(MlqkitError):
    pass


class NonPartitionContent(MlqkitError):
    pass


class NotStraight(MlqkitError):
    pass


class TooNarrow(MlqkitError):
    pass


class BadRowIndex(MlqkitError):
    pass


class ShapeMismatch(MlqkitError):
    pass


class NotNonwrapping(MlqkitError):
    pass


class AlphabetTooSmall(MlqkitError):
    pass


class OutOfRange(MlqkitError):
    pass


class ColumnMismatch(MlqkitError):
    pass


class BadSigmaWord(MlqkitError):
    pass


class NotCoquinvFree(MlqkitError):
    pass


class VariableCountMismatch(MlqkitError):
    pass


class ParseError(MlqkitError):
    pass


class InvariantError(MlqkitError):
    """An internal consistency check failed; raised, not asserted, so that
    it also holds under ``python -O``."""
