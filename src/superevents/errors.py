"""Exception types shared across the package."""


class SupereventsError(Exception):
    """Base class for everything raised deliberately by this package."""


class FormatError(SupereventsError, ValueError):
    """A serialized file does not conform to its declared binary format."""


class BadMagicError(FormatError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(FormatError):
    """The file declares a format version this build cannot read."""


class TruncatedPayloadError(FormatError):
    """The file ends before the payload its header declares."""


class DimensionOverflowError(FormatError):
    """Declared dimensions exceed the sanity bound for a single tensor."""


class ModelDatasetMismatchError(SupereventsError, ValueError):
    """A model's dims or class names differ from the dataset it is applied to."""


class GenerationError(SupereventsError):
    """Synthetic event placement failed repeatedly for the given config."""


class NumericError(SupereventsError):
    """A numeric failure (NaN/Inf loss) aborted an operation."""
