"""Exception types shared across the package.

Every error raised by spikekit's public surface is a subclass of
:class:`SpikeKitError`, so callers can catch one type at the boundary.
"""


class SpikeKitError(Exception):
    """Base class for all spikekit errors."""


class DimensionError(SpikeKitError):
    """Operand shapes are incompatible; the message names both shapes."""


class EmptyInputError(SpikeKitError):
    """A reduction was asked for on an empty array."""


class NumericError(SpikeKitError):
    """Non-finite values where finite ones are required."""


class ConfigError(SpikeKitError):
    """Invalid configuration value or unknown configuration key."""


class DataError(SpikeKitError):
    """Malformed or inconsistent data (files, labels, streams)."""


class EmptySampleError(DataError):
    """An event stream with no events cannot be binned into a sample."""


class StateError(SpikeKitError):
    """An operation was called on an incomplete or inconsistent state."""


class TrainingDiverged(SpikeKitError):
    """Training produced non-finite values; carries the first bad parameter."""

    def __init__(self, parameter: str, message: str | None = None):
        self.parameter = parameter
        super().__init__(message or f"training diverged: first non-finite parameter is {parameter!r}")
