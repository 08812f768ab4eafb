"""Exception types shared across the package, and its one JSON reader.

Every error raised by spikekit's public surface is a subclass of
:class:`SpikeKitError`, so callers can catch one type at the boundary.
:func:`read_json` is where a malformed JSON file becomes one of them.
"""

import json


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


def _parse_int(text: str) -> int:
    """``int(text)`` up to 4,300 digits, CPython's default limit, whatever the interpreter's own."""
    digits = len(text) - text.startswith("-")
    if digits > 4300:
        raise ValueError(f"an integer of {digits} digits exceeds the limit of 4300")
    return int(text)


def read_json(path, what: str, error: type[SpikeKitError]):
    """The JSON document in the file ``path``; text that is not UTF-8 or not JSON,
    too deeply nested or with an integer of more than 4,300 digits, raises
    ``error`` naming ``what`` and the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_parse_int)
        except UnicodeDecodeError as exc:
            raise error(f"{what} {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except (ValueError, RecursionError) as exc:
            raise error(f"{what} {path} is not valid JSON: {exc}") from exc
