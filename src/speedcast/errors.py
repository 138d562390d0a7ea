"""Exception hierarchy with CLI exit-code mapping."""
from __future__ import annotations

import contextlib
from typing import Iterator, Optional


class SpeedcastError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidConfigError(SpeedcastError):
    """A configuration value is out of range or inconsistent."""

    exit_code = 2


@contextlib.contextmanager
def allocating(what: str, array: str) -> Iterator[None]:
    """Turn numpy refusing to shape an array made in the block (ValueError), or memory refusing
    to hold it (MemoryError), into InvalidConfigError: "<what> is too large to allocate: <array> (<reason>)"."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise InvalidConfigError(f"{what} is too large to allocate: {array} ({exc})") from exc


class DataAlignmentError(SpeedcastError):
    """Detection and sensor streams disagree about a frame."""

    exit_code = 3


class InvalidRecordError(SpeedcastError):
    """A single input record violates its schema invariants."""

    exit_code = 3


class ShapeError(SpeedcastError):
    """Operand shapes are mutually inconsistent."""

    exit_code = 3


class NumericFaultError(SpeedcastError):
    """A non-finite value appeared during training or inference.

    `tensor` names the gradient that went non-finite, or is "loss"; training
    sets `epoch` (from 1) and `batch` (from 0 within the epoch) where it arose.
    """

    exit_code = 4

    def __init__(self, message: str, tensor: Optional[str] = None) -> None:
        super().__init__(message)
        self.tensor = tensor
        self.epoch: Optional[int] = None
        self.batch: Optional[int] = None
