"""Exception hierarchy with CLI exit-code mapping."""


class SpeedcastError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidConfigError(SpeedcastError):
    """A configuration value is out of range or inconsistent."""

    exit_code = 2


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
    """A non-finite value appeared during training or inference."""

    exit_code = 4
