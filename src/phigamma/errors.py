"""Shared error types for precision, solver-depth, invariant and size
failures."""


class PrecisionError(Exception):
    """Requested operation exceeds the certified window of its inputs."""


class DepthExceededError(Exception):
    """Extension-tower budget exhausted; result would need a deeper layer."""


class NonStabilizationError(Exception):
    """A truncated operator sum or dimension count failed to stabilize."""


class InvariantError(Exception):
    """A structural invariant (etale condition, commutation, d^2 = 0) failed."""


class SizeLimitError(ValueError):
    """A request needs more memory than a declared bound allows; refused
    before anything is allocated."""
