"""Exception hierarchy shared across the package.

Resource-cap errors signal that a computation was cut short, never that a
wrong answer was produced; callers may retry with a larger cap.
"""


class EssentiaError(Exception):
    """Base class for all package errors."""


class InputError(EssentiaError):
    """Malformed instance data, unknown problem tag, bad indices or flags."""


class PreconditionError(EssentiaError):
    """A documented operation precondition does not hold for the inputs."""


class InfeasibleSeparatorError(EssentiaError):
    """No vertex separator avoiding the forbidden set exists."""


class PinInfeasibleError(EssentiaError):
    """A constraint consists of the pinned vertex alone."""


class ResourceCapError(EssentiaError):
    """Base class for configurable safety caps."""


class IterationCapError(ResourceCapError):
    """Cutting-plane loop exceeded its cut budget."""


class NodeCapError(ResourceCapError):
    """Branch-and-bound search exceeded its node budget."""


class SizeCapError(ResourceCapError):
    """A graph above `graphs.MAX_VERTICES` vertices, or an instance too large
    for an exhaustive ground-truth computation."""
