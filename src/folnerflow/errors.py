"""Exception types shared across the library.

Domain errors (bad inputs, windows too small for the requested run) derive
from :class:`FolnerflowError`; the command line maps them to exit code 2.
:class:`InternalInvariantError` is reserved for states that the underlying
mathematics rules out -- reaching one means the implementation is wrong,
never the input -- and maps to exit code 3.
"""

from __future__ import annotations


class FolnerflowError(Exception):
    """Base class for domain errors raised by this package."""


class NotCoarselyUnbounded(FolnerflowError):
    """Some component of the neighbourhood graph never touches the frontier.

    Such a component is a genuinely bounded piece of the space: there is no
    direction to route mass out along, so no exit flow can be built on it.
    """

    def __init__(self, components):
        self.components = [tuple(sorted(c)) for c in components]
        sample = ", ".join(str(c[:6]) for c in self.components[:3])
        super().__init__(
            f"{len(self.components)} component(s) contain no frontier point: {sample}"
        )


class FlowEscaped(FolnerflowError):
    """Tower mass reached a sink: the window is too small for this chain."""

    def __init__(self, sink, steps, index=None):
        self.sink = sink
        self.steps = steps
        self.index = index
        where = f" (chain index {index})" if index is not None else ""
        super().__init__(
            f"tower mass reached sink {sink} after {steps} step(s){where}; "
            "enlarge the window margin"
        )


class BranchingTooLow(FolnerflowError):
    """An interior tree vertex has fewer than two children, so greedy tail
    routing cannot keep the per-point load bounded."""

    def __init__(self, vertex, children):
        self.vertex = vertex
        self.children = children
        super().__init__(
            f"interior vertex {vertex} has {children} child(ren); need >= 2"
        )


class TailTooShort(FolnerflowError):
    """A transport lookup indexed past the truncated end of a tail."""

    def __init__(self, index, tail_of, position, available):
        self.index = index
        self.tail_of = tail_of
        self.position = position
        self.available = available
        super().__init__(
            f"family index {index} needs position {position} of the tail of "
            f"{tail_of}, but only {available} entries fit in the window"
        )


class TranslateEscapesWindow(FolnerflowError):
    """A group translate of the base set does not fit inside the window."""

    def __init__(self, x, message=""):
        self.x = x
        super().__init__(message or f"translate at {x} leaves the window")


class WindowTooSmall(FolnerflowError):
    """The requested construction needs more boxes/points than the window has."""


class EmptyImage(FolnerflowError):
    """A pushforward was requested along a map with empty image."""


class ConfigError(FolnerflowError):
    """A pipeline configuration or input file failed validation."""


class InternalInvariantError(RuntimeError):
    """A mathematically impossible state was reached; indicates a code bug.

    Examples: the flattening loop exhausting its norm-derived step budget
    without producing a 0,1-valued chain, or a pairwise ratio increasing
    across flattening. These cannot happen for correct implementations.
    """


def error_message(e: Exception) -> str:
    """The message the command line prints for an input error: a KeyError's
    str() is the repr of its message, so it is read from its first arg."""
    return str(e.args[0]) if isinstance(e, KeyError) and e.args else str(e)
