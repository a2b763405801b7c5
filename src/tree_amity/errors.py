"""Exception types shared across the package.

Parse errors cover the text formats, structural errors cover trees that
are not trees, and the remaining types mark operations applied outside
their preconditions.  The command line maps all of these onto its input
error and inapplicable-method exit codes.

``VerificationFailed`` stands apart: it reports a fault in the package
itself, not in its input, so it does not derive from ``TreeAmityError``
and the command line reports it as an internal error.
"""


class TreeAmityError(Exception):
    """Base class for every error raised by this package."""


class MalformedLine(TreeAmityError):
    """A text line does not match the expected format."""


class SelfLoop(TreeAmityError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(TreeAmityError):
    """The same unordered vertex pair appears twice."""


class CycleDetected(TreeAmityError):
    """The edge list contains a cycle."""


class Disconnected(TreeAmityError):
    """The edge list does not connect all mentioned vertices."""


class EqualEdges(TreeAmityError):
    """An edge-pair operation was given the same edge twice."""


class EmptyTree(TreeAmityError):
    """The operation needs at least one edge."""


class PreconditionFailed(TreeAmityError):
    """A constructive method was applied to a tree it does not cover."""


class SizeMismatch(TreeAmityError):
    """Two edge sets that must have equal size do not."""


class ShapeMismatch(TreeAmityError):
    """A tree does not have the shape an operation requires."""


class TooSmall(TreeAmityError):
    """The tree has fewer edges than the construction needs."""


class InvalidNumbering(TreeAmityError):
    """An edge numbering is not a bijection onto 1..m."""


class InvalidBijection(TreeAmityError):
    """An edge mapping is not a bijection between the two edge sets."""


class VerificationFailed(Exception):
    """A witness the package produced failed its reference checker."""
