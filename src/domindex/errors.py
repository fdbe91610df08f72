"""Exception types shared across the package."""


class DomindexError(Exception):
    """Base class for all errors raised by this library."""


class InvalidEdge(DomindexError):
    """Edge endpoints violate the simple-graph rules."""


class SelfLoop(InvalidEdge):
    """An edge joins a vertex to itself."""


class VertexOutOfRange(DomindexError):
    """Vertex id or label does not belong to the graph."""


class LabelConflict(DomindexError):
    """Vertex labels that do not fit the graph: repeated, miscounted, or
    not one edge-list token (empty, holding whitespace or starting with
    ``#``)."""


class NotAPermutation(DomindexError):
    """Relabeling map is not a bijection on the vertex ids."""


class DisconnectedGraph(DomindexError):
    """Operation requires a connected graph."""


class ExactCapExceeded(DomindexError):
    """Graph is larger than the cap guarding an exponential routine."""


class EnumerationCapExceeded(ExactCapExceeded):
    """Requested exhaustive graph enumeration is too large."""


class VertexNotInSet(DomindexError):
    """Operation requires the vertex to be a member of the given set."""


class NotDominating(DomindexError):
    """Given vertex set does not dominate the graph."""


class InvalidFamilyParams(DomindexError):
    """Family parameters outside the generator's domain."""


class UnsupportedOperation(DomindexError):
    """An operation asked of inputs it does not take: a union of no graphs,
    an unknown product kind or a wrong count of input graphs."""


class UnknownSuite(DomindexError):
    """Verification suite name not recognised."""


class InvalidLimits(DomindexError):
    """Suite limits under which the suite would check nothing."""


class MalformedLine(DomindexError):
    """Edge-list input line that cannot be parsed."""

    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        self.text = text
        super().__init__(f"line {lineno}: cannot parse {text!r}")


class UnreadableInput(DomindexError):
    """Input that cannot be read, or that is not UTF-8 text."""


class InternalInvariantViolation(DomindexError):
    """A computed result failed a self-check that should always hold."""


class DuplicateEdgeWarning(UserWarning):
    """Edge listed more than once in an input file (deduplicated)."""
