"""Exception hierarchy shared across the toolkit."""


class InvdomError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(InvdomError):
    """Bad input: malformed graph data (edge lists, graph6, corpus lines) or
    a command-line value out of range.  ``invdom`` exits 2 on it."""


class Graph6Error(InputFormatError):
    """Malformed graph6 data."""


class MalformedLength(Graph6Error):
    """Size field that is cut short, not canonical, or in the unsupported eight-byte form."""


class TruncatedBody(Graph6Error):
    """graph6 body shorter than the size byte demands."""


class NonAsciiByte(Graph6Error):
    """Byte outside the printable graph6 alphabet."""


class TrailingGarbage(Graph6Error):
    """Extra bytes after a complete graph6 encoding."""


class TooLarge(InvdomError):
    """Graph exceeds the hard size cap of 64 vertices."""


class VertexNotInD(InvdomError):
    """Private-neighbor query for a vertex outside the dominating set."""


class NotDominated(InvdomError):
    """Standard partition requested for a universe the representatives miss."""


class SeedNotIndependent(InvdomError):
    """Independent-set expansion started from a non-independent seed."""


class PreconditionViolated(InvdomError):
    """A construction was invoked on input outside its stated hypotheses."""


class HasIsolates(PreconditionViolated):
    """Inverse domination is undefined for graphs with isolated vertices."""


class InternalContradiction(InvdomError):
    """A step the underlying theorem guarantees has failed.

    Either a precondition was silently violated (e.g. the dominating set was
    not minimum) or there is an implementation bug.  Carries a ``context``
    dict with the state at the failure point for debugging.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}

    def reproducer(self, graph6: str) -> dict:
        """Self-contained JSON-ready record: message, context, graph."""
        context = {k: repr(v) for k, v in self.context.items()}
        return {"error": str(self), "context": context, "graph6": graph6}


class LemmaViolated(InternalContradiction):
    """Neither branch of the trichotomy holds: a reportable counterexample."""
