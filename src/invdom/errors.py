"""Exception hierarchy shared across the toolkit.

A class stays here only when code catches it by name (the CLI's exit
codes, ``harness._verify_line``, ``harness.run_check``) or when it names an
outcome the paper separates: inverse domination undefined on isolated
vertices, or a counterexample to the trichotomy.  A bad argument that no
caller handles raises ``ValueError``, and a malformed graph6 string raises
``Graph6Error`` with a message that says what is wrong.
"""


class InvdomError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(InvdomError):
    """Bad input: malformed graph data (edge lists, graph6, corpus lines) or
    a command-line value out of range.  ``invdom`` exits 2 on it."""


class Graph6Error(InputFormatError):
    """Malformed graph6 data."""


class TooLarge(InvdomError):
    """Graph exceeds the hard size cap of 64 vertices."""


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
