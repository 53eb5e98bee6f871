"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library-specific failures without masking programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class GraphError(ReproError):
    """Raised for structural problems with a graph (missing vertex, ...)."""


class ColoringError(ReproError):
    """Raised when a coloring cannot be produced or verified."""


class ListAssignmentError(ColoringError):
    """Raised when a list assignment is malformed or too small."""


class SimulationError(ReproError):
    """Raised when the LOCAL-model simulation is misused or diverges."""


class NonTerminationError(SimulationError):
    """Raised when a round-capped run ends with unfinished nodes.

    Carries the structured facts a driver needs to report or react:
    ``rounds`` is the number of rounds actually executed and ``active``
    the size of the still-unfinished set when the cap was hit (``None``
    when the engine does not track individual nodes, e.g. the batched
    path).  Subclasses :class:`SimulationError` so existing callers that
    catch the broad class keep working.
    """

    def __init__(self, message: str, *, rounds: int, active: int | None = None):
        self.rounds = rounds
        self.active = active
        super().__init__(message)


class LowerBoundError(ReproError):
    """Raised when a lower-bound certificate cannot be established."""


class VerificationError(ReproError):
    """Raised when a conformance oracle rejects a witness.

    Carries the failing :class:`repro.verify.oracle.Verdict` (when raised
    through :meth:`Verdict.raise_if_failed`) so callers can inspect the
    precise diagnostics programmatically.
    """

    def __init__(self, message: str, verdict=None):
        self.verdict = verdict
        super().__init__(message)


class GeneratorError(GraphError):
    """Raised when a graph generator is given inconsistent parameters."""
