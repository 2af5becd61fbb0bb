"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers can
catch every failure mode of the library with a single ``except`` clause while
still being able to distinguish individual problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class DomainError(ReproError):
    """Raised when a domain specification is invalid or two domains mismatch."""


class WorkloadError(ReproError):
    """Raised when a workload matrix is malformed or incompatible with a domain."""


class PolicyError(ReproError):
    """Raised when a policy graph is malformed or unsupported for an operation."""


class PolicyNotTreeError(PolicyError):
    """Raised when an operation requiring a tree policy receives a non-tree policy.

    Data-dependent transformed mechanisms (Theorem 4.3 of the paper) are only
    sound when the policy graph is a tree; attempting to apply them to a
    non-tree policy raises this error instead of silently producing a
    mechanism with an invalid privacy guarantee.
    """


class PrivacyBudgetError(ReproError):
    """Raised for non-positive or otherwise invalid privacy parameters."""


class MechanismError(ReproError):
    """Raised when a mechanism is configured or invoked inconsistently."""


class ReleaseFailedError(PrivacyBudgetError, MechanismError):
    """Raised by a refused ticket whose release failed, not its budget.

    Planning failed before anything was charged, or execution failed and
    the charge was rolled back: either way the ticket spent no ε.  It
    subclasses :class:`PrivacyBudgetError` because such a ticket is
    ``refused`` like a budget refusal, and :class:`MechanismError` because
    the mechanism is what failed.
    """


class AskTimeoutError(MechanismError):
    """Raised when a blocking or awaited ask outlived its ``timeout``.

    The timeout bounds the *wait*, not the query: the ticket stays queued
    (or in flight) and a later flush still resolves it normally, so the
    exception carries the :class:`~repro.engine.pipeline.QueryTicket` for
    the caller to re-poll.  Subclasses :class:`MechanismError` so callers
    that caught the broader type keep working.
    """

    def __init__(self, ticket, timeout) -> None:
        super().__init__(
            f"Ticket {ticket.ticket_id} (client {ticket.client_id!r}) was not "
            f"resolved within {timeout} s; it stays pending and a later flush "
            "can still resolve it"
        )
        self.ticket = ticket
        self.timeout = timeout


class QueryCancelledError(MechanismError):
    """Raised when the result of a cancelled query ticket is consumed.

    Cancellation is a *client* decision: already-charged work keeps its
    ε spend (the ledger never rewinds for a bored caller), but a ticket
    cancelled before its charge stage spends nothing.  Carries the
    :class:`~repro.engine.pipeline.QueryTicket` for diagnostics.
    """

    def __init__(self, ticket) -> None:
        super().__init__(
            f"Ticket {ticket.ticket_id} (client {ticket.client_id!r}) was "
            "cancelled before it resolved; no answer is available"
        )
        self.ticket = ticket


class DeadlineExpiredError(MechanismError):
    """Raised when the result of a deadline-expired query ticket is consumed.

    The pipeline drops expired tickets *before* the charge stage, so an
    expired query spends zero ε — the caller lost an answer, never
    budget.  Carries the :class:`~repro.engine.pipeline.QueryTicket`.
    """

    def __init__(self, ticket) -> None:
        super().__init__(
            f"Ticket {ticket.ticket_id} (client {ticket.client_id!r}) "
            "expired before its charge stage; zero epsilon was spent and "
            "no answer is available"
        )
        self.ticket = ticket


class PlanStoreError(MechanismError):
    """Raised when a persisted plan/answer store cannot be read.

    Covers truncated or corrupt pickles as well as format-version
    mismatches; carries the store ``path`` and the ``format_version``
    found in the file (``None`` when the file was unreadable before any
    version could be parsed).  Subclasses :class:`MechanismError` so
    pre-existing callers that caught the broader type keep working.
    """

    def __init__(self, message: str, path: str = "", format_version=None) -> None:
        super().__init__(message)
        self.path = path
        self.format_version = format_version


class DurabilityError(ReproError):
    """Raised when the durable ε-ledger cannot uphold its write-ahead contract.

    A charge that cannot be made durable is *refused* (the in-memory
    append is undone and this error propagates), because admitting it
    would let a crash under-count spent budget — the one direction the
    durability invariant forbids.
    """


class TransformError(ReproError):
    """Raised when the policy transformation ``P_G`` cannot be constructed."""


class DataError(ReproError):
    """Raised when a dataset specification or generated dataset is invalid."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration is inconsistent."""
