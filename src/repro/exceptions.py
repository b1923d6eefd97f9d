"""Exception hierarchy for the ONEX reproduction.

All library errors derive from :class:`OnexError` so callers can catch one
type at the API boundary.  Subclasses distinguish user mistakes (bad input,
unknown names) from internal invariant violations.
"""

from __future__ import annotations

__all__ = [
    "BuildWorkerError",
    "DatasetError",
    "DeadlineExceeded",
    "InvariantError",
    "NotBuiltError",
    "NotReadyError",
    "OnexError",
    "OverloadedError",
    "PersistenceError",
    "ProtocolError",
    "ReadOnlyBaseError",
    "RemoteError",
    "ShutdownTimeoutError",
    "StartupError",
    "ValidationError",
    "WorkerCrashedError",
]


class OnexError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(OnexError, ValueError):
    """Raised when user-supplied input fails validation.

    Examples: empty sequences, NaN values, mismatched lengths where equal
    lengths are required, or out-of-range parameters.
    """


class DatasetError(OnexError):
    """Raised for dataset-level problems (unknown series, bad files)."""


class NotBuiltError(OnexError):
    """Raised when querying an ONEX base that has not been constructed."""


class InvariantError(OnexError):
    """Raised when an internal ONEX invariant is violated.

    Seeing this exception indicates a bug in the library, not bad input:
    the similarity-group construction guarantees (member-to-representative
    distance within ``ST/2``) are checked at runtime in debug paths.
    """


class ProtocolError(OnexError):
    """Raised for malformed client/server requests or responses."""


class DeadlineExceeded(OnexError):
    """Raised when a cooperative deadline or cancellation fires mid-operation.

    Carries what the operation accomplished before the budget ran out:
    *stage* names the chunk boundary that observed the expiry, *progress*
    holds the work counters accumulated so far (groups pruned, DTW calls
    done, ...), and *best* is the best *verified* candidate at that point
    (``None`` when nothing was verified yet).  Searches run with
    ``allow_partial=True`` return that candidate as a degraded result
    (``Match.exact == False``) instead of raising.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        progress: dict | None = None,
        best: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.progress = dict(progress) if progress else {}
        self.best = best

    def details(self) -> dict:
        """Structured payload for error envelopes (JSON-safe)."""
        return {"stage": self.stage, "progress": self.progress, "best": self.best}


class PersistenceError(OnexError):
    """Raised when a persisted base snapshot is truncated, tampered with,
    or otherwise unreadable.

    The one error of the on-disk reader (:mod:`repro.core.mmap_layout`)
    and the checkpoint manifest: a missing path, hostile ``meta.json``
    entries, a hash mismatch, a ``.npz`` archive or another format all
    raise it; so does saving onto a path that already exists.
    """


class BuildWorkerError(OnexError):
    """Raised when a build shard fails in a worker *and* in the serial
    re-execution the build pipeline falls back to.

    A crashed pool worker alone never surfaces this: the failed shard is
    re-run in-process automatically and the build proceeds.
    """


class ShutdownTimeoutError(OnexError):
    """Raised when the HTTP server's serve thread fails to terminate
    within the shutdown drain budget (a leaked thread, previously silent).
    """


class RemoteError(OnexError):
    """A server-reported failure relayed by the HTTP client.

    ``error_type`` preserves the server-side exception class name (so
    callers can dispatch without string-parsing the message) and
    ``details`` the structured payload when the server sent one — e.g. a
    remote ``DeadlineExceeded``'s stage/progress/best snapshot.
    """

    def __init__(
        self, error_type: str, message: str, details: dict | None = None
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.error_message = message
        self.details = details


class OverloadedError(OnexError):
    """Raised client-side when the server sheds load (HTTP 503) and the
    retry budget is exhausted.  ``retry_after`` echoes the server's last
    ``Retry-After`` hint in seconds, when one was given.

    The server raises it too — out of the worker pool when no live
    worker can take a dispatch — and the HTTP front end maps it to a
    503 + ``Retry-After`` envelope exactly like an admission-gate shed.
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class WorkerCrashedError(OnexError):
    """A pool worker died (crash or hang-kill) while holding a request.

    Read-only operations never surface this — the pool re-dispatches
    them transparently to a surviving worker.  Mutating operations do:
    the caller cannot know whether the op executed, so the error is
    *retryable* (HTTP 503 + ``Retry-After``) and the client's stable
    ``request_id`` lets the server's idempotency window absorb the
    retry without double execution.
    """

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class NotReadyError(OnexError):
    """The server is up but not yet (or no longer) able to serve ``/api``
    — e.g. checkpoint+WAL recovery is still replaying, or snapshot
    publication is mid-flight at startup.  Maps to a clean 503 +
    ``Retry-After``: clients must retry, never read partially-replayed
    state.
    """

    def __init__(
        self, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StartupError(OnexError):
    """A structured ``serve`` startup failure (port already bound,
    unreadable ``--data-dir``, ...): the CLI prints it as one
    ``error:`` line and exits non-zero instead of dumping a traceback.
    """


class ReadOnlyBaseError(OnexError):
    """A mutation was attempted on a read-only (mmap-attached) base.

    Worker processes open bases with ``read_only=True``; every write
    path belongs to the supervisor, which republishes a fresh snapshot
    after mutating.
    """
