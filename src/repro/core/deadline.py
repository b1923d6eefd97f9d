"""Cooperative deadlines and cancellation for long-running operations.

ONEX never preempts: every expensive loop the engine runs — the geometric
representative-DTW chunks and member refinements in
:mod:`repro.core.query`, the per-group pair calls of
:mod:`repro.core.seasonal`, the per-bucket calls of
:mod:`repro.core.sensitivity`, the
per-series build steps in :mod:`repro.core.base`, and the monitor step
loop in :mod:`repro.stream` — already advances in bounded chunks, so a
:class:`Deadline` checked at those chunk boundaries bounds how far past
its budget any operation can run by one chunk of work.

A deadline combines a wall-clock budget with an optional
:class:`CancellationToken` (an explicit kill switch callers can flip from
another thread).  ``check()`` raises
:class:`~repro.exceptions.DeadlineExceeded` once either fires; with
``allow_partial=True`` the query layer instead degrades gracefully,
returning its best verified candidate flagged ``exact=False``.

Checks are pure control flow: a query that finishes inside its budget is
bit-identical to the same query with no deadline at all (property-tested
in ``tests/test_deadline.py``).
"""

from __future__ import annotations

import math
import threading
import time

from repro.exceptions import DeadlineExceeded, ValidationError

__all__ = ["CancellationToken", "Deadline"]


class CancellationToken:
    """A thread-safe, one-way cancellation flag.

    ``cancel()`` may be called from any thread (e.g. a server shutdown
    path aborting in-flight work); the operation observes it at its next
    chunk boundary.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self.cancelled})"


class Deadline:
    """A wall-clock budget plus optional cancellation, checked cooperatively.

    *timeout_ms* is the budget from the moment of construction (``None``
    means unbounded — the deadline then only observes its *token*).
    *allow_partial* asks the operations that support degradation (the
    k-best search family, seasonal mining) to return their best verified
    partial result instead of raising when the budget fires.
    """

    __slots__ = ("_expires_at", "allow_partial", "timeout_ms", "token")

    def __init__(
        self,
        timeout_ms: float | None = None,
        *,
        allow_partial: bool = False,
        token: CancellationToken | None = None,
    ) -> None:
        if timeout_ms is not None:
            if isinstance(timeout_ms, bool) or not isinstance(
                timeout_ms, (int, float)
            ):
                raise ValidationError(
                    f"timeout_ms must be a number, got {type(timeout_ms).__name__}"
                )
            if not (timeout_ms > 0 and math.isfinite(timeout_ms)):
                raise ValidationError(
                    f"timeout_ms must be positive and finite, got {timeout_ms}"
                )
        self.timeout_ms = float(timeout_ms) if timeout_ms is not None else None
        self._expires_at = (
            time.monotonic() + self.timeout_ms / 1000.0
            if self.timeout_ms is not None
            else None
        )
        self.allow_partial = bool(allow_partial)
        self.token = token

    @classmethod
    def after(
        cls,
        timeout_ms: float,
        *,
        allow_partial: bool = False,
        token: CancellationToken | None = None,
    ) -> "Deadline":
        """A deadline expiring *timeout_ms* from now."""
        return cls(timeout_ms, allow_partial=allow_partial, token=token)

    def remaining_ms(self) -> float:
        """Milliseconds left in the budget (``inf`` when unbounded)."""
        if self._expires_at is None:
            return math.inf
        return max(0.0, (self._expires_at - time.monotonic()) * 1000.0)

    @property
    def expired(self) -> bool:
        """Whether the budget ran out or the token was cancelled."""
        if self.token is not None and self.token.cancelled:
            return True
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def check(self, stage: str = "", progress: dict | None = None) -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has fired.

        Called at chunk boundaries; *stage* names the boundary and
        *progress* snapshots the work done so far, both reported on the
        raised error so callers see how far the operation got.
        """
        if self.token is not None and self.token.cancelled:
            raise DeadlineExceeded(
                f"operation cancelled{f' during {stage}' if stage else ''}",
                stage=stage or None,
                progress=progress,
            )
        if self._expires_at is not None and time.monotonic() >= self._expires_at:
            raise DeadlineExceeded(
                f"deadline of {self.timeout_ms:g} ms exceeded"
                f"{f' during {stage}' if stage else ''}",
                stage=stage or None,
                progress=progress,
            )

    def __repr__(self) -> str:
        budget = f"{self.timeout_ms:g}ms" if self.timeout_ms is not None else "none"
        return (
            f"Deadline(timeout={budget}, remaining={self.remaining_ms():.1f}ms, "
            f"allow_partial={self.allow_partial})"
        )
