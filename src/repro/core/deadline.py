"""Cooperative deadlines for long-running operations.

ONEX never preempts: every expensive loop the engine runs — the geometric
representative-DTW chunks and member refinements in
:mod:`repro.core.query`, the per-group pair calls of
:mod:`repro.core.seasonal`, the per-bucket calls of
:mod:`repro.core.sensitivity`, the
per-series build steps in :mod:`repro.core.base`, and the monitor step
loop in :mod:`repro.stream` — already advances in bounded chunks, so a
:class:`Deadline` checked at those chunk boundaries bounds how far past
its budget any operation can run by one chunk of work.

A deadline is a wall-clock budget.  ``check()`` raises
:class:`~repro.exceptions.DeadlineExceeded` once it runs out; with
``allow_partial=True`` the query layer instead degrades gracefully,
returning its best verified candidate flagged ``exact=False``.

Checks are pure control flow: a query that finishes inside its budget is
bit-identical to the same query with no deadline at all (property-tested
in ``tests/test_deadline.py``).
"""

from __future__ import annotations

import math
import time

from repro.exceptions import DeadlineExceeded, ValidationError

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget, checked cooperatively.

    *timeout_ms* is the budget from the moment of construction.
    *allow_partial* asks the operations that support degradation (the
    k-best search family, seasonal mining) to return their best verified
    partial result instead of raising when the budget fires.
    """

    __slots__ = ("_expires_at", "allow_partial", "timeout_ms")

    def __init__(self, timeout_ms: float, *, allow_partial: bool = False) -> None:
        if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float)):
            raise ValidationError(
                f"timeout_ms must be a number, got {type(timeout_ms).__name__}"
            )
        if not (timeout_ms > 0 and math.isfinite(timeout_ms)):
            raise ValidationError(
                f"timeout_ms must be positive and finite, got {timeout_ms}"
            )
        self.timeout_ms = float(timeout_ms)
        self._expires_at = time.monotonic() + self.timeout_ms / 1000.0
        self.allow_partial = bool(allow_partial)

    @classmethod
    def after(cls, timeout_ms: float, *, allow_partial: bool = False) -> "Deadline":
        """A deadline expiring *timeout_ms* from now."""
        return cls(timeout_ms, allow_partial=allow_partial)

    @property
    def expired(self) -> bool:
        """Whether the budget ran out."""
        return time.monotonic() >= self._expires_at

    def check(self, stage: str = "", progress: dict | None = None) -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has fired.

        Called at chunk boundaries; *stage* names the boundary and
        *progress* snapshots the work done so far, both reported on the
        raised error so callers see how far the operation got.
        """
        if time.monotonic() >= self._expires_at:
            raise DeadlineExceeded(
                f"deadline of {self.timeout_ms:g} ms exceeded"
                f"{f' during {stage}' if stage else ''}",
                stage=stage or None,
                progress=progress,
            )

    def __repr__(self) -> str:
        remaining = max(0.0, self._expires_at - time.monotonic()) * 1000.0
        return (
            f"Deadline(timeout={self.timeout_ms:g}ms, remaining={remaining:.1f}ms, "
            f"allow_partial={self.allow_partial})"
        )
