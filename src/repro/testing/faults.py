"""Named failpoints for deterministic chaos testing.

Production code is compiled with ``fire("<point>")`` calls at the same
chunk boundaries the deadline layer checks (see DESIGN.md §6).  With
nothing armed a failpoint costs one falsy module-global test; chaos tests
arm actions against points by name:

``sleep``
    Block for ``seconds`` at the failpoint — how the tests make any
    chunk boundary deterministically "slow" so a deadline fires inside a
    chosen cascade stage.
``raise``
    Raise :class:`FaultInjectedError` (or a provided exception instance)
    at the failpoint.
``kill-worker``
    Hard-exit the *current process* via ``os._exit`` — but only when it
    is not the process that armed the fault, so a pool worker dies while
    the parent (and the test runner) survives to observe the recovery.
    Requires a fork-start process pool to inherit the armed registry.
``torn-write``
    Truncate the file the failpoint passes as ``path`` to half its size,
    then raise — simulating a crash mid-write with a partial artifact on
    disk.
``torn-tail``
    Truncate ``cut_bytes`` bytes off the *end* of the file the failpoint
    passes as ``path``, then raise — simulating power loss mid-append
    where only a prefix of the final record reached the platter.  Unlike
    ``torn-write`` the damage is surgical, so a recovery scan can be
    asserted to keep every earlier record.

Failpoints fire at most ``times`` times (default: unlimited) and are
scoped with the :func:`inject` context manager::

    with faults.inject("query.rep_chunk", "sleep", seconds=0.05):
        processor.k_best_matches(q, 3, deadline=Deadline.after(1.0))

Registered failpoint names (kept in sync with the call sites):

- ``query.rep_chunk`` — per step of the query walk under its ranked
  stopping rules (exact and fast k-best); once, before the native call,
  for a fast walk the native kernels run;
- ``query.refine_unit`` — per member-refinement call, before it selects
  its members: once per drained chunk of a k-best walk, once per
  length-sorted chunk of a range walk;
- ``seasonal.pair_chunk`` — per verified group of the seasonal miner,
  before its one paired DTW call;
- ``seasonal.group`` — per candidate group of the seasonal miner;
- ``sensitivity.bucket`` — per length bucket of the similarity profile;
- ``build.series`` — per series of a base build, before its deadline
  check (receives ``series``, its index);
- ``persist.save`` — in the snapshot writer, between writing (and
  fsyncing) the ``<dir>.tmp`` directory and renaming it into place
  (receives the temp ``arrays.bin`` as ``path``);
- ``persist.rename`` — after the rename, before the parent-directory
  fsync that makes it durable (receives the final directory as ``path``);
- ``stream.step`` — once per monitor window check, before its DTW call;
- ``server.handle`` — around request dispatch in the HTTP handler;
- ``wal.append`` — before a WAL record's bytes are written (receives
  ``path`` and ``seq``);
- ``wal.written`` — after the record bytes are written and flushed but
  before the append is acknowledged (receives ``path`` and ``seq``; the
  natural target for ``torn-tail``);
- ``wal.fsync`` — immediately before the WAL file is fsynced (receives
  ``path``);
- ``checkpoint.manifest`` — after the checkpoint's ``base-<seq>/``
  snapshot is written, before the manifest replace commits it (receives
  the manifest ``path``);
- ``recovery.dataset`` — at the top of each dataset's recovery pass
  (receives ``dataset``); ``sleep`` stretches the not-ready window for
  the recovery x serving tests, ``raise`` degrades one dataset;
- ``worker.kill`` — in the pool worker's request loop, before the
  dispatched operation executes (receives ``op``); the natural target
  for ``kill-worker``, which the fork-inherited registry turns into a
  hard worker death while the supervisor survives;
- ``worker.hang`` — same site; a ``sleep`` longer than the worker's
  stall limit makes its heartbeat go quiet, so the supervisor's monitor
  SIGKILLs it — the hang-detection path end to end;
- ``worker.tail`` — in the pool worker, before it applies each tail a
  frame carries (receives ``dataset`` and ``epoch``); ``raise`` makes the
  worker drop the dataset and refuse the read, which the supervisor then
  answers itself.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

from repro.exceptions import OnexError

__all__ = ["FaultInjectedError", "arm", "disarm", "disarm_all", "fire", "inject"]


class FaultInjectedError(OnexError):
    """The error an armed ``raise`` failpoint throws."""


_ACTIONS = ("sleep", "raise", "kill-worker", "torn-write", "torn-tail")


class _Fault:
    __slots__ = (
        "action",
        "armed_pid",
        "cut_bytes",
        "error",
        "lock",
        "remaining",
        "seconds",
    )

    def __init__(
        self,
        action: str,
        seconds: float,
        times: int | None,
        error,
        cut_bytes: int,
    ) -> None:
        self.action = action
        self.seconds = seconds
        self.remaining = times
        self.error = error
        self.cut_bytes = cut_bytes
        self.armed_pid = os.getpid()
        self.lock = threading.Lock()

    def trigger(self, point: str, ctx: dict) -> None:
        with self.lock:
            if self.remaining is not None:
                if self.remaining <= 0:
                    return
                self.remaining -= 1
        if self.action == "sleep":
            time.sleep(self.seconds)
        elif self.action == "raise":
            raise (
                self.error
                if self.error is not None
                else FaultInjectedError(f"injected fault at {point!r}")
            )
        elif self.action == "kill-worker":
            # Only worker processes die; the arming process (the test
            # runner / pool parent) passes through unharmed, which is what
            # lets it observe and recover from the crash.
            if os.getpid() != self.armed_pid:
                os._exit(17)
        elif self.action == "torn-write":
            path = ctx.get("path")
            if path is not None:
                size = os.path.getsize(path)
                with open(path, "r+b") as fh:
                    fh.truncate(size // 2)
            raise FaultInjectedError(
                f"injected torn write at {point!r} ({path})"
            )
        elif self.action == "torn-tail":
            path = ctx.get("path")
            if path is not None:
                size = os.path.getsize(path)
                with open(path, "r+b") as fh:
                    fh.truncate(max(0, size - self.cut_bytes))
            raise FaultInjectedError(
                f"injected torn tail at {point!r} ({path}, -{self.cut_bytes}B)"
            )


#: point name -> armed fault.  Kept as a plain module global so the
#: hot-path guard in :func:`fire` is one truthiness test, and so a forked
#: pool worker inherits whatever the parent had armed at fork time.
_ARMED: dict[str, _Fault] = {}


def arm(
    point: str,
    action: str,
    *,
    seconds: float = 0.05,
    times: int | None = None,
    error: Exception | None = None,
    cut_bytes: int = 1,
) -> None:
    """Arm *action* at failpoint *point* (replacing any previous fault).

    *times* bounds how often the fault triggers (``None`` = every time);
    *seconds* parameterises ``sleep``; *error* overrides the exception a
    ``raise`` fault throws; *cut_bytes* is how much ``torn-tail`` shaves
    off the end of the failpoint's file.
    """
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r} (known: {_ACTIONS})")
    _ARMED[point] = _Fault(action, float(seconds), times, error, int(cut_bytes))


def disarm(point: str) -> None:
    """Remove the fault at *point* (a no-op when nothing is armed)."""
    _ARMED.pop(point, None)


def disarm_all() -> None:
    """Remove every armed fault."""
    _ARMED.clear()


def fire(point: str, **ctx) -> None:
    """Trigger the fault armed at *point*, if any.

    This is the call compiled into production chunk boundaries: with the
    registry empty it returns after a single falsy test.
    """
    if not _ARMED:
        return
    fault = _ARMED.get(point)
    if fault is not None:
        fault.trigger(point, ctx)


@contextmanager
def inject(
    point: str,
    action: str,
    *,
    seconds: float = 0.05,
    times: int | None = None,
    error: Exception | None = None,
    cut_bytes: int = 1,
):
    """Scope a fault to a ``with`` block (armed on entry, disarmed on exit)."""
    arm(point, action, seconds=seconds, times=times, error=error, cut_bytes=cut_bytes)
    try:
        yield
    finally:
        disarm(point)
