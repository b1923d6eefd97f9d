"""Append-only write-ahead log with CRC framing and group commit.

One :class:`WriteAheadLog` instance owns one file::

    ONEXWAL1                                  8-byte magic header
    [u32 BE payload length][u32 BE crc32(payload)][payload] ...

Each payload is one UTF-8 JSON object ``{"seq", "op", "params",
"request_id"}`` describing one acknowledged mutating operation.  Records
are written under a lock, **flushed to the OS before the append
returns** — so an acknowledged record survives SIGKILL of this process
unconditionally — and fsynced per the sync policy:

``always``
    fsync before every ack; an acknowledged record survives power loss.
``interval`` (default)
    group commit: fsync at most once per ``interval_ms`` wall-clock, on
    whichever append crosses the boundary.  SIGKILL-safe always; power
    loss can cost at most the last interval of acks (the Redis
    ``appendfsync everysec`` trade).
``never``
    leave fsync to the OS writeback cadence (benchmark baseline).

:func:`scan` replays a log file tolerantly: it stops at the first torn
record (short header, short payload, or CRC mismatch), reporting how
many trailing bytes it ignored — a crash mid-append damages at most the
final record, never an earlier one.  :meth:`WriteAheadLog.open` truncates
that torn tail so the file ends on a record boundary before new appends.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.exceptions import PersistenceError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.testing import faults

__all__ = ["WalRecord", "WalScanResult", "WriteAheadLog", "scan"]

MAGIC = b"ONEXWAL1"
_HEADER = struct.Struct(">II")  # payload length, crc32(payload)

_APPENDS_TOTAL = REGISTRY.counter(
    "onex_wal_appends_total", "Records appended to write-ahead logs"
)
_BYTES_TOTAL = REGISTRY.counter(
    "onex_wal_bytes_total", "Bytes appended to write-ahead logs"
)
_FSYNCS_TOTAL = REGISTRY.counter(
    "onex_wal_fsyncs_total", "fsync calls issued by write-ahead logs"
)
_TORN_TOTAL = REGISTRY.counter(
    "onex_wal_torn_records_total", "Torn tail records dropped during WAL scans"
)

SYNC_MODES = ("always", "interval", "never")


@dataclass(frozen=True)
class WalRecord:
    """One durable mutating operation."""

    seq: int
    op: str
    params: dict
    request_id: str | None = None

    def payload(self) -> bytes:
        return json.dumps(
            {
                "seq": self.seq,
                "op": self.op,
                "params": self.params,
                "request_id": self.request_id,
            },
            sort_keys=True,
            default=float,
        ).encode()

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        obj = json.loads(payload.decode())
        return cls(
            seq=int(obj["seq"]),
            op=str(obj["op"]),
            params=dict(obj["params"]),
            request_id=obj.get("request_id"),
        )


@dataclass(frozen=True)
class WalScanResult:
    """Outcome of a tolerant scan: valid records plus tail diagnostics."""

    records: list[WalRecord]
    valid_bytes: int
    torn_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


def scan(path: str | Path) -> WalScanResult:
    """Read every valid record of the log at *path* (torn-tail tolerant).

    Raises :class:`PersistenceError` only for damage that cannot be a
    torn tail — a missing/garbled magic header means the file is not a
    WAL at all.  Everything after the first invalid record is reported
    as ``torn_bytes`` and ignored.
    """
    path = Path(path)
    records: list[WalRecord] = []
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise PersistenceError(
                f"{path} is not a WAL file (bad magic {magic!r})"
            )
        valid = fh.tell()
        while True:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break  # clean EOF or torn header
            length, crc = _HEADER.unpack(header)
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break  # torn or corrupt final record
            try:
                records.append(WalRecord.from_payload(payload))
            except (ValueError, KeyError, UnicodeDecodeError):
                break  # CRC passed but payload unparsable: treat as torn
            valid = fh.tell()
        fh.seek(0, os.SEEK_END)
        total = fh.tell()
    torn = total - valid
    if torn:
        _TORN_TOTAL.inc()
    return WalScanResult(records=records, valid_bytes=valid, torn_bytes=torn)


class WriteAheadLog:
    """One dataset's append-only log (see module docstring).

    Thread-safe; the serving layer already serialises mutating ops per
    dataset with an exclusive lock, but the WAL locks anyway so direct
    library use is safe too.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: str = "interval",
        interval_ms: float = 50.0,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(f"unknown WAL sync mode {sync!r} (known: {SYNC_MODES})")
        self.path = Path(path)
        self.sync = sync
        self.interval_s = max(0.0, float(interval_ms)) / 1000.0
        self._lock = threading.Lock()
        self._fh = None
        self._last_seq = 0
        self._last_fsync = 0.0
        self._pending_fsync = False

    # -- lifecycle -----------------------------------------------------

    def open(self) -> WalScanResult:
        """Open (creating if absent), scan, truncate any torn tail.

        Returns the scan so the caller can replay; ``last_seq`` seeds
        the next append's sequence number.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            result = scan(self.path)
            if result.torn_bytes:
                with open(self.path, "r+b") as fh:
                    fh.truncate(result.valid_bytes)
                    fh.flush()
                    os.fsync(fh.fileno())
        else:
            with open(self.path, "wb") as fh:
                fh.write(MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            from repro.core.persist import fsync_dir

            fsync_dir(self.path.parent)
            result = WalScanResult(records=[], valid_bytes=len(MAGIC), torn_bytes=0)
        self._fh = open(self.path, "ab")
        self._last_seq = result.last_seq
        self._last_fsync = time.monotonic()
        return result

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                if self._pending_fsync:
                    try:
                        os.fsync(self._fh.fileno())
                    except OSError:
                        pass  # closing anyway; the next open rescans the tail
                self._fh.close()
                self._fh = None

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # -- appends -------------------------------------------------------

    def append(
        self, op: str, params: dict, request_id: str | None = None
    ) -> WalRecord:
        """Durably log one operation; returns the sequenced record.

        The record's bytes are written and flushed before return in
        every sync mode (SIGKILL safety); fsync timing follows the
        policy.  On any failure the append raises and the caller must
        NOT acknowledge the operation.
        """
        with self._lock:
            if self._fh is None:
                raise PersistenceError(f"WAL {self.path} is not open")
            seq = self._last_seq + 1
            record = WalRecord(seq=seq, op=op, params=params, request_id=request_id)
            payload = record.payload()
            frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
            with span("wal.append", op=op, bytes=len(frame)):
                faults.fire("wal.append", path=str(self.path), seq=seq)
                self._fh.write(frame)
                self._fh.flush()
                faults.fire("wal.written", path=str(self.path), seq=seq)
                self._maybe_fsync()
            self._last_seq = seq
            _APPENDS_TOTAL.inc()
            _BYTES_TOTAL.inc(len(frame))
            return record

    def _maybe_fsync(self) -> None:
        if self.sync == "never":
            return
        now = time.monotonic()
        if self.sync == "interval" and now - self._last_fsync < self.interval_s:
            self._pending_fsync = True
            return
        faults.fire("wal.fsync", path=str(self.path))
        os.fsync(self._fh.fileno())
        self._last_fsync = now
        self._pending_fsync = False
        _FSYNCS_TOTAL.inc()

    def sync_now(self) -> None:
        """Force an fsync regardless of policy (checkpoint barrier)."""
        with self._lock:
            if self._fh is None:
                return
            self._fh.flush()
            faults.fire("wal.fsync", path=str(self.path))
            os.fsync(self._fh.fileno())
            self._last_fsync = time.monotonic()
            self._pending_fsync = False
            _FSYNCS_TOTAL.inc()

    # -- compaction ----------------------------------------------------

    def compact(self, keep_after_seq: int) -> int:
        """Drop records with ``seq <= keep_after_seq``; returns bytes freed.

        Rewrites the surviving tail to a temp file and atomically
        replaces the log (same temp/fsync/rename/dir-fsync discipline as
        every other persistence path), then reopens for append.
        """
        from repro.core.persist import fsync_dir

        with self._lock:
            if self._fh is None:
                raise PersistenceError(f"WAL {self.path} is not open")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            before = os.path.getsize(self.path)
            survivors = [
                r for r in scan(self.path).records if r.seq > keep_after_seq
            ]
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                with open(tmp, "wb") as fh:
                    fh.write(MAGIC)
                    for record in survivors:
                        payload = record.payload()
                        fh.write(
                            _HEADER.pack(len(payload), zlib.crc32(payload))
                            + payload
                        )
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass  # the original error matters; attach sweeps *.tmp
                raise
            fsync_dir(self.path.parent)
            self._fh.close()
            self._fh = open(self.path, "ab")
            return before - os.path.getsize(self.path)

    def records(self) -> Iterator[WalRecord]:
        """Iterate the log's current valid records (flushes first)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
        return iter(scan(self.path).records)
