"""Bounded request-id replay window for idempotent mutating retries.

A client that times out on ``append_points`` cannot tell whether the
server executed the mutation before the connection died.  Retrying
blindly would double-append; never retrying turns every blip into data
loss.  The resolution is standard: the client mints a ``request_id``
(PR 7 already does), the server remembers the outcome of each mutating
request by id, and a duplicate id gets the *recorded* response back
instead of a second execution.

The window is a bounded LRU — a lookup refreshes its entry, so an id a
client is actively retrying stays resident while long-settled ones age
out.  Retries arrive within seconds, so a few thousand entries is a
generous horizon, and an unbounded map would be a slow leak.  Both
success and error responses are recorded — if an op half-executed and
then failed, the retry must see that failure, not silently run the
mutation again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["IdempotencyWindow"]


class IdempotencyWindow:
    """Bounded request-id → recorded-response map (thread-safe)."""

    def __init__(self, capacity: int = 1024) -> None:
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, request_id: str | None) -> object | None:
        """The recorded response for *request_id*, or None."""
        if not request_id:
            return None
        with self._lock:
            entry = self._entries.get(request_id)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(request_id)
            return entry

    def record(self, request_id: str | None, response: object | None) -> None:
        """Remember *response* as the outcome of *request_id*."""
        if not request_id or response is None:
            return
        with self._lock:
            self._entries[request_id] = response
            self._entries.move_to_end(request_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
