"""Client/server layer: the demo's web backend (S14).

- :mod:`repro.server.protocol` — typed JSON request/response envelopes.
- :mod:`repro.server.service` — transport-agnostic request handler over
  :class:`repro.core.engine.OnexEngine` (loading datasets triggers
  server-side preprocessing, exactly as in §4 "Data Loading into ONEX").
- :mod:`repro.server.http` — a stdlib-only threaded HTTP JSON API with
  admission control and graceful draining.
- :mod:`repro.server.client` — a retrying HTTP client (read-only
  operations only; honours ``Retry-After``).
- :mod:`repro.server.pool` — supervised pre-fork worker pool serving
  read-only queries over mmap-shared base snapshots (crash isolation,
  heartbeat hang detection, backoff restart, flap circuit breaker).
- :mod:`repro.server.supervisor` — routes requests between the
  authoritative single-process service and the pool; publishes base
  snapshots lazily after mutations for read-your-writes.
"""
