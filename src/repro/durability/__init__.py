"""Durable state for the ONEX server: WAL, checkpoints, recovery.

The serving layer keeps every dataset in RAM; this package makes the
mutating slice of the API survive process death (see DESIGN.md §8):

- :mod:`repro.durability.wal` — per-dataset append-only write-ahead log
  with CRC-per-record framing, group-commit fsync, and a torn-tail
  tolerant scanner;
- :mod:`repro.durability.checkpoint` — periodic atomic checkpoints: a
  durable snapshot directory (the writer :meth:`OnexBase.save` uses)
  plus a monitor/event-seq manifest, after which the log is compacted;
- :mod:`repro.durability.recovery` — restore each dataset from its
  latest valid checkpoint and replay the WAL tail;
- :mod:`repro.durability.manager` — the per-server façade the service
  layer talks to (attach/log/checkpoint/status);
- :mod:`repro.durability.idempotency` — the bounded request-id replay
  window that makes mutating retries safe.
"""

from repro.durability.manager import DurabilityManager, dataset_slug

__all__ = ["DurabilityManager", "dataset_slug"]
