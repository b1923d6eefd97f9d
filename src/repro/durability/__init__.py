"""Durable state for the ONEX server: WAL, checkpoints, recovery.

The serving layer keeps every dataset in RAM; this package makes the
mutating slice of the API survive process death (see DESIGN.md §8):

- :mod:`repro.durability.wal` — per-dataset append-only write-ahead log
  with CRC-per-record framing, group-commit fsync, and a torn-tail
  tolerant scanner;
- :mod:`repro.durability.manager` — the per-server façade the service
  layer talks to, and per dataset a handle that logs, writes
  checkpoints (durable ``base-<seq>/`` snapshot directories) and
  restores from one; which checkpoints it keeps is its rule;
- :mod:`repro.durability.recovery` — restore each dataset through its
  handle and replay the WAL tail;
- :mod:`repro.durability.idempotency` — the bounded request-id replay
  window that makes mutating retries safe.
"""

from repro.durability.manager import DurabilityManager, dataset_slug

__all__ = ["DurabilityManager", "dataset_slug"]
