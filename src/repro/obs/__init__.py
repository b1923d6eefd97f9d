"""Unified observability layer: tracing, metrics, structured logs.

Three cooperating pieces, all stdlib-only:

- :mod:`repro.obs.trace` — request-scoped span trees with a thread-local
  activation model and a null fast path when disabled (the EXPLAIN
  backbone);
- :mod:`repro.obs.metrics` — the process-wide counter/gauge/histogram
  registry behind ``GET /metrics`` (Prometheus text exposition);
- :mod:`repro.obs.logs` — structured ``logging`` with JSON or key=value
  formatting, silent until the CLI opts in.

See DESIGN.md §7 for the span taxonomy, metric names, and cardinality
rules.
"""
