"""Structured logging for the ONEX stack (stdlib ``logging`` only).

Every logger lives under the ``repro`` root, which carries a
``NullHandler`` by default — importing the library never prints.  The
CLI (and the test-suite) opt in with :func:`configure_logging`, choosing
between a human ``key=value`` line format and one-JSON-object-per-line
(``--log-json``).

Events are emitted through :func:`log_event` so that structured fields
(request IDs, shed counts, deadline stages) survive both formats::

    log_event(logger, "warning", "server.shed", request_id=rid, op=op)

renders as ``server.shed op=k_best request_id=ab12...`` or as
``{"event": "server.shed", "op": "k_best", "request_id": "ab12..."}``.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any

__all__ = ["JsonFormatter", "configure_logging", "get_logger", "log_event"]

ROOT_LOGGER = "repro"
_FIELDS_ATTR = "onex_fields"

logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def log_event(
    logger: logging.Logger, level: str, event: str, **fields: Any
) -> None:
    """Emit one structured event with attached fields."""
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    if logger.isEnabledFor(numeric):
        logger.log(numeric, event, extra={_FIELDS_ATTR: fields})


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, event, then fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            payload.update(fields)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc_type"] = record.exc_info[0].__name__
        return json.dumps(payload, default=str, sort_keys=True)


class KeyValueFormatter(logging.Formatter):
    """Human format: ``HH:MM:SS LEVEL logger event k=v ...``."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = (
            f"{stamp} {record.levelname:<7} {record.name} "
            f"{record.getMessage()}"
        )
        fields = getattr(record, _FIELDS_ATTR, None)
        if fields:
            rendered = " ".join(
                f"{key}={fields[key]}" for key in sorted(fields)
            )
            line = f"{line} {rendered}"
        return line


def configure_logging(
    level: str = "info",
    json_mode: bool = False,
    stream: Any = None,
) -> logging.Logger:
    """Wire the ``repro`` root logger to *stream* (default stderr).

    Replaces any handler a previous call installed, so the CLI and
    tests can reconfigure freely.  Returns the root ``repro`` logger.
    """
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if not isinstance(handler, logging.NullHandler):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if json_mode else KeyValueFormatter())
    root.addHandler(handler)
    root.setLevel(numeric)
    root.propagate = False
    return root
