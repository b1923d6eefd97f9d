"""Spans recorded around calls into the program's layers, and the
arithmetic that turns them into per-layer times.

A span is ``(id, parent, name, start, end, request_id, attrs)`` on the
``time.perf_counter`` clock, which on Linux is CLOCK_MONOTONIC and so
comparable between the supervisor and its forked workers.  Spans stay in
memory; :meth:`Recorder.dump` writes them when the harness asks.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path


class _Active:
    """One open span; a context manager so wrappers stay one-liners."""

    __slots__ = ("_rec", "_row", "_stack")

    def __init__(self, rec: "Recorder", name: str, attrs: dict | None) -> None:
        stack = rec._stack()
        parent = stack[-1] if stack else None
        self._rec = rec
        self._stack = stack
        # [id, parent id, name, start, end, request id, attrs]
        self._row = [
            next(rec._ids),
            parent[0] if parent else None,
            name,
            0.0,
            0.0,
            parent[5] if parent else None,
            attrs,
        ]

    def add(self, **attrs: object) -> None:
        self._row[6] = {**(self._row[6] or {}), **attrs}

    def __enter__(self) -> "_Active":
        self._stack.append(self._row)
        self._row[3] = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._row[4] = time.perf_counter()
        self._stack.pop()
        self._rec.rows.append(self._row)


class Recorder:
    """Per-process span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._ids = count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: dict | None = None) -> _Active:
        return _Active(self, name, attrs)

    def tag_request(self, request_id: str | None) -> None:
        """Tag this thread's open spans with the request they serve (the
        id is only known once the request body is parsed)."""
        for row in self._stack():
            row[5] = request_id

    def count_bytes(self, n: int) -> None:
        """Add *n* frame bytes to the innermost open span of this thread;
        with none open (a worker between requests) hold them for the
        span that :meth:`take_pending` serves next."""
        stack = self._stack()
        if stack:
            attrs = stack[-1][6] = stack[-1][6] or {}
            attrs["frame_bytes"] = attrs.get("frame_bytes", 0) + n
        else:
            self._local.pending = getattr(self._local, "pending", 0) + n

    def take_pending(self) -> int:
        pending = getattr(self._local, "pending", 0)
        self._local.pending = 0
        return pending

    def reset(self) -> None:
        """Forget everything (a forked worker starts its own record)."""
        self.rows = []
        self._local = threading.local()

    def dump(self, directory: str | Path) -> Path:
        """Write this process's spans to ``spans-<pid>.json`` atomically."""
        pid = os.getpid()
        path = Path(directory) / f"spans-{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": pid, "spans": list(self.rows)}))
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------


@dataclass
class Span:
    key: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    start: float
    end: float
    request_id: str | None
    attrs: dict
    children: list["Span"] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def self_ms(self) -> float:
        """Duration minus the part of the interval child spans cover.

        Children may overlap each other (thread fan-out) and are clipped
        to the parent, so self time is never negative.
        """
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (self.end - self.start - covered) * 1000.0

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def load(paths) -> list[Span]:
    """Every span of every file, children linked within each process."""
    spans: dict[tuple[int, int], Span] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        pid = doc["pid"]
        for sid, parent, name, start, end, rid, attrs in doc["spans"]:
            spans[(pid, sid)] = Span(
                (pid, sid),
                (pid, parent) if parent is not None else None,
                name,
                start,
                end,
                rid,
                attrs or {},
            )
    for span in spans.values():
        if span.parent is not None and span.parent in spans:
            spans[span.parent].children.append(span)
    return list(spans.values())


def link_workers(spans: list[Span], dispatch_name: str, root_name: str) -> None:
    """Hang each worker-side root span under the supervisor-side dispatch
    span that carried the same request id to the worker."""
    dispatches: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name == dispatch_name and span.request_id:
            dispatches[span.request_id].append(span)
    for span in spans:
        if span.parent is not None or span.name != root_name or not span.request_id:
            continue
        for dispatch in dispatches.get(span.request_id, ()):
            if dispatch.key[0] != span.key[0] and dispatch.start <= span.start <= dispatch.end:
                span.parent = dispatch.key
                dispatch.children.append(span)
                break


def request_trees(spans: list[Span], root_name: str) -> dict[str, Span]:
    """request id -> the root span of that request."""
    return {
        s.request_id: s
        for s in spans
        if s.parent is None and s.name == root_name and s.request_id
    }


def totals(root: Span) -> dict[str, dict[str, float]]:
    """Per span name within one request tree: total ms, self ms, count."""
    out: dict[str, dict[str, float]] = {}
    for span in root.walk():
        entry = out.setdefault(span.name, {"ms": 0.0, "self_ms": 0.0, "count": 0})
        entry["ms"] += span.ms
        entry["self_ms"] += span.self_ms
        entry["count"] += 1
    return out
