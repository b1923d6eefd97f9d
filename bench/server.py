"""The server under test as a subprocess in its own session.

Every process the server forks (pool workers) stays in that session, so
resource accounting, the survivor census after a plain SIGTERM, and the
final ``killpg`` all enumerate ``/proc`` by session id instead of
trusting the parent to know its children.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import ROOT, SRC

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
_URL = re.compile(r"listening on (http://[^\s]+)")


class ServerError(RuntimeError):
    """The server did not start, did not become ready, or leaked."""


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the last ')'.
    return text[text.rindex(")") + 2 :].split()


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is *sid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] = state, fields[3] = session
        if fields and fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return sorted(pids)


def tree_usage(sid: int) -> dict:
    """Summed CPU seconds and bytes written of the server's session, now."""
    cpu_ticks = 0
    write_bytes: int | None = 0
    for pid in session_pids(sid):
        fields = _stat_fields(pid)
        if fields is None:
            continue
        cpu_ticks += int(fields[11]) + int(fields[12])  # utime + stime
        try:
            io = Path(f"/proc/{pid}/io").read_text()
            if write_bytes is not None:
                write_bytes += int(re.search(r"^write_bytes: (\d+)", io, re.M).group(1))
        except (OSError, AttributeError):
            write_bytes = None  # /proc/<pid>/io is not readable on this host
    return {"cpu_s": cpu_ticks / _CLK_TCK, "write_bytes": write_bytes}


def rss_mb(pids: list[int]) -> float:
    """Summed resident memory of *pids*, now.  Pages that pool workers
    share through the mmap-ed snapshot count once per process that has
    touched them."""
    pages = 0
    for pid in pids:
        try:
            pages += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        except OSError:
            pass  # exited since the census
    return pages * _PAGE_SIZE / 2**20


class ServerProcess:
    """One ``python -m repro serve`` (or traced) subprocess.

    *work_dir* receives the server's log, its temporary files (TMPDIR)
    and, for a traced server, the span files it writes on SIGUSR1.
    """

    def __init__(self, flags: list[str], work_dir: Path, *, traced: bool = False) -> None:
        self.work_dir = Path(work_dir)
        self.traced = traced
        self.trace_dir = self.work_dir / "spans"
        self._flags = list(flags)
        self._proc: subprocess.Popen | None = None
        self._log_path: Path | None = None
        self.url: str | None = None
        self.sid: int | None = None
        self.spawned_at = 0.0

    def start(self) -> "ServerProcess":
        self.work_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.work_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(tmp)
        module = "repro"
        if self.traced:
            self.trace_dir.mkdir(exist_ok=True)
            env["ONEX_BENCH_TRACE_DIR"] = str(self.trace_dir)
            module = "bench.traced_serve"
        self._log_path = self.work_dir / f"server-{time.monotonic_ns()}.log"
        self.spawned_at = time.perf_counter()
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", module, "serve", "--port", "0", *self._flags],
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.sid = self._proc.pid
        return self

    def log_text(self) -> str:
        return self._log_path.read_text(errors="replace") if self._log_path else ""

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Block until ``/ready`` answers 200; returns seconds since spawn."""
        from repro.server.client import OnexClient

        deadline = time.monotonic() + timeout_s
        client = None
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self._proc.returncode}:\n{self.log_text()}"
                )
            if client is None:
                found = _URL.search(self.log_text())
                if found:
                    self.url = found.group(1)
                    client = OnexClient(self.url, timeout_s=5.0, max_retries=0)
            if client is not None:
                try:
                    if client.ready():
                        return time.perf_counter() - self.spawned_at
                except OSError:
                    pass  # not accepting yet
            time.sleep(0.01)
        raise ServerError(f"server not ready after {timeout_s:g}s:\n{self.log_text()}")

    # -- signals -------------------------------------------------------

    def flush_spans(self, timeout_s: float = 20.0) -> list[Path]:
        """Ask every traced process of the session to write its spans."""
        pids = session_pids(self.sid)
        marks = {}
        for pid in pids:
            path = self.trace_dir / f"spans-{pid}.json"
            marks[path] = path.stat().st_mtime_ns if path.exists() else None
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout_s
        for path, before in marks.items():
            while not path.exists() or path.stat().st_mtime_ns == before:
                if time.monotonic() > deadline:
                    raise ServerError(f"no span file {path.name} after SIGUSR1")
                time.sleep(0.02)
        return sorted(marks)

    def orphans_after_sigterm(self, grace_s: float = 1.0) -> int:
        """Plain SIGTERM to the server alone; how many of its session
        are still alive *grace_s* after it has exited."""
        self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            return len(session_pids(self.sid))
        time.sleep(grace_s)
        return len(session_pids(self.sid))

    def kill9(self) -> None:
        """SIGKILL the whole session (the crash the recovery check needs)."""
        self._signal_session(signal.SIGKILL)
        self._proc.wait()
        self._await_empty(5.0)

    def stop(self) -> None:
        """TERM the session, KILL what is left after 5 s, assert none survive."""
        if self._proc is None:
            return
        self._signal_session(signal.SIGTERM)
        if not self._await_empty(5.0, reap=True):
            self._signal_session(signal.SIGKILL)
            self._proc.wait()
            if not self._await_empty(5.0):
                raise ServerError(
                    f"processes of session {self.sid} survived SIGKILL: "
                    f"{session_pids(self.sid)}"
                )
        self._proc.wait()

    def _signal_session(self, sig: int) -> None:
        try:
            os.killpg(self.sid, sig)
        except ProcessLookupError:
            pass  # the whole group is already gone

    def _await_empty(self, timeout_s: float, *, reap: bool = False) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if reap:
                self._proc.poll()
            if not session_pids(self.sid):
                return True
            time.sleep(0.02)
        return not session_pids(self.sid)
