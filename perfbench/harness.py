"""Server processes and HTTP clients for the benchmark.

:class:`Server` runs one ``python -m repro serve`` subprocess from the
checkout's ``src/`` in its own session, so :meth:`Server.stop` can
reach the supervisor's workers too, waits until every process of that
session has ended, and unlinks the ``/dev/shm`` segments the server
left behind.  :class:`Client` is one keep-alive HTTP/1.1
connection that times each request from send to the last body byte.
With :func:`become_subreaper` in effect, a stop also reaps the workers
a killed supervisor leaves behind, so no server process outlives a run.
"""

from __future__ import annotations

import ctypes
import gc
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional, Tuple

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")
#: Where POSIX shared memory lives on Linux, and the prefix of the
#: segments ``repro.service.shm`` creates there.
SHM_DIR = "/dev/shm"
SHM_PREFIX = "dsc-"
_PR_SET_CHILD_SUBREAPER = 36

#: Exceptions that mean the request never got an answer.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, socket.timeout)


class BenchError(RuntimeError):
    """A failed set-up, a failed request outside the timed window, or a
    wrong answer: the run must not print numbers."""


class Client:
    """One keep-alive connection; :meth:`call` returns
    ``(status, raw_body, latency_s, t_send)`` or raises a transport error."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.requests = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, payload=None, trace_id: Optional[str] = None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        if trace_id is not None:
            headers["X-Repro-Trace"] = trace_id
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self.requests += 1
        t_send = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except TRANSPORT_ERRORS:
            self.close()
            raise
        latency = time.perf_counter() - t_send
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, raw, latency, t_send

    def json(self, method: str, path: str, payload=None) -> dict:
        """A request outside the timed window: anything but 200 is fatal."""
        status, raw, _, _ = self.call(method, path, payload)
        if status != 200:
            raise BenchError(f"{method} {path} -> {status}: {raw[:300]!r}")
        return json.loads(raw)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def become_subreaper() -> None:
    """Make orphaned descendants (the workers of a supervisor that died
    first) children of this process, so :meth:`Server.stop` can reap
    them.  Linux only; elsewhere init reaps them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop and reap this process's ``multiprocessing`` resource tracker
    if anything started one: left alone it outlives the run."""
    from multiprocessing import resource_tracker

    gc.collect()  # finalizers that would talk to the tracker run first
    resource_tracker._resource_tracker._stop()


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def _group(pgid: int) -> List[Tuple[int, str, int]]:
    """``(pid, state, ppid)`` of every process in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            members.append((int(entry), fields[0], int(fields[1])))
    return members


def _end_group(pgid: int, timeout: float = 30.0) -> None:
    """SIGKILL group ``pgid`` until none of its processes runs and this
    process has reaped those it adopted."""
    deadline = time.monotonic() + timeout
    me = os.getpid()
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        left = []
        for pid, state, ppid in _group(pgid):
            if ppid == me:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
                left.append(pid)
            elif state != "Z":
                left.append(pid)
        if not left:
            return
        if time.monotonic() > deadline:
            raise BenchError(f"server processes {left} did not end")
        time.sleep(0.01)


def state_stats(payload: dict) -> List[dict]:
    """The per-process ``ServiceState`` stats inside a ``/stats`` body:
    the payload itself for a single process, each healthy worker's for
    a supervised cluster."""
    if payload.get("role") == "supervisor":
        return [w["stats"] for w in payload.get("workers", []) if w.get("stats")]
    return [payload]


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, args: List[str], log_path: str,
                 hook: Optional[str] = None, spans_dir: Optional[str] = None) -> None:
        self.root = root
        self.args = list(args)
        self.log_path = log_path
        self.hook = hook
        self.spans_dir = spans_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log = None

    def start(self, timeout: float = 120.0) -> None:
        env = os.environ.copy()
        path = [os.path.join(self.root, "src")]
        if self.hook is not None:
            path.insert(0, self.hook)
            env["PERFBENCH_SPANS"] = self.spans_dir
        env["PYTHONPATH"] = os.pathsep.join(path)
        self._shm_before = _shm_segments()
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", *self.args],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _LISTEN_RE.search(handle.read().decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(f"server did not start: {self.log_tail()}")

    def client(self) -> Client:
        return Client("127.0.0.1", self.port)

    def log_tail(self, limit: int = 2000) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""

    def pids(self, stats: dict) -> List[int]:
        pids = [self.proc.pid]
        if stats.get("role") == "supervisor":
            pids += [w["pid"] for w in stats.get("workers", []) if w.get("pid")]
        return pids

    def stop(self, grace_s: float = 30.0) -> None:
        """SIGTERM the server (a supervisor stops its own workers and
        unlinks its segments), SIGKILL and reap whatever of its session
        is left, then unlink the segments that appeared since start."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        _end_group(proc.pid)
        self._log.close()
        for name in _shm_segments() - self._shm_before:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Tuple[float, bool]:
    """The highest percentile with at least ten samples beyond it, and
    whether 90 is reachable with ``n`` samples."""
    if n <= 10:
        return 50.0, False
    return 100.0 * (1.0 - 10.0 / n), n >= 100
