"""Process and HTTP plumbing for the end-to-end benchmark.

One :class:`Server` is one ``python -m repro serve`` process tree (the
coordinator plus any worker shards it forks).  The benchmark launches it
from the checkout's ``src/``, waits until it prints its address and
answers ``/healthz``, reads its CPU time and peak memory from ``/proc``,
and always tears the whole tree down: SIGTERM to the coordinator, then
SIGKILL to anything in its process group that outlives the grace period.

:class:`Http` is a small closed-loop client over ``http.client``: every
call and every SSE stream carries a deadline, and a call that times out
or answers an error raises :class:`OpError`, which the workloads count as
a failed operation.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

#: Native thread pools pinned to one thread in the server and the
#: client: on a 2-core host a BLAS pool per process would oversubscribe
#: the cores and turn every measurement into a scheduling lottery.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Seconds a server gets to print its address and answer /healthz.
HEALTHY_DEADLINE_S = 90.0
#: Seconds a SIGTERMed server gets to drain before the tree is killed.
STOP_GRACE_S = 20.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class OpError(Exception):
    """One client operation failed: error reply, timeout or bad stream."""


class ServerError(Exception):
    """The server never became healthy (or died while starting)."""


def server_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- /proc readers ------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Field 2 (comm) may contain spaces; everything after its ')' splits.
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants (scanned from /proc)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds of ``pids`` (all their threads)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLK_TCK


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of the peak resident set (VmHWM) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


# -- the server process -------------------------------------------------------


class Server:
    """One ``repro serve`` process tree, started and stopped by the bench.

    ``launcher`` replaces ``-m repro`` (the traced run passes its own
    launcher script, which wraps the layers and then calls the same CLI).
    """

    def __init__(self, serve_args: list[str], log_path: Path,
                 launcher: list[str] | None = None):
        self.serve_args = list(serve_args)
        self.log_path = log_path
        self.launcher = launcher or ["-m", "repro"]
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        """Launch and block until the server answers ``/healthz``."""
        argv = [sys.executable, *self.launcher, "serve", *self.serve_args,
                "--port", "0", "--quiet"]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=server_env(), stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True)
        deadline = time.perf_counter() + HEALTHY_DEADLINE_S
        while True:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with code {self.proc.returncode}: "
                    + self._log_tail())
            if time.perf_counter() > deadline:
                raise ServerError("server never reported its address: "
                                  + self._log_tail())
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    address = line.split(" on http://", 1)[1].split()[0]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
                    break
            if self.port:
                break
            time.sleep(0.01)
        try:
            health = Http(self).get_json("/healthz", timeout=30.0)
        except OpError as exc:
            raise ServerError(f"/healthz failed: {exc}") from None
        if not health.get("ok"):
            raise ServerError(f"/healthz not ok: {health}")

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid) if self.proc else []

    def stop(self) -> int | None:
        """SIGTERM the coordinator, SIGKILL any survivor; wait for all.

        Returns the coordinator's exit code (None if it had to be killed).
        """
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        tree = process_tree(proc.pid) if proc.poll() is None else []
        code = None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if proc.poll() is None:
                proc.wait(timeout=STOP_GRACE_S)
            deadline = time.perf_counter() + STOP_GRACE_S
            while any(_stat_fields(pid) is not None and
                      _stat_fields(pid)[0] != "Z" for pid in tree[1:]):
                if time.perf_counter() > deadline:
                    break
                time.sleep(0.02)
            self._log.close()
        return code


# -- the HTTP client ----------------------------------------------------------


class Http:
    """A keep-alive JSON client plus an SSE reader, all with deadlines."""

    def __init__(self, server: Server, timeout: float = 60.0):
        self.server = server
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=timeout)
        self._conn.timeout = timeout
        if self._conn.sock is not None:
            self._conn.sock.settimeout(timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str, body: dict | None = None,
                timeout: float | None = None) -> tuple[int, dict]:
        timeout = timeout or self.timeout
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        for attempt in (0, 1):
            conn = self._connection(timeout)
            try:
                conn.request(method, path, body=data, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
                break
            except (http.client.RemoteDisconnected, BrokenPipeError,
                    ConnectionResetError) as exc:
                # A keep-alive socket the server closed between calls:
                # reconnect once; a second failure is the server's.
                self.close()
                if attempt:
                    raise OpError(f"{method} {path}: {exc!r}") from None
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                raise OpError(f"{method} {path}: {exc!r}") from None
        if resp.getheader("Connection", "").lower() == "close":
            self.close()
        try:
            payload = json.loads(raw)
        except ValueError:
            raise OpError(f"{method} {path}: non-JSON reply "
                          f"{raw[:200]!r}") from None
        return resp.status, payload

    def get_json(self, path: str, timeout: float | None = None) -> dict:
        status, payload = self.request("GET", path, timeout=timeout)
        if status != 200 or payload.get("ok") is False:
            raise OpError(f"GET {path}: HTTP {status} {payload}")
        return payload

    def post_json(self, path: str, body: dict,
                  timeout: float | None = None) -> dict:
        status, payload = self.request("POST", path, body, timeout=timeout)
        if status != 200 or payload.get("ok") is False:
            raise OpError(f"POST {path}: HTTP {status} "
                          f"{json.dumps(payload)[:300]}")
        return payload

    def stream(self, job_id: str, timeout: float | None = None
               ) -> tuple[list[tuple[str, dict]], int]:
        """Read a job's SSE stream until ``done``.

        Returns ``(events, bytes_read)`` where events are ``(kind, data)``
        pairs in stream order, ``done`` last.  The whole stream shares one
        deadline.
        """
        timeout = timeout or self.timeout
        deadline = time.perf_counter() + timeout
        conn = http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=timeout)
        events: list[tuple[str, dict]] = []
        n_bytes = 0
        try:
            conn.request("GET", f"/v2/jobs/{job_id}/events")
            sock = conn.sock  # the response detaches it (Connection: close)
            resp = conn.getresponse()
            if resp.status != 200:
                raise OpError(f"stream {job_id}: HTTP {resp.status} "
                              f"{resp.read()[:300]!r}")
            kind, data = None, None
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise OpError(f"stream {job_id}: deadline exceeded")
                sock.settimeout(remaining)
                line = resp.fp.readline()
                if not line:
                    raise OpError(f"stream {job_id}: closed before done")
                n_bytes += len(line)
                if line.startswith(b"event: "):
                    kind = line[7:].strip().decode()
                elif line.startswith(b"data: "):
                    data = line[6:]
                elif line == b"\n" and kind is not None:
                    events.append((kind, json.loads(data)))
                    if kind == "done":
                        return events, n_bytes
                    kind, data = None, None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise OpError(f"stream {job_id}: {exc!r}") from None
        finally:
            conn.close()

