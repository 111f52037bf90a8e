"""Remote dispatch for the sweep fabric: leases, agents, crash-only TCP.

Topology: a *driver* (``run_sweep(mode="remote", hosts=[...])`` or
``python -m repro serve-sweep``) dials one or more *agents*
(``python -m repro agent <host:port>``), each listening on a TCP port.
Messages are line-delimited JSON (:mod:`repro.sweep.transport`); cells are
handed out as *leases* with wall-clock expiry, and agents execute them with
the same spawn-pool workers as the local executor, writing every result
into their own ``.sweep-cache/`` *before* acking.  The driver never trusts
the wire: every ``done`` ships the cached payload with its SHA-256, the
driver verifies the hash, the cache version and the key binding, and
re-caches the payload locally -- a corrupt or skewed payload reads as a
failure to retry, exactly like a torn cache entry.

Failure handling is the normal path:

* a lease that expires (agent wedged, packet loss, half-open link) is
  reassigned to another host -- a late ``done`` from the original holder is
  still accepted if the cell is unresolved, and ignored otherwise;
* a silent host (no heartbeat within the stall window) is presumed lost:
  its leases requeue without penalty and the driver reconnects with
  exponential backoff plus jitter (:class:`~repro.sweep.executor.RetryPolicy`);
* a cell that *errors* on multiple distinct hosts is quarantined early --
  the cell, not the fleet, is broken;
* the driver and the agents both drain gracefully on SIGINT/SIGTERM via
  :class:`~repro.sweep.signals.GracefulInterrupt`;
* killing an agent with ``SIGKILL`` at any instant costs at most the cells
  it held leases on; killing the driver costs nothing that was acked --
  recovery is "rerun; hit the caches", and an agent that already computed a
  re-leased cell answers straight from its local cache.

Deterministic fault hooks (:class:`AgentFaults`: ``drop_conn_on``,
``partition_on``, ``slow_ack_on``) let tests exercise every one of those
paths without a real network, mirroring the executor's ``inject`` hooks.
"""

from __future__ import annotations

import os
import pickle
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sweep.cache import ResultCache, code_fingerprint, load_entry
from repro.sweep.executor import (
    TICK,
    RetryPolicy,
    Scheduler,
    WorkerPool,
    _Cell,
    _Host,
    fault_hits,
)
from repro.sweep.grid import SweepTask
from repro.sweep.transport import (
    PROTOCOL_VERSION,
    ProtocolError,
    SocketTransport,
    TransportClosed,
    pack_blob,
    pack_pickle,
    parse_host,
    unpack_blob,
    unpack_pickle,
    wait_readable,
)


@dataclass(frozen=True)
class AgentFaults:
    """Deterministic agent-side fault hooks, keyed by cell index.

    ``drop_conn_on``: close the driver connection *instead of* acking the
    cell's ``done`` (once per index) -- the result stays in the agent cache,
    so the retried lease is answered instantly.  Exercises reconnect and
    duplicate-lease handling.

    ``partition_on``: upon receiving the cell, stop sending anything
    (heartbeats included) for ``partition_seconds`` while keeping the socket
    open -- a half-open connection.  Exercises dead-host detection.

    ``slow_ack_on``: sleep ``slow_ack_seconds`` before every ``done`` ack
    for the cell -- widens the window for lease expiry and kill tests.

    Each value is a list of cell indices or the string ``"all"``.
    """

    drop_conn_on: Any = ()
    partition_on: Any = ()
    slow_ack_on: Any = ()
    slow_ack_seconds: float = 0.75
    partition_seconds: float = 3600.0

    @classmethod
    def parse(cls, pairs: Sequence[str]) -> "AgentFaults":
        """Build from CLI ``key=value`` strings (values: ``all`` or ``0,3``)."""
        kwargs: Dict[str, Any] = {}
        valid = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        for pair in pairs:
            key, sep, text = pair.partition("=")
            if not sep or key not in valid:
                raise ValueError(
                    f"unknown fault hook {pair!r}; expected one of {sorted(valid)} as key=value"
                )
            if key.endswith("_seconds"):
                kwargs[key] = float(text)
            elif text == "all":
                kwargs[key] = "all"
            else:
                kwargs[key] = tuple(int(part) for part in text.split(",") if part.strip())
        return cls(**kwargs)


# -- agent side --------------------------------------------------------------

#: An agent drops a driver connection that sent nothing for this long
#: (the half-open guard; drivers ping every heartbeat interval).
DRIVER_STALL = 30.0


class SweepAgent:
    """One remote execution agent: a socket relay in front of a :class:`WorkerPool`.

    Listen, take cells from the driver, answer from the local cache or run
    them on the pool, and relay every worker message.  The pool's liveness
    checks apply here as in local mode: a worker that dies or wedges is
    killed and relayed as an ``error`` for its cell (``WorkerCrash`` for a
    process death).

    Crash-only: every result is written to the agent's local cache *before*
    the ack, a dead driver just means the next driver (or the same one,
    resumed) gets instant cache hits, and a new driver connection simply
    replaces the old one.  The agent keeps listening across driver sessions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        cache: Any = None,
        heartbeat_interval: float = 0.5,
        faults: Optional[AgentFaults] = None,
        name: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.cache = (
            cache if isinstance(cache, ResultCache) else ResultCache(cache or ".sweep-cache")
        )
        self.faults = faults or AgentFaults()
        self.progress = progress or (lambda message: None)
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(4)
        self._listen.setblocking(False)
        self.address: Tuple[str, int] = self._listen.getsockname()[:2]
        self.name = name or f"{self.address[0]}:{self.address[1]}"
        self.pool = WorkerPool(
            workers, cache_root=str(self.cache.root), heartbeat_interval=heartbeat_interval
        )
        self._driver: Optional[SocketTransport] = None
        self._driver_seen = 0.0
        #: Cells waiting for a free worker: ``WorkerPool.submit`` arguments.
        self._queue: List[Tuple[int, int, Any, Optional[str], Dict[str, Any]]] = []
        self._mute_until = 0.0
        self._fired: Set[Tuple[str, int]] = set()
        self._last_heartbeat = 0.0

    # -- plumbing --

    def _send(self, message: Dict[str, Any]) -> None:
        """Send to the driver unless muted (partition fault) or detached."""
        if self._driver is None or time.monotonic() < self._mute_until:
            return  # detached, or partitioned: silently drop (half-open simulation)
        try:
            self._driver.send(message)
        except TransportClosed:
            self._drop_driver("send failed")

    def _drop_driver(self, reason: str) -> None:
        if self._driver is not None:
            self.progress(f"driver connection closed ({reason}); still listening")
            self._driver.close()
            self._driver = None

    def _accept(self) -> None:
        try:
            conn, addr = self._listen.accept()
        except (BlockingIOError, InterruptedError, OSError):
            return
        if self._driver is not None:
            # A new driver supersedes the old session (e.g. the driver was
            # killed and resumed); the newest connection wins.
            self._drop_driver("replaced by a new driver")
        self._driver = SocketTransport(conn)
        self._driver_seen = time.monotonic()
        self._mute_until = 0.0
        self.progress(f"driver connected from {addr[0]}:{addr[1]}")
        self._send(
            {
                "type": "hello",
                "proto": PROTOCOL_VERSION,
                "agent": self.name,
                "pid": os.getpid(),
                "slots": self.pool.size,
                "code": code_fingerprint(),
            }
        )

    def _fire_once(self, hook: str, index: int) -> bool:
        if (hook, index) in self._fired:
            return False
        if fault_hits(getattr(self.faults, hook), index):
            self._fired.add((hook, index))
            return True
        return False

    def _error(self, index: int, attempt: int, exc_type: str, message: str) -> None:
        self._send(
            {
                "type": "error",
                "index": index,
                "attempt": attempt,
                "exc_type": exc_type,
                "message": message,
                "traceback": "",
                "elapsed": 0.0,
            }
        )

    # -- job flow --

    def _on_task(self, message: Dict[str, Any]) -> None:
        index = int(message["index"])
        attempt = int(message.get("attempt", 1))
        key = message.get("key")
        try:
            spec = unpack_pickle(message["spec"])
        except ProtocolError as exc:
            self._error(index, attempt, "ProtocolError", str(exc))
            return
        if self._fire_once("partition_on", index):
            self._mute_until = time.monotonic() + self.faults.partition_seconds
        if key:
            payload = self.cache.get(key)
            if payload is not None:
                done = {"index": index, "attempt": attempt, "key": key, "elapsed": 0.0}
                self._ack_done({**done, "payload": payload}, cached=True)
                return
        if index in self.pool.busy():
            return  # duplicate lease of a cell already in flight here
        self._queue.append((index, attempt, spec, key, message.get("inject") or {}))

    def _on_cancel(self, index: int) -> None:
        self._queue = [job for job in self._queue if job[0] != index]
        self.pool.cancel(index)

    def _ack_done(self, done: Dict[str, Any], cached: bool) -> None:
        """Ack a ``done`` (index, attempt, key, payload, elapsed), payload as a blob."""
        if fault_hits(self.faults.slow_ack_on, done["index"]):
            time.sleep(self.faults.slow_ack_seconds)
        if self._fire_once("drop_conn_on", done["index"]):
            self._drop_driver("injected drop_conn_on")
            return
        blob = pack_blob(pickle.dumps(done.pop("payload"), protocol=pickle.HIGHEST_PROTOCOL))
        self._send({**done, "type": "done", "blob": blob, "cached": cached, "agent": self.name})

    def _relay(self, message: Dict[str, Any]) -> None:
        """Forward one worker message to the driver."""
        if message["type"] == "done":
            self._ack_done(message, cached=False)
        else:  # start and error travel as they are
            self._send(message)

    # -- main loop --

    def serve_forever(self, stop: Optional[Callable[[], bool]] = None) -> None:
        """Serve drivers until ``stop()`` goes true, then drain and exit.

        The drain is graceful: no new cells are started, in-flight cells
        finish (and cache, and ack), queued cells are handed back to the
        driver with ``requeue`` so another host picks them up, and a final
        ``bye`` tells the driver not to treat the exit as a failure.
        """
        draining = False
        try:
            while True:
                now = time.monotonic()
                if not draining and stop is not None and stop():
                    draining = True
                    for index, attempt, *_ in self._queue:
                        self._send({"type": "requeue", "index": index, "attempt": attempt})
                    self._queue = []
                    self.progress("draining: finishing in-flight cells")
                if draining and not self.pool.busy():
                    self._send({"type": "bye", "agent": self.name})
                    return
                waitables: List[Any] = [self._listen]
                if self._driver is not None:
                    waitables.append(self._driver)
                waitables.extend(self.pool.transports())
                ready = wait_readable(waitables, timeout=TICK)
                if self._listen in ready:
                    self._accept()
                if self._driver is not None and self._driver in ready:
                    try:
                        messages = self._driver.recv_all()
                    except (TransportClosed, ProtocolError) as exc:
                        self._drop_driver(str(exc))
                        messages = []
                    for message in messages:
                        self._driver_seen = now
                        kind = message.get("type")
                        if kind == "task" and not draining:
                            self._on_task(message)
                        elif kind == "cancel":
                            self._on_cancel(int(message["index"]))
                        elif kind == "stop":
                            self._drop_driver("driver ended the session")
                            break
                        # "ping" and anything unknown just refresh liveness
                for message in self.pool.receive(ready):
                    self._relay(message)
                for index, attempt, kind, detail in self.pool.check():
                    exc_type = "WorkerCrash" if kind == "crash" else "WorkerStall"
                    self._error(index, attempt, exc_type, detail)
                while not draining and self._queue and len(self.pool.busy()) < self.pool.size:
                    if not self.pool.submit(*self._queue[0]):
                        break  # that worker's pipe was closed; retry next round
                    self._queue.pop(0)
                if now - self._last_heartbeat >= self.pool.heartbeat_interval:
                    self._last_heartbeat = now
                    self._send({"type": "heartbeat", "busy": self.pool.busy()})
                if self._driver is not None and now - self._driver_seen > DRIVER_STALL:
                    # Half-open guard: a driver that went silent is gone.
                    self._drop_driver(f"no driver traffic for {DRIVER_STALL:.0f}s")
        finally:
            self.pool.close()
            self._drop_driver("agent exiting")
            self.close()

    def close(self) -> None:
        try:
            self._listen.close()
        except OSError:
            pass


# -- driver side -------------------------------------------------------------

#: At most this long, an interrupted driver waits for in-flight cells.
DRAIN_TIMEOUT = 15.0


@dataclass
class _AgentHost(_Host):
    addr: Tuple[str, int] = ("", 0)
    transport: Optional[SocketTransport] = None
    connect_attempts: int = 0
    next_connect_at: float = 0.0
    hello_deadline: Optional[float] = None
    ever_connected: bool = False
    last_seen: float = 0.0
    last_ping: float = 0.0
    reconnects: int = 0
    ready: bool = False


class RemoteExecutor(Scheduler):
    """Lease sweep cells to remote agents; trust only verified cache payloads.

    The scheduler over agent hosts: a lost agent hands its cells back
    without charge.  ``run()`` returns ``(payloads, failures, stats,
    attempts, hosts)`` -- the executor tuple plus a per-host report (cells
    completed, runs per cell, reconnects) for the observability layer.
    """

    charges_lost_cells = False

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        *,
        hosts: Sequence[Any],
        lease_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        connect_retry: Optional[RetryPolicy] = None,
        quarantine_hosts: int = 2,
        **options: Any,
    ):
        if not hosts:
            raise ValueError("remote mode needs at least one agent host ('host:port')")
        super().__init__(tasks, **options)
        self.ledger.quarantine_hosts = max(1, quarantine_hosts)
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = (
            stall_timeout if stall_timeout is not None else max(10.0 * heartbeat_interval, 5.0)
        )
        if lease_timeout is None:
            lease_timeout = max(30.0, 6.0 * self.stall_timeout)
            if self.timeout is not None:
                lease_timeout = self.timeout + self.stall_timeout + 5.0
        self.lease_timeout = lease_timeout
        self.drain_timeout = min(self.lease_timeout, DRAIN_TIMEOUT)
        self.connect_retry = connect_retry or RetryPolicy(
            max_attempts=8, base_delay=0.2, max_delay=2.0
        )
        for value in hosts:
            host, port = parse_host(value)
            name = f"{host}:{port}"
            self.hosts.append(_AgentHost(name=name, where=f" on {name}", addr=(host, port)))
        self._rng = random.Random(0x5EED)
        self._code = code_fingerprint()

    def run(self):
        payloads, failures, stats, attempts = super().run()
        hosts_report = {
            host.name: {"cells": host.cells, "runs": dict(host.runs), "reconnects": host.reconnects}
            for host in self.hosts
        }
        return payloads, failures, stats, attempts, hosts_report

    def _send(self, host: _AgentHost, message: Dict[str, Any]) -> bool:
        if host.transport is None:
            return False
        try:
            host.transport.send(message)
            return True
        except TransportClosed:
            return False  # the next receive/maintain pass reaps the host

    def _connect_failed(self, host: _AgentHost, reason: str) -> None:
        """Back off before the next connection, or write the host off."""
        host.connect_attempts += 1
        if host.connect_attempts >= self.connect_retry.max_attempts:
            host.written_off = True
            self.progress(
                f"host {host.name} written off after {host.connect_attempts} "
                f"failed connection(s): {reason}"
            )
        else:
            delay = self.connect_retry.delay(host.connect_attempts, self._rng)
            host.next_connect_at = time.monotonic() + delay
            self.progress(f"lost host {host.name} ({reason}); retrying in {delay:.2f}s")

    def _lose_host(self, host: _AgentHost, reason: str, *, connect_failure: bool = False) -> None:
        if host.transport is not None:
            host.transport.close()
            host.transport = None
        host.ready = False
        host.hello_deadline = None
        for index in list(host.leases):
            self._lost(host, index, "host-lost", reason)
        if host.ever_connected and not connect_failure:
            self.ledger.bump("host_lost")
        self._connect_failed(host, reason)

    # -- slot-kind hooks --

    def _maintain(self, now: float) -> None:
        for host in self.hosts:
            if host.transport is None:
                if not host.written_off and now >= host.next_connect_at:
                    self._connect(host, now)
            elif not host.ready:
                if host.hello_deadline is not None and now > host.hello_deadline:
                    self._lose_host(host, "no hello in time", connect_failure=True)
            elif now - host.last_seen > self.stall_timeout:
                self._lose_host(
                    host,
                    f"no heartbeat for {now - host.last_seen:.1f}s "
                    f"(threshold {self.stall_timeout:.1f}s)",
                )
            elif now - host.last_ping >= self.heartbeat_interval:
                host.last_ping = now
                self._send(host, {"type": "ping"})

    def _connect(self, host: _AgentHost, now: float) -> None:
        try:
            sock = socket.create_connection(host.addr, timeout=1.0)
        except OSError as exc:
            self._connect_failed(host, str(exc))
            return
        host.transport = SocketTransport(sock)
        host.hello_deadline = now + max(self.stall_timeout, 5.0)
        host.last_seen = now
        host.last_ping = now
        if host.ever_connected:
            host.reconnects += 1
            self.ledger.bump("reconnects")
        self.progress(f"connected to {host.name}; waiting for hello")

    def _send_task(self, host: _AgentHost, cell: _Cell) -> bool:
        index = cell.task.index
        sent = self._send(
            host,
            {
                "type": "task",
                "index": index,
                "attempt": cell.attempt,
                "key": self.keys.get(index),
                "spec": pack_pickle(cell.task.spec),
                "inject": dict(cell.task.inject),
            },
        )
        if not sent:
            self._lose_host(host, "connection lost at dispatch")
        return sent

    def _receive(self) -> List[Tuple[_Host, Dict[str, Any]]]:
        connected = {host.transport: host for host in self.hosts if host.transport is not None}
        if not connected:
            time.sleep(TICK)
            return []
        out: List[Tuple[_Host, Dict[str, Any]]] = []
        for transport in wait_readable(list(connected), timeout=TICK):
            host = connected[transport]
            try:
                messages = transport.recv_all()
            except (TransportClosed, ProtocolError) as exc:
                self._lose_host(host, str(exc))
                continue
            host.last_seen = time.monotonic()
            out.extend((host, message) for message in messages)
        return out

    def _on_control(self, host: _AgentHost, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "hello":
            if message.get("proto") != PROTOCOL_VERSION:
                host.written_off = True
                self._lose_host(host, f"protocol mismatch (agent proto {message.get('proto')!r})")
                return
            if message.get("code") != self._code:
                host.written_off = True
                self._lose_host(
                    host,
                    "code fingerprint mismatch (agent runs a different source tree; "
                    "its results would be cached under the wrong keys)",
                )
                return
            host.ready = True
            host.slots = max(1, int(message.get("slots", 1)))
            host.hello_deadline = None
            host.ever_connected = True
            host.connect_attempts = 0
            self.progress(
                f"host {host.name} ready (agent {message.get('agent')}, "
                f"{host.slots} slot(s))"
            )
        elif kind == "bye":
            self._lose_host(host, "agent drained and said bye")
        # "heartbeat": last_seen is already refreshed

    def _accept(self, host: _AgentHost, message: Dict[str, Any]) -> Any:
        expected_key = self.keys.get(int(message["index"]))
        if message.get("key") != expected_key:
            raise ProtocolError(
                f"key mismatch: agent acked {str(message.get('key'))[:12]}..., "
                f"cell is {str(expected_key)[:12]}..."
            )
        payload = load_entry(unpack_blob(message.get("blob")), expected_key)
        if payload is None:
            raise ProtocolError("payload is not a current-version cache entry for this cell")
        if self.cache is not None and expected_key is not None:
            self.cache.put(expected_key, payload)
        return payload

    def _cancel(self, host: _AgentHost, index: int) -> None:
        self._send(host, {"type": "cancel", "index": index})

    def _close(self) -> None:
        for host in self.hosts:
            if host.transport is not None:
                self._send(host, {"type": "stop"})
                host.transport.close()
                host.transport = None


# -- helpers -----------------------------------------------------------------


#: Seconds a loopback agent may take to print its listening address.
AGENT_STARTUP_TIMEOUT = 30.0


def spawn_local_agents(
    count: int,
    *,
    cache_dirs: Optional[Sequence[Any]] = None,
    workers: int = 1,
    faults: Optional[Sequence[Optional[AgentFaults]]] = None,
    env: Optional[Mapping[str, str]] = None,
):
    """Spawn ``count`` loopback agent subprocesses; return ``(procs, hosts)``.

    Each agent binds an ephemeral 127.0.0.1 port (parsed from its startup
    line), so callers get real cross-process remote execution on one
    machine -- the loopback parity/chaos configuration.  The caller owns the
    processes; terminate them when done.
    """
    import subprocess
    import sys

    procs = []
    hosts: List[str] = []
    for i in range(count):
        command = [sys.executable, "-u", "-m", "repro", "agent", "127.0.0.1:0"]
        command += ["--workers", str(workers)]
        if cache_dirs is not None:
            command += ["--cache-dir", str(cache_dirs[i])]
        fault = faults[i] if faults is not None else None
        if fault is not None:
            for name in ("drop_conn_on", "partition_on", "slow_ack_on"):
                value = getattr(fault, name)
                if value == "all":
                    command += ["--fault", f"{name}=all"]
                elif value:
                    command += ["--fault", f"{name}={','.join(str(v) for v in value)}"]
            command += ["--fault", f"slow_ack_seconds={fault.slow_ack_seconds}"]
            command += ["--fault", f"partition_seconds={fault.partition_seconds}"]
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(env) if env is not None else None,
        )
        procs.append(proc)
    deadline = time.monotonic() + AGENT_STARTUP_TIMEOUT
    for proc in procs:
        line = ""
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if "listening on" in line:
                break
            if proc.poll() is not None:
                break
        if "listening on" not in line:
            for p in procs:
                p.kill()
            raise RuntimeError(f"agent failed to start (last line: {line!r})")
        hosts.append(line.rsplit("listening on", 1)[1].strip())
    return procs, hosts
