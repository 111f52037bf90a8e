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

import multiprocessing
import os
import pickle
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sweep.cache import CACHE_VERSION, ResultCache, code_fingerprint
from repro.sweep.executor import RetryPolicy, SweepFailure, spawn_worker
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


def _matches(values: Any, index: int) -> bool:
    """Does a fault-hook value ("all", or an index list) cover this cell?"""
    if values is None:
        return False
    if values == "all":
        return True
    return index in tuple(values)


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


@dataclass
class _AgentJob:
    index: int
    attempt: int
    key: Optional[str]
    spec: Any
    inject: Dict[str, Any]


@dataclass
class _AgentWorker:
    worker_id: int
    process: Any
    transport: Any
    busy: Optional[_AgentJob] = None


class SweepAgent:
    """One remote execution agent: listen, lease cells, compute, cache, ack.

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
        driver_stall: float = 30.0,
        faults: Optional[AgentFaults] = None,
        name: Optional[str] = None,
        tick: float = 0.05,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.cache = (
            cache if isinstance(cache, ResultCache) else ResultCache(cache or ".sweep-cache")
        )
        self.workers = max(1, workers)
        self.heartbeat_interval = heartbeat_interval
        self.driver_stall = driver_stall
        self.faults = faults or AgentFaults()
        self.tick = tick
        self.progress = progress or (lambda message: None)
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(4)
        self._listen.setblocking(False)
        self.address: Tuple[str, int] = self._listen.getsockname()[:2]
        self.name = name or f"{self.address[0]}:{self.address[1]}"
        self._driver: Optional[SocketTransport] = None
        self._driver_seen = 0.0
        self._pool: List[_AgentWorker] = []
        self._queue: List[_AgentJob] = []
        self._mute_until = 0.0
        self._fired: Set[Tuple[str, int]] = set()
        self._last_heartbeat = 0.0
        self._next_worker_id = 0
        self._ctx = multiprocessing.get_context("spawn")

    # -- plumbing --

    def _send(self, message: Dict[str, Any]) -> bool:
        """Send to the driver unless muted (partition fault) or detached."""
        if self._driver is None:
            return False
        if time.monotonic() < self._mute_until:
            return False  # partitioned: silently drop (half-open simulation)
        try:
            self._driver.send(message)
            return True
        except TransportClosed:
            self._drop_driver("send failed")
            return False

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
                "slots": self.workers,
                "code": code_fingerprint(),
            }
        )

    def _fire_once(self, hook: str, index: int) -> bool:
        if (hook, index) in self._fired:
            return False
        if _matches(getattr(self.faults, hook), index):
            self._fired.add((hook, index))
            return True
        return False

    # -- job flow --

    def _on_task(self, message: Dict[str, Any]) -> None:
        index = int(message["index"])
        attempt = int(message.get("attempt", 1))
        key = message.get("key")
        try:
            spec = unpack_pickle(message["spec"])
        except ProtocolError as exc:
            self._send(
                {
                    "type": "error",
                    "index": index,
                    "attempt": attempt,
                    "exc_type": "ProtocolError",
                    "message": str(exc),
                    "traceback": "",
                    "elapsed": 0.0,
                }
            )
            return
        if self._fire_once("partition_on", index):
            self._mute_until = time.monotonic() + self.faults.partition_seconds
        job = _AgentJob(
            index=index,
            attempt=attempt,
            key=key,
            spec=spec,
            inject=dict(message.get("inject") or {}),
        )
        if key:
            payload = self.cache.get(key)
            if payload is not None:
                self._ack_done(job, payload, elapsed=0.0, cached=True)
                return
        if any(worker.busy is not None and worker.busy.index == index for worker in self._pool):
            return  # duplicate lease of a cell already in flight here
        self._queue.append(job)

    def _on_cancel(self, index: int) -> None:
        self._queue = [job for job in self._queue if job.index != index]
        for worker in list(self._pool):
            if worker.busy is not None and worker.busy.index == index:
                self._kill_worker(worker)

    def _ack_done(
        self, job: _AgentJob, payload: Dict[str, Any], elapsed: float, cached: bool
    ) -> None:
        if _matches(self.faults.slow_ack_on, job.index):
            time.sleep(self.faults.slow_ack_seconds)
        if self._fire_once("drop_conn_on", job.index):
            self._drop_driver("injected drop_conn_on")
            return
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._send(
            {
                "type": "done",
                "index": job.index,
                "attempt": job.attempt,
                "key": job.key,
                "blob": pack_blob(blob),
                "elapsed": elapsed,
                "cached": cached,
                "agent": self.name,
            }
        )

    def _spawn_pool_worker(self) -> _AgentWorker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process, transport = spawn_worker(self._ctx, worker_id, self.heartbeat_interval)
        worker = _AgentWorker(worker_id=worker_id, process=process, transport=transport)
        self._pool.append(worker)
        return worker

    def _kill_worker(self, worker: _AgentWorker) -> None:
        try:
            worker.process.terminate()
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)
        except (OSError, ValueError):
            pass
        worker.transport.close()
        if worker in self._pool:
            self._pool.remove(worker)

    def _pump(self) -> None:
        while self._queue:
            idle = next((worker for worker in self._pool if worker.busy is None), None)
            if idle is None:
                if len(self._pool) >= self.workers:
                    return
                idle = self._spawn_pool_worker()
            job = self._queue.pop(0)
            try:
                idle.transport.send(
                    (
                        "task",
                        job.index,
                        job.attempt,
                        job.spec,
                        job.key,
                        str(self.cache.root),
                        job.inject,
                    )
                )
            except TransportClosed:
                self._queue.insert(0, job)
                self._kill_worker(idle)
                continue
            idle.busy = job

    def _on_worker_message(self, worker: _AgentWorker, message: tuple) -> None:
        kind = message[0]
        if kind == "start":
            _, _, index, attempt = message
            self._send({"type": "start", "index": index, "attempt": attempt})
        elif kind == "done":
            _, _, index, attempt, payload, elapsed = message
            job = worker.busy
            worker.busy = None
            if job is not None and job.index == index:
                self._ack_done(job, payload, elapsed=elapsed, cached=False)
        elif kind == "error":
            _, _, index, attempt, exc_type, exc_message, tb, elapsed = message
            worker.busy = None
            self._send(
                {
                    "type": "error",
                    "index": index,
                    "attempt": attempt,
                    "exc_type": exc_type,
                    "message": exc_message,
                    "traceback": tb,
                    "elapsed": elapsed,
                }
            )

    def _check_pool(self) -> None:
        for worker in list(self._pool):
            if worker.process.is_alive():
                continue
            job = worker.busy
            exitcode = worker.process.exitcode
            self._kill_worker(worker)
            if job is not None:
                self._send(
                    {
                        "type": "error",
                        "index": job.index,
                        "attempt": job.attempt,
                        "exc_type": "WorkerCrash",
                        "message": f"agent worker died (exit code {exitcode})",
                        "traceback": "",
                        "elapsed": 0.0,
                    }
                )

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
                    for job in self._queue:
                        self._send({"type": "requeue", "index": job.index, "attempt": job.attempt})
                    self._queue = []
                    self.progress("draining: finishing in-flight cells")
                if draining and all(worker.busy is None for worker in self._pool):
                    self._send({"type": "bye", "agent": self.name})
                    return
                waitables: List[Any] = [self._listen]
                if self._driver is not None:
                    waitables.append(self._driver)
                waitables.extend(worker.transport for worker in self._pool)
                ready = wait_readable(waitables, timeout=self.tick)
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
                for worker in list(self._pool):
                    if worker.transport in ready:
                        try:
                            batch = worker.transport.recv_all()
                        except TransportClosed:
                            continue  # _check_pool reports and reaps it
                        for message in batch:
                            self._on_worker_message(worker, message)
                self._check_pool()
                if not draining:
                    self._pump()
                if now - self._last_heartbeat >= self.heartbeat_interval:
                    self._last_heartbeat = now
                    busy = [w.busy.index for w in self._pool if w.busy is not None]
                    self._send({"type": "heartbeat", "busy": busy})
                if (
                    self._driver is not None
                    and now - self._driver_seen > self.driver_stall
                ):
                    # Half-open guard: a driver that went silent is gone.
                    self._drop_driver(f"no driver traffic for {self.driver_stall:.0f}s")
        finally:
            for worker in list(self._pool):
                self._kill_worker(worker)
            self._drop_driver("agent exiting")
            try:
                self._listen.close()
            except OSError:
                pass

    def close(self) -> None:
        try:
            self._listen.close()
        except OSError:
            pass


# -- driver side -------------------------------------------------------------


@dataclass
class _CellAttempt:
    task: SweepTask
    attempt: int
    eligible_at: float


@dataclass
class _Lease:
    cell: _CellAttempt
    granted_at: float
    expires_at: float
    started_at: Optional[float] = None


@dataclass
class _Host:
    name: str
    addr: Tuple[str, int]
    transport: Optional[SocketTransport] = None
    hello: Optional[Dict[str, Any]] = None
    slots: int = 1
    leases: Dict[int, _Lease] = field(default_factory=dict)
    connect_attempts: int = 0
    next_connect_at: float = 0.0
    hello_deadline: Optional[float] = None
    written_off: bool = False
    ever_connected: bool = False
    last_seen: float = 0.0
    last_ping: float = 0.0
    reconnects: int = 0
    cells: int = 0
    #: start acks per cell index -- "how many times did this cell *run* here".
    runs: Dict[int, int] = field(default_factory=dict)


class RemoteExecutor:
    """Lease sweep cells to remote agents; trust only verified cache payloads.

    ``run()`` returns ``(payloads, failures, stats, attempts, hosts)`` --
    the executor tuple plus a per-host report (cells completed, runs per
    cell, reconnects) for the observability layer.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        *,
        hosts: Sequence[Any],
        keys: Optional[Mapping[int, str]] = None,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        lease_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        connect_retry: Optional[RetryPolicy] = None,
        quarantine_hosts: int = 2,
        require_code_match: bool = True,
        interrupt: Optional[Any] = None,
        progress: Optional[Callable[[str], None]] = None,
        tick: float = 0.05,
        drain_timeout: Optional[float] = None,
    ):
        if not hosts:
            raise ValueError("remote mode needs at least one agent host ('host:port')")
        self.tasks = list(tasks)
        self._by_index = {task.index: task for task in self.tasks}
        self.keys = dict(keys or {})
        self.cache = cache
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = (
            stall_timeout if stall_timeout is not None else max(10.0 * heartbeat_interval, 5.0)
        )
        self.lease_timeout = (
            lease_timeout
            if lease_timeout is not None
            else (
                timeout + self.stall_timeout + 5.0
                if timeout is not None
                else max(30.0, 6.0 * self.stall_timeout)
            )
        )
        self.connect_retry = connect_retry or RetryPolicy(
            max_attempts=8, base_delay=0.2, max_delay=2.0
        )
        self.quarantine_hosts = max(1, quarantine_hosts)
        self.require_code_match = require_code_match
        self.interrupt = interrupt
        self.progress = progress or (lambda message: None)
        self.tick = tick
        self.drain_timeout = drain_timeout if drain_timeout is not None else min(
            self.lease_timeout, 15.0
        )
        self.hosts: List[_Host] = []
        for value in hosts:
            host, port = parse_host(value)
            self.hosts.append(_Host(name=f"{host}:{port}", addr=(host, port)))
        self._failed_hosts: Dict[int, Set[str]] = {}
        self._rng = random.Random(0x5EED)
        self._code = code_fingerprint()

    # -- bookkeeping --

    def _resolved(self, state: Dict[str, Any], index: int) -> bool:
        return index in state["payloads"] or index in state["failures"]

    def _clear_leases(self, index: int) -> None:
        for host in self.hosts:
            if index in host.leases:
                lease = host.leases.pop(index)
                if lease.started_at is not None and host.transport is not None:
                    self._send(host, {"type": "cancel", "index": index})

    def _send(self, host: _Host, message: Dict[str, Any]) -> bool:
        if host.transport is None:
            return False
        try:
            host.transport.send(message)
            return True
        except TransportClosed:
            return False  # the next drain/health pass reaps the host

    def _record_failure(
        self,
        state: Dict[str, Any],
        cell: _CellAttempt,
        kind: str,
        message: str,
        tb: str = "",
    ) -> None:
        index = cell.task.index
        if self._resolved(state, index):
            return
        stats = state["stats"]
        stats[kind] = stats.get(kind, 0) + 1
        distinct = len(self._failed_hosts.get(index, ()))
        multi_host = kind in ("error", "timeout") and distinct >= self.quarantine_hosts
        if cell.attempt >= self.retry.max_attempts or multi_host:
            if multi_host:
                message = f"{message} (failed on {distinct} distinct host(s))"
            state["failures"][index] = SweepFailure(
                index=index,
                label=cell.task.label,
                kind=kind,
                message=message,
                traceback=tb,
                attempts=cell.attempt,
                quarantined=True,
            )
            stats["quarantined"] = stats.get("quarantined", 0) + 1
            self._clear_leases(index)
            self.progress(
                f"quarantined {cell.task.label or index} after {cell.attempt} attempt(s) "
                f"on {max(distinct, 1)} host(s): {kind}: {message}"
            )
        else:
            delay = self.retry.delay(cell.attempt, self._rng)
            state["pending"].append(
                _CellAttempt(cell.task, cell.attempt + 1, time.monotonic() + delay)
            )
            stats["retried"] = stats.get("retried", 0) + 1
            stats["backoff_seconds"] = round(stats.get("backoff_seconds", 0.0) + delay, 6)
            self.progress(
                f"retrying {cell.task.label or index} in {delay:.2f}s "
                f"(attempt {cell.attempt + 1}/{self.retry.max_attempts}; {kind})"
            )

    def _requeue(self, state: Dict[str, Any], cell: _CellAttempt) -> None:
        """Give a cell back to the scheduler without charging an attempt.

        Used when the *host* failed (lost connection, drain), not the cell.
        """
        index = cell.task.index
        if self._resolved(state, index):
            return
        state["pending"].append(_CellAttempt(cell.task, cell.attempt, time.monotonic()))

    def _lose_host(
        self, state: Dict[str, Any], host: _Host, reason: str, *, connect_failure: bool = False
    ) -> None:
        if host.transport is not None:
            host.transport.close()
            host.transport = None
        host.hello = None
        host.hello_deadline = None
        leases = list(host.leases.values())
        host.leases.clear()
        for lease in leases:
            self._requeue(state, lease.cell)
        if host.ever_connected and not connect_failure:
            state["stats"]["host_lost"] = state["stats"].get("host_lost", 0) + 1
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

    # -- main loop --

    def run(self):
        state: Dict[str, Any] = {
            "payloads": {},
            "failures": {},
            "stats": {"computed": 0},
            "attempts": {},
            "pending": [_CellAttempt(task, 1, 0.0) for task in self.tasks],
        }
        try:
            self._loop(state)
        finally:
            self._close_all()
        if self.interrupt is not None and getattr(self.interrupt, "requested", False):
            for task in self.tasks:
                if not self._resolved(state, task.index):
                    state["failures"][task.index] = SweepFailure(
                        index=task.index,
                        label=task.label,
                        kind="cancelled",
                        message="sweep interrupted before this cell completed",
                    )
                    state["stats"]["cancelled"] = state["stats"].get("cancelled", 0) + 1
        hosts_report = {
            host.name: {
                "cells": host.cells,
                "runs": dict(host.runs),
                "reconnects": host.reconnects,
            }
            for host in self.hosts
        }
        return (
            state["payloads"],
            state["failures"],
            state["stats"],
            state["attempts"],
            hosts_report,
        )

    def _loop(self, state: Dict[str, Any]) -> None:
        total = len(self.tasks)
        while len(state["payloads"]) + len(state["failures"]) < total:
            if self.interrupt is not None and getattr(self.interrupt, "requested", False):
                self._drain_on_interrupt(state)
                return
            now = time.monotonic()
            self._connect_hosts(state, now)
            self._dispatch(state)
            self._drain(state)
            self._check_health(state)
            if all(host.written_off for host in self.hosts) and not any(
                host.leases for host in self.hosts
            ):
                for task in self.tasks:
                    if not self._resolved(state, task.index):
                        state["failures"][task.index] = SweepFailure(
                            index=task.index,
                            label=task.label,
                            kind="no-hosts",
                            message="every agent host is unreachable",
                            quarantined=True,
                        )
                        state["stats"]["no-hosts"] = state["stats"].get("no-hosts", 0) + 1
                return

    def _drain_on_interrupt(self, state: Dict[str, Any]) -> None:
        """Graceful drain: no new leases; collect in-flight acks briefly."""
        deadline = time.monotonic() + self.drain_timeout
        while (
            any(host.leases for host in self.hosts)
            and time.monotonic() < deadline
        ):
            self._drain(state)
            self._check_health(state)
        for host in self.hosts:
            self._send(host, {"type": "stop"})

    def _connect_hosts(self, state: Dict[str, Any], now: float) -> None:
        for host in self.hosts:
            if host.transport is not None or host.written_off or now < host.next_connect_at:
                continue
            try:
                sock = socket.create_connection(host.addr, timeout=1.0)
            except OSError as exc:
                host.connect_attempts += 1
                if host.connect_attempts >= self.connect_retry.max_attempts:
                    host.written_off = True
                    self.progress(
                        f"host {host.name} written off after {host.connect_attempts} "
                        f"failed connection(s): {exc}"
                    )
                else:
                    delay = self.connect_retry.delay(host.connect_attempts, self._rng)
                    host.next_connect_at = now + delay
                continue
            host.transport = SocketTransport(sock)
            host.hello = None
            host.hello_deadline = now + max(self.stall_timeout, 5.0)
            host.last_seen = now
            host.last_ping = now
            if host.ever_connected:
                host.reconnects += 1
                state["stats"]["reconnects"] = state["stats"].get("reconnects", 0) + 1
            self.progress(f"connected to {host.name}; waiting for hello")

    def _dispatch(self, state: Dict[str, Any]) -> None:
        now = time.monotonic()
        pending: List[_CellAttempt] = state["pending"]
        pending[:] = [
            cell for cell in pending if not self._resolved(state, cell.task.index)
        ]
        eligible = [cell for cell in pending if cell.eligible_at <= now]
        for cell in eligible:
            index = cell.task.index
            if any(index in host.leases for host in self.hosts):
                # Already leased (a retry raced a live lease); let the lease
                # play out -- its ack resolves the cell either way.
                pending.remove(cell)
                continue
            candidates = [
                host
                for host in self.hosts
                if host.transport is not None
                and host.hello is not None
                and len(host.leases) < host.slots
            ]
            if not candidates:
                return
            failed_on = self._failed_hosts.get(index, set())
            fresh = [host for host in candidates if host.name not in failed_on]
            if not fresh and any(
                host.name not in failed_on
                and host.transport is not None
                and host.hello is not None
                for host in self.hosts
            ):
                # A live host this cell has not failed on is merely full:
                # wait for its slot rather than repeat the failure on a host
                # that already saw it (which would also defeat distinct-host
                # quarantine).
                continue
            pool = fresh or candidates
            host = min(pool, key=lambda h: len(h.leases))
            sent = self._send(
                host,
                {
                    "type": "task",
                    "index": index,
                    "attempt": cell.attempt,
                    "key": self.keys.get(index),
                    "spec": pack_pickle(cell.task.spec),
                    "inject": dict(cell.task.inject),
                    "timeout": self.timeout,
                },
            )
            if not sent:
                self._lose_host(state, host, "connection lost at dispatch")
                continue
            pending.remove(cell)
            state["attempts"][index] = state["attempts"].get(index, 0) + 1
            host.leases[index] = _Lease(
                cell=cell, granted_at=now, expires_at=now + self.lease_timeout
            )

    def _drain(self, state: Dict[str, Any]) -> None:
        connected = [host for host in self.hosts if host.transport is not None]
        if not connected:
            time.sleep(self.tick)
            return
        by_transport = {host.transport: host for host in connected}
        ready = wait_readable(list(by_transport), timeout=self.tick)
        for transport in ready:
            host = by_transport[transport]
            try:
                messages = transport.recv_all()
            except (TransportClosed, ProtocolError) as exc:
                self._lose_host(state, host, str(exc))
                continue
            for message in messages:
                host.last_seen = time.monotonic()
                self._handle(state, host, message)

    def _handle(self, state: Dict[str, Any], host: _Host, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "hello":
            if message.get("proto") != PROTOCOL_VERSION:
                host.written_off = True
                self._lose_host(
                    state, host, f"protocol mismatch (agent proto {message.get('proto')!r})"
                )
                return
            if self.require_code_match and message.get("code") != self._code:
                host.written_off = True
                self._lose_host(
                    state,
                    host,
                    "code fingerprint mismatch (agent runs a different source tree; "
                    "its results would be cached under the wrong keys)",
                )
                return
            host.hello = message
            host.slots = max(1, int(message.get("slots", 1)))
            host.hello_deadline = None
            host.ever_connected = True
            host.connect_attempts = 0
            self.progress(
                f"host {host.name} ready (agent {message.get('agent')}, "
                f"{host.slots} slot(s))"
            )
        elif kind == "start":
            index = int(message["index"])
            lease = host.leases.get(index)
            if lease is not None:
                lease.started_at = time.monotonic()
            host.runs[index] = host.runs.get(index, 0) + 1
        elif kind == "heartbeat":
            pass  # last_seen already refreshed
        elif kind == "requeue":
            index = int(message["index"])
            lease = host.leases.pop(index, None)
            if lease is not None:
                self._requeue(state, lease.cell)
        elif kind == "done":
            self._handle_done(state, host, message)
        elif kind == "error":
            index = int(message["index"])
            lease = host.leases.pop(index, None)
            if self._resolved(state, index):
                return
            cell = (
                lease.cell
                if lease is not None
                else _CellAttempt(self._by_index[index], int(message.get("attempt", 1)), 0.0)
            )
            self._failed_hosts.setdefault(index, set()).add(host.name)
            self._record_failure(
                state,
                cell,
                "error",
                f"{message.get('exc_type')}: {message.get('message')} [on {host.name}]",
                message.get("traceback", ""),
            )
        elif kind == "bye":
            self._lose_host(state, host, "agent drained and said bye")

    def _handle_done(self, state: Dict[str, Any], host: _Host, message: Dict[str, Any]) -> None:
        index = int(message["index"])
        lease = host.leases.pop(index, None)
        if self._resolved(state, index):
            return  # stale ack from a superseded lease; first writer won
        cell = (
            lease.cell
            if lease is not None
            else _CellAttempt(self._by_index[index], int(message.get("attempt", 1)), 0.0)
        )
        expected_key = self.keys.get(index)
        try:
            if message.get("key") != expected_key:
                raise ProtocolError(
                    f"key mismatch: agent acked {str(message.get('key'))[:12]}..., "
                    f"cell is {str(expected_key)[:12]}..."
                )
            blob = unpack_blob(message.get("blob"))
            payload = pickle.loads(blob)
            if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
                raise ProtocolError("payload is not a current-version cache entry")
            if expected_key is not None and payload.get("cache_key") not in (None, expected_key):
                raise ProtocolError("payload is bound to a different cache key")
        except Exception as exc:
            # Corrupt on the wire or mis-cached on the agent: exactly a torn
            # cache entry -- a miss, retried like any failure.
            self._record_failure(
                state, cell, "bad-payload", f"{type(exc).__name__}: {exc} [from {host.name}]"
            )
            return
        if self.cache is not None and expected_key is not None:
            self.cache.put(expected_key, payload)
        state["payloads"][index] = payload
        self._clear_leases(index)
        stats = state["stats"]
        stats["computed"] += 1
        if message.get("cached"):
            stats["agent_cached"] = stats.get("agent_cached", 0) + 1
        host.cells += 1
        done = len(state["payloads"])
        origin = "agent cache" if message.get("cached") else f"{message.get('elapsed', 0.0):.2f}s"
        self.progress(
            f"[{done + len(state['failures'])}/{len(self.tasks)}] "
            f"{self._by_index[index].label or index}: ok on {host.name} ({origin})"
        )

    def _check_health(self, state: Dict[str, Any]) -> None:
        now = time.monotonic()
        for host in self.hosts:
            if host.transport is None:
                continue
            if host.hello is None:
                if host.hello_deadline is not None and now > host.hello_deadline:
                    self._lose_host(state, host, "no hello in time", connect_failure=True)
                continue
            if now - host.last_seen > self.stall_timeout:
                self._lose_host(
                    state,
                    host,
                    f"no heartbeat for {now - host.last_seen:.1f}s "
                    f"(threshold {self.stall_timeout:.1f}s)",
                )
                continue
            if now - host.last_ping >= self.heartbeat_interval:
                host.last_ping = now
                self._send(host, {"type": "ping"})
            for index, lease in list(host.leases.items()):
                if (
                    self.timeout is not None
                    and lease.started_at is not None
                    and now - lease.started_at > self.timeout
                ):
                    host.leases.pop(index, None)
                    self._send(host, {"type": "cancel", "index": index})
                    self._failed_hosts.setdefault(index, set()).add(host.name)
                    self._record_failure(
                        state,
                        lease.cell,
                        "timeout",
                        f"cell exceeded the {self.timeout:.1f}s wall-clock timeout "
                        f"on {host.name}",
                    )
                elif now > lease.expires_at:
                    host.leases.pop(index, None)
                    self._send(host, {"type": "cancel", "index": index})
                    self._record_failure(
                        state,
                        lease.cell,
                        "lease-expired",
                        f"lease expired after {self.lease_timeout:.1f}s on {host.name}; "
                        "reassigning",
                    )

    def _close_all(self) -> None:
        for host in self.hosts:
            if host.transport is not None:
                self._send(host, {"type": "stop"})
                host.transport.close()
                host.transport = None


# -- helpers -----------------------------------------------------------------


def run_agent(
    bind: str = "127.0.0.1:0",
    *,
    workers: int = 1,
    cache: Any = None,
    faults: Optional[AgentFaults] = None,
    heartbeat_interval: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Blocking convenience wrapper: build a :class:`SweepAgent` and serve."""
    host, port = parse_host(bind)
    agent = SweepAgent(
        host,
        port,
        workers=workers,
        cache=cache,
        faults=faults,
        heartbeat_interval=heartbeat_interval,
        progress=progress,
    )
    if progress is not None:
        progress(f"agent listening on {agent.address[0]}:{agent.address[1]}")
    agent.serve_forever(stop=stop)


def spawn_local_agents(
    count: int,
    *,
    cache_dirs: Optional[Sequence[Any]] = None,
    workers: int = 1,
    faults: Optional[Sequence[Optional[AgentFaults]]] = None,
    heartbeat_interval: float = 0.5,
    python: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
    startup_timeout: float = 30.0,
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
        command = [python or sys.executable, "-u", "-m", "repro", "agent", "127.0.0.1:0"]
        command += ["--workers", str(workers)]
        if cache_dirs is not None:
            command += ["--cache-dir", str(cache_dirs[i])]
        command += ["--heartbeat", str(heartbeat_interval)]
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
    deadline = time.monotonic() + startup_timeout
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
