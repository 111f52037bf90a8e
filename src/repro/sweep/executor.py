"""The one sweep scheduler: a cell ledger, a worker pool and one loop.

Crash-only by design: every completed cell is written to the
content-addressed cache *before* it is reported, so the driver -- and the
whole machine -- can die at any instant and a rerun recomputes only the
missing delta.  Failure handling is the normal path, not an exception
path, and it is written once:

* :class:`CellLedger` is the fate of every cell: the pending queue with
  backoff eligibility, attempt counts, retry with exponential backoff and
  jitter, quarantine (after the retry budget, or early once the cell
  failed on ``quarantine_hosts`` distinct hosts), requeue without charge,
  cancellation on interrupt, stats and progress lines;
* :class:`WorkerPool` is every ``spawn``-ed worker process, each driven
  over its own duplex pipe (no shared queue, so killing a worker can never
  corrupt a lock another worker holds), and its liveness: pipe EOF or
  exit, heartbeat stall, and the spawn and start-ack deadlines;
* :class:`Scheduler` is the one dispatch / drain / health loop over the
  slots of some hosts.  :class:`ShardedExecutor` runs it over one local
  pool; :class:`~repro.sweep.remote.RemoteExecutor` runs it over TCP
  agents, each of which fronts its own :class:`WorkerPool`.

Local workers and agents speak the same typed messages (``start``,
``done``, ``error``, ...), so one handler serves both.  The slot kind
decides the one rule that differs: a dead local worker charges its cell an
attempt, a lost agent hands its cells back free.

Test hooks: a task's ``inject`` mapping can direct the worker to raise,
crash (``os._exit``), hang, or hang silently (heartbeats stopped) on given
attempts, so the whole failure matrix is exercised by fast deterministic
tests (mirroring the repo's fault-injection philosophy).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sweep.cache import ResultCache, encode_result
from repro.sweep.grid import SweepTask
from repro.sweep.transport import PipeTransport, TransportClosed, wait_readable

#: Seconds one scheduling round waits for messages before it checks the
#: deadlines and dispatches again.
TICK = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Retry with exponential backoff plus jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one try
    plus two retries, after which the task is quarantined.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.base_delay * (2.0 ** max(0, attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SweepFailure:
    """One failed (or cancelled) sweep cell, as structured data.

    ``kind`` is ``"error"`` (the task raised), ``"timeout"`` (wall-clock
    limit), ``"crash"`` (worker process died), ``"dead-worker"`` (heartbeat
    stall or no start ack), ``"lease-expired"`` and ``"bad-payload"``
    (remote only), ``"no-hosts"`` (every agent unreachable) or
    ``"cancelled"`` (sweep interrupted before the cell completed).
    ``quarantined`` marks tasks that exhausted their retry budget.
    """

    index: int
    label: str
    kind: str
    message: str
    traceback: str = ""
    attempts: int = 0
    quarantined: bool = False

    def as_row(self) -> Dict[str, Any]:
        return {
            "status": "failed" if self.kind != "cancelled" else "cancelled",
            "kind": self.kind,
            "error": self.message,
            "attempts": self.attempts,
        }


def fault_hits(values: Any, key: int) -> bool:
    """Does a fault-hook value ("all", or a list) cover this attempt or cell?"""
    if values is None:
        return False
    if values == "all":
        return True
    return key in tuple(values)


# -- worker side -------------------------------------------------------------


def _apply_injection(inject: Mapping[str, Any], attempt: int, beating: threading.Event) -> None:
    """Execute test-only fault directives before running the real task."""
    if fault_hits(inject.get("crash_on"), attempt):
        os._exit(int(inject.get("exit_code", 134)))
    if fault_hits(inject.get("silent_hang_on"), attempt):
        beating.clear()
        time.sleep(float(inject.get("hang_seconds", 3600.0)))
    if fault_hits(inject.get("hang_on"), attempt):
        time.sleep(float(inject.get("hang_seconds", 3600.0)))
    if fault_hits(inject.get("raise_on"), attempt):
        raise RuntimeError(str(inject.get("message", "injected failure")))


def _worker_main(
    conn: Connection,
    worker_id: int,
    heartbeat_interval: float,
    cache_root: Optional[str],
    worker_faults: Mapping[str, Any],
) -> None:
    """One worker process: receive tasks, run them, report over the pipe.

    ``worker_faults`` is a test-only mapping keyed by fault name whose values
    are worker-id lists: ``die_after_hello`` exits right after the hello
    (first-contact death), ``wedge_before_start`` takes a task but never acks
    ``start`` while its heartbeat thread keeps beating (the pre-start wedge
    the start-ack deadline exists for).
    """
    import signal

    # The driver coordinates shutdown; Ctrl-C must interrupt it, not us.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    send_lock = threading.Lock()
    beating = threading.Event()
    beating.set()

    def send(message: Dict[str, Any]) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # driver is gone; die quietly
                os._exit(0)

    def heartbeat_loop() -> None:
        while True:
            time.sleep(heartbeat_interval)
            if beating.is_set():
                send({"type": "heartbeat"})

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    send({"type": "hello", "worker": worker_id, "pid": os.getpid()})
    if fault_hits(worker_faults.get("die_after_hello"), worker_id):
        os._exit(13)

    from repro.scenarios.runner import run_scenario

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        index, attempt, key = message["index"], message["attempt"], message["key"]
        if fault_hits(worker_faults.get("wedge_before_start"), worker_id):
            time.sleep(3600.0)  # heartbeats continue; start is never acked
        report = dict(index=index, attempt=attempt)
        send({"type": "start", **report})
        started = time.monotonic()
        try:
            _apply_injection(message["inject"], attempt, beating)
            payload = encode_result(run_scenario(message["spec"]))
            if cache_root is not None and key is not None:
                # Cache first, report second: if we die between the two the
                # entry survives and the retry is a pure cache hit.
                ResultCache(cache_root).put(key, payload)
            report.update(type="done", key=key, payload=payload)
        except BaseException as exc:  # crash-only: report anything, keep serving
            report.update(
                type="error",
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
            )
        send({**report, "elapsed": time.monotonic() - started})


# -- the worker pool ---------------------------------------------------------


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    transport: PipeTransport
    #: Cell index and attempt in flight, or None when idle.
    index: Optional[int] = None
    attempt: int = 0
    dispatched_at: float = 0.0
    started_at: Optional[float] = None
    #: True once any message arrived; heartbeat-stall detection waits for
    #: first contact so slow spawn/imports are not mistaken for death.
    contacted: bool = False
    #: True once the worker acked "start" for any task: later start acks
    #: carry no import cost, so they get the (short) start-ack deadline.
    ever_started: bool = False
    #: Set when the pipe reports EOF -- death evidence acted on promptly
    #: instead of waiting out the stall detector.
    eof: bool = False
    last_heartbeat: float = field(default_factory=time.monotonic)


class WorkerPool:
    """Up to ``size`` spawn-ed worker processes on pipes, and their liveness.

    The one implementation of worker spawn, kill and death detection,
    shared by the local scheduler and every agent.  :meth:`receive` drains
    worker messages; :meth:`check` kills workers that died (pipe EOF or
    exit), stalled (no heartbeat for ``stall_timeout``) or never acked a
    dispatched task's start (a fresh worker gets ``spawn_timeout`` for its
    imports, a warm one ``start_ack_timeout``) and reports their cells.
    """

    def __init__(
        self,
        size: int,
        *,
        cache_root: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        spawn_timeout: float = 60.0,
        start_ack_timeout: Optional[float] = None,
        worker_faults: Optional[Mapping[str, Any]] = None,
    ):
        self.size = max(1, size)
        self.cache_root = cache_root
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = (
            stall_timeout if stall_timeout is not None else max(10.0 * heartbeat_interval, 5.0)
        )
        self.spawn_timeout = spawn_timeout
        #: This is what catches a worker whose main thread wedged or died
        #: before the ack while its heartbeat thread kept the stall detector
        #: happy.
        self.start_ack_timeout = (
            start_ack_timeout if start_ack_timeout is not None else self.stall_timeout
        )
        self.worker_faults = dict(worker_faults or {})
        self.workers: List[_Worker] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._next_worker_id = 0

    def busy(self) -> List[int]:
        """Indices of the cells in flight."""
        return [worker.index for worker in self.workers if worker.index is not None]

    def transports(self) -> List[PipeTransport]:
        return [worker.transport for worker in self.workers]

    def submit(self, index: int, attempt: int, spec: Any, key: Optional[str], inject: Any) -> bool:
        """Hand a cell to an idle (or newly spawned) worker.

        Returns False, with the worker dropped, when its pipe is already
        closed; the caller keeps the cell and tries again later.
        """
        worker = next((w for w in self.workers if w.index is None), None)
        if worker is None:
            worker = self._spawn()
        message = {
            "type": "task",
            "index": index,
            "attempt": attempt,
            "spec": spec,
            "key": key,
            "inject": dict(inject),
        }
        try:
            worker.transport.send(message)
        except TransportClosed:
            self._remove(worker)
            return False
        worker.index, worker.attempt = index, attempt
        worker.dispatched_at = worker.last_heartbeat = time.monotonic()
        worker.started_at = None
        return True

    def receive(self, ready: Sequence[Any]) -> List[Dict[str, Any]]:
        """Drain the ready workers; return their start/done/error messages."""
        out: List[Dict[str, Any]] = []
        for worker in list(self.workers):
            if worker.transport not in ready:
                continue
            try:
                messages = worker.transport.recv_all()
            except TransportClosed:
                worker.eof = True
                continue
            for message in messages:
                worker.contacted = True
                worker.last_heartbeat = time.monotonic()
                kind = message["type"]
                if kind in ("hello", "heartbeat"):
                    continue
                if message["index"] == worker.index:
                    if kind == "start":
                        worker.started_at = worker.last_heartbeat
                        worker.ever_started = True
                    else:
                        worker.index = None
                out.append(message)
        return out

    def check(self) -> List[Tuple[int, int, str, str]]:
        """Kill dead or wedged workers; ``(index, attempt, kind, message)`` per lost cell."""
        now = time.monotonic()
        lost = []
        for worker in list(self.workers):
            verdict = self._diagnose(worker, now)
            if verdict is None:
                continue
            if worker.index is not None:
                lost.append((worker.index, worker.attempt, *verdict))
            self._remove(worker)
        return lost

    def _diagnose(self, worker: _Worker, now: float) -> Optional[Tuple[str, str]]:
        if worker.eof or not worker.process.is_alive():
            # Pipe EOF is acted on as death evidence even while the exit is
            # still in flight (is_alive can race a dying process), so a
            # worker that connected and died before its first heartbeat
            # fails its task promptly -- not a stall later.
            worker.process.join(0.2)
            return "crash", f"worker process died (exit code {worker.process.exitcode})"
        if worker.index is None:
            return None
        if worker.started_at is None:
            grace = self.spawn_timeout if not worker.ever_started else self.start_ack_timeout
            if now - worker.dispatched_at > grace:
                return "dead-worker", f"no start ack within {grace:.1f}s of dispatch"
        # A silent fresh worker is still covered by the spawn grace above.
        if worker.contacted and now - worker.last_heartbeat > self.stall_timeout:
            return (
                "dead-worker",
                f"no heartbeat for {now - worker.last_heartbeat:.1f}s "
                f"(threshold {self.stall_timeout:.1f}s)",
            )
        return None

    def cancel(self, index: int) -> None:
        """Kill the worker running this cell, if any."""
        for worker in list(self.workers):
            if worker.index == index:
                self._remove(worker)

    def close(self) -> None:
        """Stop every worker; crash-only, so an in-flight cell is simply lost."""
        for worker in list(self.workers):
            self._remove(worker)

    def _spawn(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        args = (child_conn, worker_id, self.heartbeat_interval, self.cache_root, self.worker_faults)
        process = self._ctx.Process(
            target=_worker_main,
            args=args,
            daemon=True,
            name=f"sweep-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(process=process, transport=PipeTransport(parent_conn))
        self.workers.append(worker)
        return worker

    def _remove(self, worker: _Worker) -> None:
        """Kill the worker (terminate, then kill if it lingers) and drop it."""
        try:
            worker.process.terminate()
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)
        except (OSError, ValueError):
            pass
        worker.transport.close()
        self.workers.remove(worker)


# -- the cell ledger ---------------------------------------------------------


@dataclass
class _Cell:
    task: SweepTask
    attempt: int
    eligible_at: float = 0.0


class CellLedger:
    """The fate of every cell of one sweep: the one retry/quarantine path.

    A failure is charged with :meth:`fail`, which retries the cell after a
    backoff or quarantines it -- after ``retry.max_attempts`` attempts, or
    early once an ``error``/``timeout`` has struck it on
    ``quarantine_hosts`` distinct hosts (the cell is broken, not the
    fleet).  :meth:`requeue` hands a cell back without charging an attempt.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        retry: RetryPolicy,
        progress: Callable[[str], None],
    ):
        self.tasks = list(tasks)
        self.by_index = {task.index: task for task in self.tasks}
        self.retry = retry
        #: One host for local work, so early quarantine needs several agents.
        self.quarantine_hosts = 2
        self.progress = progress
        self.payloads: Dict[int, Any] = {}
        self.failures: Dict[int, SweepFailure] = {}
        self.stats: Dict[str, Any] = {"computed": 0}
        self.attempts: Dict[int, int] = {}
        self.pending = [_Cell(task, 1) for task in self.tasks]
        self.failed_hosts: Dict[int, Set[str]] = {}
        self._rng = random.Random(0x5EED)

    def resolved(self, index: int) -> bool:
        return index in self.payloads or index in self.failures

    @property
    def finished(self) -> bool:
        return len(self.payloads) + len(self.failures) >= len(self.tasks)

    def bump(self, key: str, amount: float = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def eligible(self, now: float) -> List[_Cell]:
        """Pending cells whose backoff has elapsed (resolved ones dropped)."""
        self.pending[:] = [cell for cell in self.pending if not self.resolved(cell.task.index)]
        return [cell for cell in self.pending if cell.eligible_at <= now]

    def take(self, cell: _Cell) -> None:
        """The cell was dispatched: one more attempt on the books."""
        self.pending.remove(cell)
        index = cell.task.index
        self.attempts[index] = self.attempts.get(index, 0) + 1

    def fail(
        self, cell: _Cell, kind: str, message: str, tb: str = "", host: Optional[str] = None
    ) -> None:
        index = cell.task.index
        if self.resolved(index):
            return  # already resolved (e.g. a stale report raced a retry)
        self.bump(kind)
        if host is not None and kind in ("error", "timeout"):
            self.failed_hosts.setdefault(index, set()).add(host)
        distinct = len(self.failed_hosts.get(index, ()))
        if kind in ("error", "timeout") and distinct >= self.quarantine_hosts:
            self.quarantine(cell, kind, f"{message} (failed on {distinct} distinct host(s))", tb)
        elif cell.attempt >= self.retry.max_attempts:
            self.quarantine(cell, kind, message, tb)
        else:
            delay = self.retry.delay(cell.attempt, self._rng)
            self.pending.append(_Cell(cell.task, cell.attempt + 1, time.monotonic() + delay))
            self.bump("retried")
            backoff = self.stats.get("backoff_seconds", 0.0) + delay
            self.stats["backoff_seconds"] = round(backoff, 6)
            self.progress(
                f"retrying {cell.task.label or index} in {delay:.2f}s "
                f"(attempt {cell.attempt + 1}/{self.retry.max_attempts}; {kind})"
            )

    def quarantine(self, cell: _Cell, kind: str, message: str, tb: str = "") -> None:
        """Give up on the cell: a structured failure row with its traceback."""
        index = cell.task.index
        self.failures[index] = SweepFailure(
            index=index,
            label=cell.task.label,
            kind=kind,
            message=message,
            traceback=tb,
            attempts=cell.attempt,
            quarantined=True,
        )
        self.bump("quarantined")
        label = cell.task.label or index
        self.progress(f"quarantined {label} after {cell.attempt} attempt(s): {kind}: {message}")

    def requeue(self, cell: _Cell) -> None:
        """Give a cell back without charging an attempt (its host failed, not it)."""
        if not self.resolved(cell.task.index):
            self.pending.append(_Cell(cell.task, cell.attempt, time.monotonic()))

    def succeed(self, index: int, payload: Any, detail: str) -> None:
        self.payloads[index] = payload
        self.stats["computed"] += 1
        done = len(self.payloads) + len(self.failures)
        self.progress(f"[{done}/{len(self.tasks)}] {self.by_index[index].label or index}: {detail}")

    def close_out(self, kind: str, message: str, quarantined: bool) -> None:
        """Resolve every open cell as a structured ``kind`` failure."""
        for task in self.tasks:
            if not self.resolved(task.index):
                self.failures[task.index] = SweepFailure(
                    index=task.index,
                    label=task.label,
                    kind=kind,
                    message=message,
                    quarantined=quarantined,
                )
                self.bump(kind)


# -- the scheduler -----------------------------------------------------------


@dataclass
class _Lease:
    cell: _Cell
    granted_at: float
    expires_at: float = math.inf
    started_at: Optional[float] = None


@dataclass
class _Host:
    """Somewhere cells run: the local worker pool, or one agent."""

    name: str
    slots: int = 1
    #: Appended to messages about cells on this host.
    where: str = ""
    written_off: bool = False
    leases: Dict[int, _Lease] = field(default_factory=dict)
    cells: int = 0
    #: start acks per cell index -- "how many times did this cell *run* here".
    runs: Dict[int, int] = field(default_factory=dict)
    #: Accepting leases (an agent only between its hello and its loss).
    ready: bool = True


class Scheduler:
    """The one dispatch / drain / health loop over the slots of some hosts.

    Subclasses supply the hosts and the slot-kind hooks: ``_maintain`` and
    ``_on_control`` (optional), ``_send_task(host, cell) -> bool``,
    ``_receive() -> [(host, message)]``, ``_accept(host, done_message) ->
    payload`` (raise to reject it), ``_cancel(host, index)`` and ``_close()``.
    Keyword arguments are shared by every subclass.
    ``run()`` returns ``(payloads, failures, stats, attempts)``: payloads is
    a dict ``task index -> encoded result`` for every cell that completed,
    failures maps indices of cells that did not, stats counts what happened
    (computed/retried/quarantined/timeouts/crashes/backoff seconds/...), and
    attempts maps ``task index -> dispatch count`` so retries that
    eventually succeeded are visible, not silent.
    """

    #: Whether a lost slot charges its cell an attempt (a dead local
    #: worker) or hands it back free (a lost agent: the host failed).
    charges_lost_cells = True
    #: A task timeout counts from the start ack; when set, a cell that never
    #: acked start also times out this long after dispatch plus the timeout
    #: (the spawn/import grace of a fresh local worker).
    prestart_grace: Optional[float] = None
    #: How long an interrupt waits for in-flight cells to ack.
    drain_timeout = 0.0
    #: A lease not acked within this is cancelled and reassigned.
    lease_timeout = math.inf

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        *,
        keys: Optional[Mapping[int, str]] = None,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        interrupt: Optional[Any] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.keys = dict(keys or {})
        self.cache = cache
        self.timeout = timeout
        self.interrupt = interrupt
        self.progress = progress or (lambda message: None)
        self.ledger = CellLedger(tasks, retry or RetryPolicy(), self.progress)
        self.hosts: List[_Host] = []

    def _interrupted(self) -> bool:
        return self.interrupt is not None and getattr(self.interrupt, "requested", False)

    def run(self):
        ledger = self.ledger
        try:
            self._loop()
        finally:
            self._close()
        if self._interrupted():
            ledger.close_out("cancelled", "sweep interrupted before this cell completed", False)
        return ledger.payloads, ledger.failures, ledger.stats, ledger.attempts

    def _loop(self) -> None:
        drain_until: Optional[float] = None
        while not self.ledger.finished:
            if self._interrupted():
                # Graceful drain: no new leases; collect in-flight acks briefly.
                drain_until = drain_until or time.monotonic() + self.drain_timeout
                if time.monotonic() >= drain_until or not any(h.leases for h in self.hosts):
                    return
            elif all(host.written_off for host in self.hosts) and not any(
                host.leases for host in self.hosts
            ):
                self.ledger.close_out("no-hosts", "every agent host is unreachable", True)
                return
            self._maintain(time.monotonic())
            self._check_leases(time.monotonic())
            if drain_until is None:
                self._dispatch(time.monotonic())
            for host, message in self._receive():
                self._handle(host, message)

    def _dispatch(self, now: float) -> None:
        ledger = self.ledger
        for cell in ledger.eligible(now):
            index = cell.task.index
            if any(index in host.leases for host in self.hosts):
                # Already leased (a retry raced a live lease); let the lease
                # play out -- its ack resolves the cell either way.
                ledger.pending.remove(cell)
                continue
            candidates = [
                host for host in self.hosts if host.ready and len(host.leases) < host.slots
            ]
            if not candidates:
                return
            failed_on = ledger.failed_hosts.get(index, set())
            fresh = [host for host in candidates if host.name not in failed_on]
            if not fresh and any(host.ready and host.name not in failed_on for host in self.hosts):
                # A live host this cell has not failed on is merely full:
                # wait for its slot rather than repeat the failure on a host
                # that already saw it (which would also defeat distinct-host
                # quarantine).
                continue
            host = min(fresh or candidates, key=lambda h: len(h.leases))
            if not self._send_task(host, cell):
                continue
            ledger.take(cell)
            granted = time.monotonic()  # after the send, which may have spawned a worker
            host.leases[index] = _Lease(cell, granted, granted + self.lease_timeout)

    def _handle(self, host: _Host, message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind not in ("start", "done", "error", "requeue"):
            self._on_control(host, message)
            return
        index = int(message["index"])
        if kind == "start":
            lease = host.leases.get(index)
            if lease is not None:
                lease.started_at = time.monotonic()
            host.runs[index] = host.runs.get(index, 0) + 1
            return
        lease = host.leases.pop(index, None)
        ledger = self.ledger
        if ledger.resolved(index):
            return  # stale ack from a superseded lease; first writer won
        if kind == "requeue":
            if lease is not None:
                ledger.requeue(lease.cell)
            return
        # A stale report (its lease withdrawn) still names its attempt.
        attempt = int(message.get("attempt", 1))
        cell = lease.cell if lease else _Cell(ledger.by_index[index], attempt)
        if kind == "error":
            reason = f"{message.get('exc_type')}: {message.get('message')}{host.where}"
            ledger.fail(cell, "error", reason, message.get("traceback", ""), host=host.name)
        else:
            try:
                payload = self._accept(host, message)
            except Exception as exc:
                # Corrupt on the wire or mis-cached on the agent: exactly a
                # torn cache entry -- a miss, retried like any failure.
                ledger.fail(cell, "bad-payload", f"{type(exc).__name__}: {exc}{host.where}")
            else:
                host.cells += 1
                if message.get("cached"):
                    ledger.bump("agent_cached")
                elapsed = message.get("elapsed", 0.0)
                origin = "agent cache" if message.get("cached") else f"{elapsed:.2f}s"
                ledger.succeed(index, payload, f"ok{host.where} ({origin})")
        self._settle(index)

    def _check_leases(self, now: float) -> None:
        for host in self.hosts:
            for index, lease in list(host.leases.items()):
                started = lease.started_at
                if started is None and self.prestart_grace is not None:
                    started = lease.granted_at + self.prestart_grace
                timed = started is not None and self.timeout is not None
                if timed and now - started > self.timeout:
                    kind, why = "timeout", f"cell exceeded the {self.timeout:.1f}s wall-clock limit"
                elif now > lease.expires_at:
                    kind, why = "lease-expired", f"lease expired after {self.lease_timeout:.1f}s"
                else:
                    continue
                self._charge(host, index, kind, f"{why}{host.where}")

    def _charge(self, host: _Host, index: int, kind: str, message: str) -> None:
        """Cancel the cell on this host and charge the attempt."""
        lease = host.leases.pop(index)
        self._cancel(host, index)
        self.ledger.fail(lease.cell, kind, message, host=host.name)
        self._settle(index)

    def _lost(self, host: _Host, index: int, kind: str, message: str) -> None:
        """The slot running this cell is gone: charge or requeue, by slot kind."""
        if index not in host.leases:
            return
        if self.charges_lost_cells:
            self._charge(host, index, kind, message)
        else:
            self.ledger.requeue(host.leases.pop(index).cell)

    def _settle(self, index: int) -> None:
        """Once a cell is resolved, withdraw its other leases."""
        if not self.ledger.resolved(index):
            return
        for host in self.hosts:
            lease = host.leases.pop(index, None)
            if lease is not None and lease.started_at is not None:
                self._cancel(host, index)

    # -- slot-kind hooks --

    def _maintain(self, now: float) -> None:
        """Host and slot liveness, before the lease deadlines are checked."""

    def _on_control(self, host: _Host, message: Dict[str, Any]) -> None:
        """Messages other than start/done/error/requeue."""


class ShardedExecutor(Scheduler):
    """Fan sweep tasks out over spawn-ed worker processes, fault-tolerantly.

    The scheduler over one local :class:`WorkerPool`, seen as a single
    host: distinct-host quarantine never fires, and a dead worker charges
    its cell.  ``run()`` returns ``(payloads, failures, stats, attempts)``.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        *,
        workers: Optional[int] = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        spawn_timeout: float = 60.0,
        start_ack_timeout: Optional[float] = None,
        worker_faults: Optional[Mapping[str, Any]] = None,
        **options: Any,
    ):
        super().__init__(tasks, **options)
        self.pool = WorkerPool(
            workers or min(8, (os.cpu_count() or 2) - 1 or 1),
            cache_root=str(self.cache.root) if self.cache is not None else None,
            heartbeat_interval=heartbeat_interval,
            stall_timeout=stall_timeout,
            spawn_timeout=spawn_timeout,
            start_ack_timeout=start_ack_timeout,
            worker_faults=worker_faults,
        )
        # No start ack yet: grant spawn/import grace on top of the task
        # timeout so fresh workers are not killed while importing, but a
        # wedged pre-start worker still dies.
        self.prestart_grace = self.pool.stall_timeout
        self.host = _Host(name="local", slots=self.pool.size)
        self.hosts = [self.host]

    def _maintain(self, now: float) -> None:
        for index, _attempt, kind, message in self.pool.check():
            self._lost(self.host, index, kind, message)

    def _send_task(self, host: _Host, cell: _Cell) -> bool:
        task = cell.task
        return self.pool.submit(
            task.index, cell.attempt, task.spec, self.keys.get(task.index), task.inject
        )

    def _receive(self) -> List[Tuple[_Host, Dict[str, Any]]]:
        transports = self.pool.transports()
        if not transports:
            time.sleep(TICK)
            return []
        ready = wait_readable(transports, timeout=TICK)
        return [(self.host, message) for message in self.pool.receive(ready)]

    def _accept(self, host: _Host, message: Dict[str, Any]) -> Any:
        return message["payload"]  # the worker cached it before reporting

    def _cancel(self, host: _Host, index: int) -> None:
        self.pool.cancel(index)

    def _close(self) -> None:
        self.pool.close()
