"""SocketWorkerBackend — multi-host execution over TCP sockets.

The coordinator side of the length-prefixed JSON protocol
(:mod:`repro.exp.protocol`): it binds a listening socket, admits N
workers (spawned locally as ``python -m repro.exp.worker`` subprocesses,
or started by hand on any hosts with ``repro worker --connect``), and
drains one sweep through the lease machinery:

* tasks are pre-sharded by the stable cell-key hash
  (:func:`~repro.exp.planner.plan_shards`); a worker is granted the
  next pending task of its shard first, and steals from the global
  queue when its shard is drained — the sweep finishes whatever
  happens to individual shards;
* grants are **credit-based pipelined**: each worker may hold up to a
  window of ``k`` outstanding leases (derived from the grid size, or
  forced with ``--pipeline N``), so the next task is already queued
  worker-side when the current one finishes — the static-window
  stop-and-wait shape the paper's Fig. 5 shows collapsing over WAN
  never forms.  A grant refills the window whenever a RESULT frees a
  credit;
* every grant is a :class:`~repro.exp.leases.Lease` renewed by worker
  HEARTBEATs — or, while RESULT traffic flows, by the
  ``holding`` lease-id lists piggybacked on those frames
  (:meth:`~repro.exp.leases.LeaseTable.renew_worker`), so a busy
  pipeline never pays for dedicated heartbeat frames.  A lease whose
  deadline passes, or whose worker's connection drops (SIGKILL,
  network cut), returns its task to the queue for **reassignment** —
  the PR-3 fresh-pool retry machinery generalised to hosts;
* the coordinator owns the content-addressed cell cache: before it
  spawns, accepts or leases anything it looks up every task under the
  sweep's :class:`~repro.exp.planner.RunContext`, yields each hit at
  once (``cached="remote"``) and leases only the misses; each payload
  a worker returns is saved exactly once, when its RESULT arrives.
  No cache query crosses the wire, and a fully warm sweep starts no
  worker at all.  Hits are counted per kind (``remote`` here,
  ``local`` for a worker's own ``--cache-dir``) in :mod:`repro.obs`;
* malformed frames fail closed: the offending connection is dropped on
  the spot (its leases reassigned), the run continues, and every
  socket carries a timeout so a wedged peer becomes an error, not a
  hang.  Large frame bodies travel zlib-compressed under the same
  ``MAX_FRAME``/fail-closed rules (see :mod:`repro.exp.protocol`).

Wire-efficiency accounting: ``round_trips`` counts the exchanges where
the coordinator was on a worker's critical path — a grant to a worker
that had drained its window and sat idle waiting (``grant_wait``).  A
window of 1 pays ~1 per task; the pipelined window hides nearly all
of them, which is what ``tools/bench_sched.py`` gates on.

Determinism: none of this machinery touches result *values*.  Tasks
are idempotent pure functions of (experiment, cell, context), so
whichever worker finally computes a row — after any number of
reassignments, in any completion order — yields the same bytes, and
the scheduler reassembles them in request order.
"""

from __future__ import annotations

import os
import selectors
import socket as socketlib
import subprocess
import sys
import time
from typing import (Collection, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..cache import CellCache
from ..chaos import ChaosPlan, ChaosProxy, maybe_crash
from ..leases import LeaseTable
from ..planner import RunContext, Task, plan_shards, task_key
from ..protocol import (COMPRESS_MAGIC, MAX_FRAME, PROTOCOL_VERSION,
                        ProtocolError, VersionMismatchError, check_versions,
                        decode_body, encode_frame, package_version)
from ..worker import CONNECT_BUDGET_ENV
from .base import ExecutionBackend, TaskOutcome

__all__ = ["SocketWorkerBackend", "RemoteTaskError", "NoWorkersError",
           "parse_address"]

#: Environment knob bounding every socket operation (seconds).
IO_TIMEOUT_ENV = "REPRO_EXP_IO_TIMEOUT_S"
_DEFAULT_IO_TIMEOUT_S = 60.0
_LEN_BYTES = 4

#: Ceiling on the credit window when derived from the grid size.
_MAX_WINDOW = 16


class RemoteTaskError(RuntimeError):
    """A task failed on a remote worker after its full retry budget."""


class NoWorkersError(RuntimeError):
    """No worker completed a HELLO within the connect budget.

    Raised before any task is leased — the only outcomes already
    yielded are coordinator cache hits — so the scheduler can degrade
    gracefully: the local pool finishes the remaining tasks without
    risking double execution.
    """


def parse_address(address: Union[str, Tuple[str, int], None]
                  ) -> Tuple[str, int]:
    """``"host:port"`` / ``(host, port)`` / ``None`` → a bind tuple
    (``None`` means loopback on an ephemeral port)."""
    if address is None:
        return ("127.0.0.1", 0)
    if isinstance(address, tuple):
        host, port = address
        return (host, int(port))
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"listen/connect address must be HOST:PORT, "
                         f"got {address!r}")
    return (host or "127.0.0.1", int(port))


def _io_timeout_s() -> float:
    try:
        value = float(os.environ.get(IO_TIMEOUT_ENV, ""))
        return value if value > 0 else _DEFAULT_IO_TIMEOUT_S
    except ValueError:
        return _DEFAULT_IO_TIMEOUT_S


def _now() -> float:
    """Host-side lease/heartbeat clock (never feeds a result)."""
    return time.monotonic()  # repro-lint: disable=DET101 -- host-side lease clock only


class _Conn:
    """Per-worker connection state on the coordinator."""

    __slots__ = ("sock", "buffer", "worker", "slot", "outstanding",
                 "done", "helloed", "suspect")

    def __init__(self, sock: socketlib.socket):
        self.sock = sock
        self.buffer = b""
        self.worker: Optional[str] = None
        self.slot: Optional[int] = None
        #: leases currently in flight to this worker (credit window use)
        self.outstanding = 0
        #: RESULT frames received — a grant to a worker with ``done > 0``
        #: and an empty pipeline means it sat idle waiting on us
        self.done = 0
        self.helloed = False
        #: leases of ours that expired (a silent or deaf worker);
        #: healthy peers are granted requeued work first
        self.suspect = 0


class SocketWorkerBackend(ExecutionBackend):
    """Coordinate ``workers`` socket workers draining one task set.

    ``listen=None`` (the default) binds loopback on an ephemeral port
    and **spawns** the workers as local subprocesses; with an explicit
    ``listen`` address nothing is spawned — start workers yourself on
    any hosts with ``repro worker --connect HOST:PORT``.  Pass
    ``spawn`` explicitly to override either default.
    """

    name = "socket"

    def __init__(self, workers: int = 1,
                 listen: Union[str, Tuple[str, int], None] = None,
                 spawn: Optional[bool] = None,
                 cache_dir: Union[str, None] = None,
                 lease_timeout_s: float = 30.0,
                 connect_grace_s: Optional[float] = None,
                 chaos: Union[str, ChaosPlan, None] = None,
                 connect_budget_s: Optional[float] = None,
                 pipeline: Optional[int] = None):
        super().__init__()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pipeline is not None and pipeline < 1:
            raise ValueError(f"pipeline must be >= 1, got {pipeline}")
        self.workers = workers
        #: forced credit window (``--pipeline N``); None derives it
        #: from the grid size per run
        self.pipeline = pipeline
        self.spawn = (listen is None) if spawn is None else spawn
        self.lease_timeout_s = lease_timeout_s
        self.io_timeout_s = _io_timeout_s()
        self.connect_grace_s = (self.io_timeout_s if connect_grace_s is None
                                else connect_grace_s)
        self.connect_budget_s = (self.connect_grace_s
                                 if connect_budget_s is None
                                 else connect_budget_s)
        self.cell_cache = CellCache(cache_dir) if cache_dir else None
        #: spawned worker processes, keyed by the ``--worker-id`` their
        #: HELLO carries
        self._procs: Dict[str, subprocess.Popen] = {}
        self._server = socketlib.socket(socketlib.AF_INET,
                                        socketlib.SOCK_STREAM)
        self._server.setsockopt(socketlib.SOL_SOCKET,
                                socketlib.SO_REUSEADDR, 1)
        self._server.bind(parse_address(listen))
        self._server.listen(max(8, workers))
        self._server.settimeout(self.io_timeout_s)
        #: The bound ``(host, port)`` of the coordinator itself.
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self.chaos_plan = (ChaosPlan.parse(chaos)
                           if isinstance(chaos, str) else chaos)
        #: The chaos proxy, when a plan is armed — frames between
        #: workers and coordinator pass through its injectors.
        self.proxy: Optional[ChaosProxy] = None
        if self.chaos_plan is not None and not self.chaos_plan.is_noop:
            self.proxy = ChaosProxy(self.chaos_plan, self.address,
                                    io_timeout_s=self.io_timeout_s)

    @property
    def public_address(self) -> Tuple[str, int]:
        """Where workers should connect: the chaos proxy when armed,
        the coordinator itself otherwise."""
        return self.proxy.address if self.proxy is not None else self.address

    # -- protocol surface ----------------------------------------------
    def run_tasks(self, tasks: Sequence[Task],
                  ctx: RunContext) -> Iterator[TaskOutcome]:
        keys: Dict[Task, str] = {}     # the misses, in request order
        if self.cell_cache is not None:
            for task in tasks:
                key = self.cell_cache.key_for(task, ctx)
                payload = self.cell_cache.load(key)
                if payload is None:
                    keys[task] = key
                else:
                    self._count_cache_hit("remote")
                    yield TaskOutcome(task, payload=payload,
                                      cached="remote")
            tasks = list(keys)
        if not tasks:       # nothing to do: don't spawn or accept anyone
            return
        shards = plan_shards(tasks, self.workers)
        table = LeaseTable(tasks, self.lease_timeout_s,
                           max_failures=ctx.retries)
        lease_tasks: Dict[int, Task] = {}
        errors: Dict[Task, str] = {}
        heartbeat_s = max(self.lease_timeout_s / 3.0, 0.05)
        window = self._window(len(tasks))
        welcome_base = {"type": "WELCOME", "proto": PROTOCOL_VERSION,
                        "version": package_version(),
                        "workers": self.workers,
                        "heartbeat_s": heartbeat_s,
                        "pipeline": window,
                        "ctx": ctx.to_wire()}

        sel = selectors.DefaultSelector()
        self._server.setblocking(False)
        sel.register(self._server, selectors.EVENT_READ, None)
        conns: List[_Conn] = []
        used_slots: set = set()
        if self.spawn:
            self._spawn_workers(self.workers)
        started = _now()
        last_progress = started
        any_helloed = False
        tick = min(0.25, max(self.lease_timeout_s / 4.0, 0.02))

        def grant(conn: _Conn) -> None:
            """Refill ``conn``'s credit window from the pending queue."""
            if not conn.helloed:
                return
            was_idle = conn.outstanding == 0
            granted = 0
            while conn.outstanding < window:
                prefer = (shards[conn.slot] if conn.slot is not None
                          else None)
                lease = table.issue(conn.worker, _now(),
                                    prefer_shard=prefer)
                if lease is None:
                    break
                lease_tasks[lease.lease_id] = lease.task
                exp_id, index = lease.task
                self._journal_event({"type": "lease",
                                     "task": task_key(lease.task),
                                     "worker": str(conn.worker),
                                     "lease": lease.lease_id,
                                     "attempt": lease.attempt})
                maybe_crash("backend.lease")
                if self._send(conn, {"type": "LEASE",
                                     "lease": lease.lease_id,
                                     "exp_id": exp_id, "index": index,
                                     "attempt": lease.attempt}):
                    if conn.outstanding >= 1:
                        self._count("leases_pipelined")
                    conn.outstanding += 1
                    granted += 1
                    self._count("leases_issued")
                else:
                    drop(conn, "send failed")
                    return
            if was_idle and granted and conn.done:
                # the worker had drained its whole window and sat
                # waiting on this grant — one coordinator round trip
                # the pipelining failed to hide
                self._count("round_trips", kind="grant_wait")

        def drop(conn: _Conn, why: str) -> None:
            if conn not in conns:
                return
            conns.remove(conn)
            if conn.slot is not None:
                used_slots.discard(conn.slot)
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
            if conn.worker is not None:
                released = table.release_worker(conn.worker)
                if released:
                    self._count("reassignments", len(released),
                                cause="death")

        try:
            while not table.settled():
                events = sel.select(timeout=tick)
                now = _now()
                for key, _mask in events:
                    if key.data is None:                    # server socket
                        self._accept(sel, conns)
                        last_progress = now
                        continue
                    conn: _Conn = key.data
                    progressed = False
                    try:
                        for message in self._pump(conn):
                            progressed = True
                            outcome = self._handle(
                                message, conn, table, lease_tasks,
                                errors, used_slots, welcome_base, grant)
                            if outcome is not None:
                                if outcome.task in keys:
                                    self._publish(keys[outcome.task],
                                                  outcome.payload)
                                yield outcome
                    except VersionMismatchError:
                        # already counted; the BYE carried the reason
                        drop(conn, "version mismatch")
                    except ProtocolError:
                        # fail closed: garbage ends the connection
                        self._count("protocol_errors")
                        drop(conn, "protocol error")
                    except ConnectionError:
                        drop(conn, "connection reset")
                    except _Eof:
                        drop(conn, "eof")
                        progressed = True
                    if progressed:
                        last_progress = now
                expired = table.expire(now)
                if expired:
                    self._count("reassignments", len(expired),
                                cause="expiry")
                    last_progress = now
                    # the holder may still be connected but never saw
                    # (or lost) the LEASE frame — its credits come back,
                    # but healthy peers get requeued work first
                    lost: Dict[str, int] = {}
                    for lease in expired:
                        lost[lease.worker] = lost.get(lease.worker, 0) + 1
                    for conn in conns:
                        if conn.worker in lost:
                            conn.outstanding = max(
                                0, conn.outstanding - lost[conn.worker])
                            conn.suspect += 1
                # idle workers pick up requeued / remaining work
                # (least-suspect first, so a silent lease-holder cannot
                # keep soaking up the task it just lost)
                for conn in sorted(list(conns),
                                   key=lambda c: c.suspect):
                    grant(conn)
                if self.spawn and not table.settled():
                    self._respawn_if_needed(conns)
                if not any_helloed:
                    any_helloed = any(c.helloed for c in conns)
                    if (not any_helloed
                            and now - started > self.connect_budget_s):
                        raise NoWorkersError(
                            f"no worker completed a handshake within "
                            f"{self.connect_budget_s:g}s (listening on "
                            f"{self.address[0]}:{self.address[1]}, "
                            f"{len(conns)} connection(s) open)")
                if now - last_progress > max(self.connect_grace_s,
                                             self.lease_timeout_s * 2):
                    raise RuntimeError(
                        f"socket backend stalled: {len(conns)} worker(s) "
                        f"connected, {len(table.pending_tasks())} task(s) "
                        f"pending with no progress for "
                        f"{now - last_progress:.0f}s")
            for task in table.exhausted_tasks():
                yield TaskOutcome(
                    task, error=RemoteTaskError(
                        errors.get(task, "task failed on remote worker")),
                    attempts=ctx.retries + 1)
        finally:
            said_bye = set()
            for conn in list(conns):
                if conn.helloed and self._send(conn, {"type": "BYE"}):
                    said_bye.add(conn.worker)
                drop(conn, "done")
            sel.close()
            self._reap_workers(said_bye)

    def plan(self, tasks: Sequence[Task], ctx: RunContext) -> Dict:
        plan = {"backend": self.name, "workers": self.workers,
                "n_tasks": len(tasks),
                "listen": f"{self.address[0]}:{self.address[1]}",
                "spawn": self.spawn,
                "pipeline": self._window(len(tasks)),
                "shards": self._shard_plan(tasks, ctx, self.workers)}
        if self.chaos_plan is not None:
            plan["chaos"] = self.chaos_plan.to_spec()
        return plan

    def _window(self, n_tasks: int) -> int:
        """The credit window for a run of ``n_tasks``.

        Deterministic in the grid shape: half the per-worker task
        share, clamped to [1, 16].  Small grids (fewer than two tasks
        per window slot) degrade to the stop-and-wait window of 1 —
        pipelining buys nothing when every worker gets a handful of
        long tasks, and the conformance wall's failure scenarios keep
        their single-lease timing.  ``pipeline`` (``--pipeline N``)
        overrides unconditionally.
        """
        if self.pipeline is not None:
            return self.pipeline
        return max(1, min(_MAX_WINDOW, n_tasks // (2 * self.workers)))

    def close(self) -> None:
        if self.proxy is not None:
            self.proxy.close()
            self.proxy = None
        try:
            self._server.close()
        except OSError:
            pass
        self._reap_workers()

    # -- coordinator internals -----------------------------------------
    def _accept(self, sel: selectors.DefaultSelector,
                conns: List[_Conn]) -> None:
        try:
            sock, _addr = self._server.accept()
        except (BlockingIOError, OSError):
            return
        sock.settimeout(self.io_timeout_s)
        try:
            # Pipelined grants stream small frames back-to-back; Nagle
            # plus delayed ACKs would stall every batch ~40ms.
            sock.setsockopt(socketlib.IPPROTO_TCP,
                            socketlib.TCP_NODELAY, 1)
        except OSError:
            pass        # e.g. AF_UNIX in tests: no TCP layer to tune
        conn = _Conn(sock)
        conns.append(conn)
        sel.register(sock, selectors.EVENT_READ, conn)

    def _pump(self, conn: _Conn) -> Iterator[Dict]:
        """Drain readable bytes into frames (incremental, fail-closed)."""
        try:
            chunk = conn.sock.recv(65536)
        except socketlib.timeout:
            return
        if not chunk:
            if conn.buffer:
                raise ProtocolError("connection closed mid-frame")
            raise _Eof()
        conn.buffer += chunk
        while len(conn.buffer) >= _LEN_BYTES:
            length = int.from_bytes(conn.buffer[:_LEN_BYTES], "big")
            if length == 0 or length > MAX_FRAME:
                raise ProtocolError(
                    f"frame length {length} outside (0, {MAX_FRAME}]")
            if len(conn.buffer) < _LEN_BYTES + length:
                return
            body = conn.buffer[_LEN_BYTES:_LEN_BYTES + length]
            conn.buffer = conn.buffer[_LEN_BYTES + length:]
            if body[:1] == COMPRESS_MAGIC:
                self._count("frames_compressed")
            yield decode_body(body)

    def _handle(self, message: Dict, conn: _Conn, table: LeaseTable,
                lease_tasks: Dict[int, Task], errors: Dict[Task, str],
                used_slots: set, welcome_base: Dict,
                grant) -> Optional[TaskOutcome]:
        mtype = message["type"]
        if mtype == "HELLO":
            try:
                check_versions(message, "worker")
            except VersionMismatchError as exc:
                # fail closed, but tell the peer *why* before dropping:
                # a mixed-version worker must exit, not reconnect
                self._count("version_mismatches")
                self._send(conn, {"type": "BYE", "error": str(exc)})
                raise
            conn.worker = str(message.get("worker") or
                              f"worker-{id(conn.sock) & 0xffff}")
            free = [s for s in range(self.workers) if s not in used_slots]
            conn.slot = free[0] if free else None
            if conn.slot is not None:
                used_slots.add(conn.slot)
            conn.helloed = True
            self._count("workers_joined")
            welcome = dict(welcome_base)
            welcome["slot"] = conn.slot
            if self._send(conn, welcome):
                grant(conn)
            return None
        if not conn.helloed:
            raise ProtocolError(f"{mtype} before HELLO")
        if mtype == "HEARTBEAT":
            now = _now()
            renewed = 0
            if "holding" in message:
                renewed = self._renew_holding(message, conn, table)
            if message.get("lease") is not None:
                if table.heartbeat(_lease_id_of(message), now):
                    renewed += 1
            if renewed:
                self._count("heartbeats")
            else:
                self._count("stale_heartbeats")
            return None
        if mtype == "RESULT":
            return self._handle_result(message, conn, table, lease_tasks,
                                       errors, grant)
        if mtype == "BYE":
            raise _Eof()
        raise ProtocolError(f"unexpected {mtype} from a worker")

    def _renew_holding(self, message: Dict, conn: _Conn,
                       table: LeaseTable) -> int:
        """Piggybacked liveness: renew the leases a worker says it holds.

        Worker frames carry ``"holding"`` — every lease id queued or
        computing on that worker — so result/cache traffic keeps the
        whole pipeline alive without dedicated HEARTBEAT frames.  Only
        the listed leases are renewed (and only this worker's): a LEASE
        frame lost on the wire is held by nobody and must still expire.
        """
        holding = message.get("holding")
        if holding is None:
            return 0
        if not isinstance(holding, list):
            raise ProtocolError("holding must be a list of lease ids")
        try:
            ids = [int(h) for h in holding]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed holding list: {exc}") from exc
        return table.renew_worker(str(conn.worker), _now(), holding=ids)

    def _handle_result(self, message: Dict, conn: _Conn, table: LeaseTable,
                       lease_tasks: Dict[int, Task],
                       errors: Dict[Task, str],
                       grant) -> Optional[TaskOutcome]:
        conn.outstanding = max(0, conn.outstanding - 1)
        conn.done += 1
        self._renew_holding(message, conn, table)
        lease_id = _lease_id_of(message)
        task = lease_tasks.get(lease_id)
        if task is None:
            raise ProtocolError(f"RESULT for unknown lease {lease_id}")
        error = message.get("error")
        if error is not None:
            errors[task] = str(error)
            self._count("task_errors")
            table.fail(lease_id, task)
            grant(conn)
            return None
        verdict = table.complete(lease_id, task)
        grant(conn)
        if verdict == "duplicate":
            self._count("duplicate_results")
            return None
        if verdict == "late":
            self._count("late_results")
        # workers only ever report their own --cache-dir hits; remote
        # hits are the coordinator's, counted before any lease
        cached = "local" if message.get("cached") == "local" else None
        if cached:
            self._count_cache_hit("local")
        self._count("results")
        return TaskOutcome(task, payload=message.get("payload"),
                           snapshot=message.get("snapshot"),
                           cached=cached)

    def _publish(self, key: str, payload) -> None:
        """Save one worker-returned payload under its coordinator-side key."""
        try:
            self.cell_cache.save(key, payload)
            self._count("cache_publishes")
        except OSError:
            pass        # disk trouble: the cache is advisory

    def _send(self, conn: _Conn, message: Dict) -> bool:
        try:
            frame, compressed = encode_frame(message)
            conn.sock.setblocking(True)
            conn.sock.settimeout(self.io_timeout_s)
            conn.sock.sendall(frame)
            if compressed:
                self._count("frames_compressed")
            return True
        except (OSError, ProtocolError):
            return False

    # -- spawned-worker supervision ------------------------------------
    def _spawn_workers(self, n: int) -> None:
        import repro
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        parts = [src_root] + [p for p in
                              env.get("PYTHONPATH", "").split(os.pathsep)
                              if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        # spawned workers inherit our connect budget so orphans (after
        # a coordinator SIGKILL) exit promptly instead of lingering
        env.setdefault(CONNECT_BUDGET_ENV, f"{self.connect_budget_s:g}")
        host, port = self.public_address
        for _ in range(n):
            worker_id = f"local-{os.getpid()}-{len(self._procs)}"
            self._procs[worker_id] = subprocess.Popen(
                [sys.executable, "-m", "repro.exp.worker",
                 "--connect", f"{host}:{port}",
                 "--worker-id", worker_id],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            self._count("workers_spawned")

    def _respawn_if_needed(self, conns: List[_Conn]) -> None:
        alive = [p for p in self._procs.values() if p.poll() is None]
        budget = self.workers + 2
        if not alive and not conns and \
                self.stats.get("workers_spawned", 0) < budget:
            self._spawn_workers(1)

    def _reap_workers(self, said_bye: Collection[str] = ()) -> None:
        """Wait for spawned workers that got our BYE; kill the rest.

        A worker that never completed HELLO (or lost its connection)
        holds no lease and will never see a BYE, so waiting on it only
        stalls the end of the sweep.
        """
        for worker_id, proc in self._procs.items():
            if proc.poll() is None:
                if worker_id not in said_bye:
                    proc.kill()
                else:
                    try:
                        proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        proc.kill()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        self._procs = {}

    #: pids of spawned workers (chaos tests SIGKILL these).
    @property
    def worker_pids(self) -> List[int]:
        # snapshot first: chaos tests read this from another thread
        procs = list(self._procs.values())
        return [p.pid for p in procs if p.poll() is None]


def _lease_id_of(message: Dict) -> int:
    """The frame's lease id, failing closed on non-integer garbage."""
    try:
        return int(message.get("lease", -1))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed lease id: {exc}") from exc


class _Eof(Exception):
    """Internal: the peer closed cleanly at a frame boundary."""
