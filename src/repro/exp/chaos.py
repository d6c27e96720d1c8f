"""Deterministic, seeded chaos injection for the distributed harness.

:mod:`repro.faults` (PR 3) breaks the *simulated* wire; this module
breaks the *real* one — the length-prefixed JSON protocol between the
socket coordinator and its workers — so the lease/reassignment/cache
machinery can be proven correct under systematic transport hostility,
not just point-wise kill tests.

A :class:`ChaosPlan` parses from (and round-trips to) a compact spec
string in the :class:`~repro.faults.FaultPlan` grammar style:

``drop=P``
    Per-frame drop probability (the frame silently vanishes).
``dup=P``
    Per-frame duplication probability (the frame is delivered twice).
``reorder=P``
    Per-frame hold-back probability: the frame is delayed until after
    the *next* frame of its direction (a one-slot swap), released at
    connection end otherwise.
``corrupt=P``
    Per-frame corruption probability.  Corruption is deterministic and
    deterministically *detectable*: the first body byte is XORed with
    ``0xFF``, which can never be valid UTF-8 JSON — the receiver's
    fail-closed parser must raise, never mis-parse.
``reset@N``
    Hard connection reset (RST, not FIN) when the worker's ``N``-th
    worker→coordinator frame arrives at the proxy.  Repeatable.
``partition@N:M``
    Half-open partition: worker→coordinator frames ``N .. N+M-1`` are
    blackholed while coordinator→worker traffic still flows — the
    worker looks frozen (heartbeats lost) yet keeps receiving.
``freeze@N:S``
    The worker→coordinator pipe stalls for ``S`` seconds before frame
    ``N`` is forwarded (a frozen / GC-paused worker).  Repeatable.
``hbdelay=S``
    Every HEARTBEAT frame is delayed by ``S`` seconds.
``seed=N``
    Master seed for every probabilistic decision (default 0).

Tokens are comma-separated: ``"drop=0.1,dup=0.05,reset@7,seed=3"``.

Determinism contract
--------------------
Every probabilistic decision is drawn from a named
:class:`~repro.sim.rng.RngRegistry` stream keyed by ``(seed,
connection index, direction)``, and :class:`FrameInjector` draws **all
four** probabilities for **every** frame whether or not the earlier
decision already consumed the frame — so the decision for frame *k*
depends only on ``(seed, connection, direction, k)``, never on what
happened to frames before it.  Identical seed + identical frame
schedule ⇒ identical event sequence, which ``tests/test_exp_chaos.py``
pins.  Frame 0 of each direction (HELLO / WELCOME) is exempt from the
probabilistic faults so a connection can always *join*; resets,
partitions and freezes still exercise the handshake paths via worker
reconnect.

None of this machinery can change result *bytes*: it perturbs
delivery, and the lease layer's at-least-once reassignment plus the
scheduler's request-order assembly make delivery invisible — a chaos
run either completes byte-identical to a serial run or fails closed
with a typed error.  ``--chaos`` is therefore **not** part of any
cache key.

Crash points
------------
:func:`maybe_crash` is the coordinator-side SIGKILL hook: set
``REPRO_EXP_CRASH_POINT=<point>[:N]`` and the process kills itself
(``SIGKILL``, no cleanup, exactly like a power cut) the ``N``-th time
that named point is reached.  The journal/resume wall SIGKILLs the
coordinator at ``journal.plan``, ``backend.lease``, ``journal.result``
and ``scheduler.finalize`` and proves ``--resume`` completes the run
byte-identically.
"""

from __future__ import annotations

import os
import signal
import socket as socketlib
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.rng import RngRegistry
from .protocol import MAX_FRAME, decode_body

__all__ = ["ChaosError", "ChaosPlan", "FrameInjector", "ResetInjected",
           "ChaosProxy", "CRASH_POINT_ENV", "maybe_crash",
           "reset_crash_counts"]

_LEN_BYTES = 4

#: ``point[:N]`` — SIGKILL this process the N-th time ``point`` is hit.
CRASH_POINT_ENV = "REPRO_EXP_CRASH_POINT"

#: The named protocol points :func:`maybe_crash` understands.
CRASH_POINTS = ("journal.plan", "backend.lease", "journal.result",
                "scheduler.finalize")

_crash_hits: Dict[str, int] = {}


def maybe_crash(point: str) -> None:
    """SIGKILL this process if ``REPRO_EXP_CRASH_POINT`` names ``point``.

    The spec is ``point`` or ``point:N`` (die on the N-th hit, default
    the first).  SIGKILL is deliberate: no atexit, no finally blocks,
    no flushes — exactly the failure ``--resume`` must survive.
    """
    spec = os.environ.get(CRASH_POINT_ENV)
    if not spec:
        return
    name, _, nth = spec.partition(":")
    if name != point:
        return
    _crash_hits[point] = _crash_hits.get(point, 0) + 1
    try:
        target = int(nth) if nth else 1
    except ValueError:
        target = 1
    if _crash_hits[point] >= target:
        os.kill(os.getpid(), signal.SIGKILL)


def reset_crash_counts() -> None:
    """Forget crash-point hit counts (test isolation)."""
    _crash_hits.clear()


class ChaosError(ValueError):
    """A chaos spec that cannot be parsed or applied."""


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ChaosError(f"{name} must be in [0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class ChaosPlan:
    """One immutable description of everything injected into the wire."""

    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    resets: Tuple[int, ...] = field(default_factory=tuple)
    partitions: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)
    freezes: Tuple[Tuple[int, float], ...] = field(default_factory=tuple)
    hb_delay_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_prob("drop", self.drop)
        _check_prob("dup", self.dup)
        _check_prob("reorder", self.reorder)
        _check_prob("corrupt", self.corrupt)
        for at in self.resets:
            if at < 0:
                raise ChaosError(f"reset frame must be >= 0, got {at!r}")
        for start, count in self.partitions:
            if start < 0 or count <= 0:
                raise ChaosError(f"partition@{start}:{count} needs start "
                                 f">= 0 and length > 0")
        for at, seconds in self.freezes:
            if at < 0 or seconds <= 0:
                raise ChaosError(f"freeze@{at}:{seconds} needs frame >= 0 "
                                 f"and seconds > 0")
        if self.hb_delay_s < 0:
            raise ChaosError(f"hbdelay must be >= 0, got {self.hb_delay_s!r}")

    @property
    def is_noop(self) -> bool:
        return not (self.drop or self.dup or self.reorder or self.corrupt
                    or self.resets or self.partitions or self.freezes
                    or self.hb_delay_s)

    # -- spec grammar ---------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse a comma-separated chaos spec (see the module doc)."""
        kwargs: Dict = {"resets": [], "partitions": [], "freezes": []}
        for token in filter(None, (t.strip() for t in spec.split(","))):
            try:
                if token.startswith("reset@"):
                    kwargs["resets"].append(int(token[len("reset@"):]))
                elif token.startswith("partition@"):
                    start, _, count = token[len("partition@"):].partition(":")
                    kwargs["partitions"].append((int(start), int(count)))
                elif token.startswith("freeze@"):
                    at, _, seconds = token[len("freeze@"):].partition(":")
                    kwargs["freezes"].append((int(at), float(seconds)))
                elif "=" in token:
                    key, _, value = token.partition("=")
                    if key in ("drop", "dup", "reorder", "corrupt"):
                        kwargs[key] = float(value)
                    elif key == "hbdelay":
                        kwargs["hb_delay_s"] = float(value)
                    elif key == "seed":
                        kwargs["seed"] = int(value)
                    else:
                        raise ChaosError(f"unknown chaos token {token!r}")
                else:
                    raise ChaosError(f"unknown chaos token {token!r}")
            except (TypeError, ValueError) as exc:
                if isinstance(exc, ChaosError):
                    raise
                raise ChaosError(f"bad chaos token {token!r}: {exc}") from exc
        kwargs["resets"] = tuple(kwargs["resets"])
        kwargs["partitions"] = tuple(kwargs["partitions"])
        kwargs["freezes"] = tuple(kwargs["freezes"])
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The canonical spec string (``parse(to_spec())`` round-trips)."""
        parts: List[str] = []
        for key in ("drop", "dup", "reorder", "corrupt"):
            value = getattr(self, key)
            if value:
                parts.append(f"{key}={value:g}")
        parts.extend(f"reset@{at}" for at in self.resets)
        parts.extend(f"partition@{start}:{count}"
                     for start, count in self.partitions)
        parts.extend(f"freeze@{at}:{seconds:g}"
                     for at, seconds in self.freezes)
        if self.hb_delay_s:
            parts.append(f"hbdelay={self.hb_delay_s:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


class ResetInjected(Exception):
    """Internal: the plan calls for a hard connection reset here."""


class FrameInjector:
    """The per-(connection, direction) fault decision function.

    Pure in ``(plan.seed, conn_index, direction, frame number)``:
    :meth:`feed` draws every probability for every frame regardless of
    earlier decisions, so the stream never skews and two runs with the
    same frame schedule make identical decisions.  Directions are
    ``"w2c"`` (worker→coordinator — where resets, partitions, freezes
    and heartbeat delays apply) and ``"c2w"``.
    """

    __slots__ = ("plan", "conn_index", "direction", "_rng", "_frame_no",
                 "_held", "_record")

    def __init__(self, plan: ChaosPlan, conn_index: int, direction: str,
                 record: Optional[Callable] = None):
        self.plan = plan
        self.conn_index = conn_index
        self.direction = direction
        self._rng = RngRegistry(master_seed=plan.seed).stream(
            f"chaos:conn{conn_index}:{direction}")
        self._frame_no = 0
        self._held: Optional[bytes] = None
        self._record = record or (lambda *event: None)

    def _event(self, frame_no: int, mtype: Optional[str],
               action: str) -> None:
        self._record(self.conn_index, self.direction, frame_no,
                     mtype or "?", action)

    def feed(self, frame: bytes,
             mtype: Optional[str]) -> Tuple[float, List[bytes]]:
        """Decide the fate of one length-prefixed frame.

        Returns ``(pre_delay_s, frames_to_forward)``; raises
        :class:`ResetInjected` when the plan calls for a hard reset.
        """
        no = self._frame_no
        self._frame_no += 1
        # All four draws happen unconditionally so the decision for
        # frame k is a pure function of (seed, conn, direction, k).
        r_drop = self._rng.random()
        r_corrupt = self._rng.random()
        r_dup = self._rng.random()
        r_reorder = self._rng.random()
        w2c = self.direction == "w2c"

        if w2c and no in self.plan.resets:
            self._event(no, mtype, "reset")
            raise ResetInjected()

        delay = 0.0
        if w2c:
            for at, seconds in self.plan.freezes:
                if at == no:
                    delay += seconds
                    self._event(no, mtype, "freeze")
            if mtype == "HEARTBEAT" and self.plan.hb_delay_s:
                delay += self.plan.hb_delay_s
                self._event(no, mtype, "hb_delay")
            if any(start <= no < start + count
                   for start, count in self.plan.partitions):
                self._event(no, mtype, "partition_drop")
                return (delay, self._release_held([]))

        frames: List[bytes] = [frame]
        if no > 0:      # frame 0 = HELLO/WELCOME: joining must be possible
            if r_drop < self.plan.drop:
                self._event(no, mtype, "drop")
                return (delay, self._release_held([]))
            if r_corrupt < self.plan.corrupt:
                frames = [self._corrupt(frame)]
                self._event(no, mtype, "corrupt")
            if r_dup < self.plan.dup:
                frames = frames + frames
                self._event(no, mtype, "dup")
            if r_reorder < self.plan.reorder and self._held is None:
                self._held = frames.pop(0)
                self._event(no, mtype, "reorder_hold")
        return (delay, self._release_held(frames))

    def _release_held(self, frames: List[bytes]) -> List[bytes]:
        """A previously held frame lands *after* the current one — but
        only when something is actually forwarded this round (otherwise
        nothing would separate them and the hold would be a no-op)."""
        if frames and self._held is not None:
            frames = frames + [self._held]
            self._held = None
            self._event(self._frame_no - 1, None, "reorder_release")
        return frames

    def flush(self) -> List[bytes]:
        """Whatever is still held at connection end (never lose it)."""
        if self._held is None:
            return []
        held, self._held = self._held, None
        self._event(self._frame_no, None, "reorder_flush")
        return [held]

    @staticmethod
    def _corrupt(frame: bytes) -> bytes:
        """Deterministically *detectable* corruption: XOR the first body
        byte with 0xFF.  A JSON object body starts with ``{`` (0x7B), so
        the result (0x84) is an invalid UTF-8 start byte — the receiving
        fail-closed parser must raise :class:`ProtocolError`, and can
        never mis-parse the frame into different results."""
        if len(frame) <= _LEN_BYTES:
            return frame
        body_first = frame[_LEN_BYTES] ^ 0xFF
        return frame[:_LEN_BYTES] + bytes([body_first]) + frame[_LEN_BYTES + 1:]


class ChaosProxy:
    """A loopback TCP proxy injecting a :class:`ChaosPlan` per frame.

    Sits between the coordinator's listening socket (``target``) and its
    workers: workers connect to :attr:`address` instead, and every frame
    in either direction passes through a :class:`FrameInjector`.  The
    proxy parses the length-prefix framing (it must, to make per-frame
    decisions) but treats bodies as opaque except for a best-effort
    ``"type"`` peek used by heartbeat delays and the event log.  The
    peek goes through :func:`~repro.exp.protocol.decode_body`, so
    zlib-compressed bodies (large RESULT payloads) still produce typed
    events; corrupting one flips its magic byte into garbage, which the
    receiver rejects fail-closed exactly like corrupted JSON.
    """

    def __init__(self, plan: ChaosPlan, target: Tuple[str, int],
                 io_timeout_s: float = 60.0):
        self.plan = plan
        self.target = target
        self.io_timeout_s = io_timeout_s
        self._events: List[Tuple[int, str, int, str, str]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._conn_seq = 0
        self._socks: List[socketlib.socket] = []
        self._threads: List[threading.Thread] = []
        self._server = socketlib.socket(socketlib.AF_INET,
                                        socketlib.SOCK_STREAM)
        self._server.setsockopt(socketlib.SOL_SOCKET,
                                socketlib.SO_REUSEADDR, 1)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(16)
        self._server.settimeout(0.2)
        #: Where workers should connect (instead of the coordinator).
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    # -- observability --------------------------------------------------
    def record(self, conn: int, direction: str, frame_no: int,
               mtype: str, action: str) -> None:
        with self._lock:
            self._events.append((conn, direction, frame_no, mtype, action))
        from ..obs import get_default_registry
        registry = get_default_registry()
        if registry is not None:
            registry.counter("exp", "chaos_events", action=action).inc()

    def events(self) -> List[Tuple[int, str, int, str, str]]:
        """Every injected event, in canonical (sorted) order."""
        with self._lock:
            return sorted(self._events)

    # -- plumbing -------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = self._server.accept()
            except socketlib.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socketlib.create_connection(
                    self.target, timeout=self.io_timeout_s)
            except OSError:
                client.close()
                continue
            client.settimeout(0.2)
            upstream.settimeout(0.2)
            for sock in (client, upstream):
                try:
                    # keep the proxy hop as Nagle-free as the real link
                    sock.setsockopt(socketlib.IPPROTO_TCP,
                                    socketlib.TCP_NODELAY, 1)
                except OSError:
                    pass
            with self._lock:
                conn_index = self._conn_seq
                self._conn_seq += 1
                self._socks.extend([client, upstream])
            for src, dst, direction in ((client, upstream, "w2c"),
                                        (upstream, client, "c2w")):
                injector = FrameInjector(self.plan, conn_index, direction,
                                         record=self.record)
                thread = threading.Thread(
                    target=self._pump, args=(src, dst, injector),
                    daemon=True)
                thread.start()
                # close() walks this list from the main thread, so the
                # accept-loop append must happen under the same lock.
                with self._lock:
                    self._threads.append(thread)

    def _pump(self, src: socketlib.socket, dst: socketlib.socket,
              injector: FrameInjector) -> None:
        buffer = b""
        try:
            while not self._stop.is_set():
                try:
                    chunk = src.recv(65536)
                except socketlib.timeout:
                    continue
                except OSError:
                    break
                if not chunk:       # EOF: flush any held frame, half-close
                    for frame in injector.flush():
                        dst.sendall(frame)
                    try:
                        dst.shutdown(socketlib.SHUT_WR)
                    except OSError:
                        pass
                    return
                buffer += chunk
                while len(buffer) >= _LEN_BYTES:
                    length = int.from_bytes(buffer[:_LEN_BYTES], "big")
                    if length == 0 or length > MAX_FRAME:
                        # garbage framing: forward verbatim, let the
                        # receiver fail closed
                        dst.sendall(buffer)
                        buffer = b""
                        break
                    if len(buffer) < _LEN_BYTES + length:
                        break
                    frame = buffer[:_LEN_BYTES + length]
                    buffer = buffer[_LEN_BYTES + length:]
                    try:
                        body = decode_body(frame[_LEN_BYTES:])
                        mtype = body.get("type")
                    except Exception:
                        mtype = None
                    delay, frames = injector.feed(frame, mtype)
                    if delay:
                        time.sleep(delay)
                    for out in frames:
                        dst.sendall(out)
        except ResetInjected:
            self._reset(src)
            self._reset(dst)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:
                    pass

    @staticmethod
    def _reset(sock: socketlib.socket) -> None:
        """Close with linger-0 so the peer sees RST, not FIN."""
        try:
            sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            socks = list(self._socks)
            threads = list(self._threads)
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5)
