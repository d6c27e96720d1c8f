"""TCP over IPoIB: stacks, listeners and stream sockets.

The stack models what dominates IPoIB throughput in the paper:

* **per-segment CPU cost** (fixed + per-byte) serialized on a per-host
  CPU :class:`~repro.sim.resources.Resource` — this is why IPoIB-UD
  (2 KB segments) peaks far below verbs rates while IPoIB-RC (64 KB
  segments) approaches them (Fig. 6 vs Fig. 7);
* **windowing** — in-flight data is capped by ``min(cwnd, peer rwnd)``,
  so throughput over a long pipe degrades to ``window / RTT`` (the
  Fig. 6a window-size sweep);
* **ACK clocking** — the window only reopens when ACKs return, which is
  what parallel streams mitigate (Fig. 6b/7b).

Segments are unit-accounted (one IP packet per TCP segment, sized by
the IPoIB MTU); payload bytes are counts plus application record
boundaries, which is all the higher layers (NFS RPC) need.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from ..calibration import HardwareProfile
from ..sim import Resource, ReusableTimeout, Simulator, Store

if TYPE_CHECKING:  # avoid a tcp <-> ipoib import cycle at runtime
    from ..ipoib.interface import IPoIBInterface
from .cc import CongestionControl
from .segment import ACK, DATA, FIN, SYN, SYNACK, Segment

__all__ = ["TcpStack", "Listener", "Socket"]


class TcpStack:
    """Per-node TCP/IP stack bound to one IPoIB interface."""

    def __init__(self, iface: "IPoIBInterface",
                 retransmit: Optional[bool] = None):
        self.iface = iface
        self.sim: Simulator = iface.sim
        self.profile: HardwareProfile = iface.profile
        self.mss = iface.mtu - self.profile.tcp_header_bytes
        if retransmit is None:
            # Self-enable recovery when the fabric has armed faults; the
            # clean fabric never drops, so sockets skip the RTO
            # machinery entirely there (no extra processes or events).
            fabric = getattr(iface.network, "fabric", None)
            retransmit = bool(getattr(fabric, "faults_active", False))
        self.retransmit = retransmit
        #: One protocol-processing core, shared by every connection on
        #: this host (2008-era single-queue NIC + softirq model).
        self.cpu = Resource(self.sim, capacity=1)
        self._listeners: Dict[int, "Listener"] = {}
        self._socks: Dict[Tuple[int, int, int], "Socket"] = {}
        self._ports = itertools.count(20000)
        self._rx_queue: Store = Store(self.sim)
        self._rx_cpu_wait = ReusableTimeout(self.sim)
        iface.receiver = self._rx_enqueue
        self.sim.process(self._rx_pump(), name=f"tcp@{iface.node.name}")

    @property
    def lid(self) -> int:
        return self.iface.node.lid

    # -- api ------------------------------------------------------------------
    def listen(self, port: int, window: Optional[int] = None) -> "Listener":
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        listener = Listener(self, port,
                            window or self.profile.tcp_default_window)
        self._listeners[port] = listener
        return listener

    def connect(self, dst_lid: int, dst_port: int,
                window: Optional[int] = None):
        """Open a connection; yields the established :class:`Socket`."""
        return self.sim.process(self._connect(dst_lid, dst_port, window),
                                name="tcp.connect")

    def _connect(self, dst_lid: int, dst_port: int, window: Optional[int]):
        local_port = next(self._ports)
        sock = Socket(self, dst_lid, dst_port, local_port,
                      window or self.profile.tcp_default_window)
        self._socks[(dst_lid, dst_port, local_port)] = sock
        syn = Segment(SYN, local_port, dst_port, rwnd=sock.rwnd)
        self._tx_control(dst_lid, syn)
        if self.retransmit:
            # A lost SYN/SYN-ACK would otherwise hang the connection
            # forever; retransmit with backoff, like data, but bounded
            # (classic SYN retry budget) so a dead peer surfaces as an
            # error instead of an endless timer loop.
            timeout_us = self.profile.tcp_rto_us
            for _ in range(8):
                timer = self.sim.timeout(timeout_us)
                yield self.sim.any_of([sock._established, timer])
                if sock._established.triggered:
                    return sock
                timeout_us = min(timeout_us * 2, self.profile.tcp_max_rto_us)
                self._tx_control(dst_lid, syn)
            raise ConnectionError(
                f"connect to lid {dst_lid} port {dst_port} timed out")
        yield sock._established
        return sock

    # -- wire side ------------------------------------------------------------
    def _tx_control(self, dst_lid: int, seg: Segment) -> None:
        self.iface.send(dst_lid, self.profile.tcp_header_bytes, seg)

    def _rx_enqueue(self, src_lid: int, nbytes: int, seg: Segment) -> None:
        self._rx_queue.put_nowait((src_lid, seg))

    def _rx_pump(self):
        profile = self.profile
        while True:
            src_lid, seg = yield self._rx_queue.get()
            with self.cpu.request() as req:
                yield req
                if seg.kind == DATA:
                    yield self._rx_cpu_wait.arm(
                        profile.tcp_segment_fixed_us
                        + seg.length * profile.tcp_per_byte_us)
                else:
                    yield self._rx_cpu_wait.arm(profile.tcp_ack_cpu_us)
            self._demux(src_lid, seg)

    def _demux(self, src_lid: int, seg: Segment) -> None:
        if seg.kind == SYN:
            listener = self._listeners.get(seg.dst_port)
            if listener is None:
                return  # connection refused: SYN silently dropped here
            existing = self._socks.get((src_lid, seg.src_port, seg.dst_port))
            if existing is not None:
                # Duplicate SYN: our SYN-ACK was lost.  Re-acknowledge;
                # the connection is already established and backlogged.
                self._tx_control(src_lid, Segment(
                    SYNACK, seg.dst_port, seg.src_port, rwnd=existing.rwnd))
                return
            sock = Socket(self, src_lid, seg.src_port, seg.dst_port,
                          listener.window)
            sock.peer_rwnd = seg.rwnd
            self._socks[(src_lid, seg.src_port, seg.dst_port)] = sock
            sock._established.succeed()
            self._tx_control(src_lid, Segment(
                SYNACK, seg.dst_port, seg.src_port, rwnd=sock.rwnd))
            listener._backlog.put_nowait(sock)
            return
        sock = self._socks.get((src_lid, seg.src_port, seg.dst_port))
        if sock is None:
            return  # stale segment for a closed connection
        sock._on_segment(seg)

    @property
    def rx_backlog(self) -> int:
        return len(self._rx_queue)


class Listener:
    """A listening port; ``accept()`` yields established sockets."""

    def __init__(self, stack: TcpStack, port: int, window: int):
        self.stack = stack
        self.port = port
        self.window = window
        self._backlog: Store = Store(stack.sim)

    def accept(self):
        return self._backlog.get()


class Socket:
    """One end of an established (or establishing) TCP connection."""

    def __init__(self, stack: TcpStack, peer_lid: int, peer_port: int,
                 local_port: int, window: int):
        self.stack = stack
        self.sim = stack.sim
        self.profile = stack.profile
        self.peer_lid = peer_lid
        self.peer_port = peer_port
        self.local_port = local_port
        self.mss = stack.mss
        #: Local receive window we advertise (the Fig. 6a knob).
        self.rwnd = window
        #: Peer's advertised window (learned from segments).
        self.peer_rwnd = window
        self.cc = CongestionControl(self.mss,
                                    self.profile.tcp_init_cwnd_segments)
        # sender state (byte offsets into the abstract stream)
        self.snd_total = 0
        self.snd_next = 0
        self.snd_una = 0
        self._records_out: Deque[Tuple[int, Any]] = deque()
        # receiver state
        self.rcv_next = 0
        self._recv_records: Store = Store(self.sim)
        self._rcv_watchers: List[Tuple[int, Any]] = []
        self._unacked_segs = 0
        self._last_ack_sent = 0
        #: Pure ACKs emitted; flow-mode accounting extrapolates the
        #: observed ACK cadence from it (delayed ACKs coalesce less in
        #: CPU-paced regimes, where the backlog drains every segment).
        self.acks_sent = 0
        # plumbing
        self._established = self.sim.event()
        self._tx_wakeup = self.sim.event()
        self._closed = False
        self.segments_sent = 0
        self.bytes_acked_in = 0
        # loss recovery (active only on fault-injected fabrics)
        self.retransmit = stack.retransmit
        self.retransmits = 0
        self._m_retx = None
        m = getattr(self.sim, "metrics", None)
        if m is not None:
            self.cc.cwnd_hist = m.histogram("tcp", "cwnd_bytes")
            self._m_segments = m.counter("tcp", "segments_sent")
            self._m_acked = m.counter("tcp", "bytes_acked")
            self._m_wl_us = m.counter("tcp", "window_limited_us")
        else:
            self._m_segments = self._m_acked = self._m_wl_us = None
        self._tx_cpu_wait = ReusableTimeout(self.sim)
        self.sim.process(self._tx_pump(), name=f"sock:{local_port}")
        if self.retransmit:
            self._rto_us = self.profile.tcp_rto_us
            self._last_progress_at = 0.0
            self._dupacks = 0
            self._rto_kick: Store = Store(self.sim)
            self._rto_wait = ReusableTimeout(self.sim)
            self.sim.process(self._rto_pump(),
                             name=f"sock:{local_port}.rto")

    # -- application interface ----------------------------------------------
    def send(self, nbytes: int, record: Any = None) -> None:
        """Queue ``nbytes`` for transmission.

        If ``record`` is given, it marks an application-message boundary
        at the end of those bytes; the peer retrieves it in order with
        :meth:`recv_record`.
        """
        if self._closed:
            raise RuntimeError("send on closed socket")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.snd_total += nbytes
        if record is not None:
            self._records_out.append((self.snd_total, record))
        self._kick()

    def recv_bytes(self, nbytes: int):
        """Event firing once ``nbytes`` more bytes have been received."""
        target = self.rcv_next + nbytes
        evt = self.sim.event()
        if self.rcv_next >= target:
            evt.succeed(self.rcv_next)
        else:
            self._rcv_watchers.append((target, evt))
        return evt

    def recv_record(self):
        """Event yielding the next application record ``(nbytes, obj)``."""
        return self._recv_records.get()

    def flow_halt(self) -> None:
        """Cap the stream at what is already committed for transmission.

        Flow-mode collapse hook: the analytic tail replaces the bytes
        between ``snd_next`` and the old ``snd_total``, so the sender
        must stop producing them.  One segment whose length was fixed
        before a CPU yield may still depart afterwards — harmless, the
        cap only ever shrinks the stream.
        """
        self.snd_total = min(self.snd_total, self.snd_next)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.stack._tx_control(self.peer_lid, Segment(
                FIN, self.local_port, self.peer_port, ack=self.rcv_next))
            self._kick()

    @property
    def inflight(self) -> int:
        return self.snd_next - self.snd_una

    @property
    def send_window(self) -> float:
        return min(self.cc.cwnd, self.peer_rwnd)

    # -- sender ----------------------------------------------------------
    def _kick(self) -> None:
        if not self._tx_wakeup.triggered:
            self._tx_wakeup.succeed()

    def _tx_pump(self):
        profile = self.profile
        if not self._established.processed:
            yield self._established
        while not self._closed:
            unsent = self.snd_total - self.snd_next
            window = self.send_window - self.inflight
            if unsent <= 0 or window <= 0:
                # Data waiting but no window open: the connection is
                # window-limited (the Fig. 6/7 WAN regime); account the
                # stalled time.
                limited = (self._m_wl_us is not None
                           and unsent > 0 and window <= 0)
                stalled_at = self.sim.now
                self._tx_wakeup = self.sim.event()
                yield self._tx_wakeup
                if limited:
                    self._m_wl_us.inc(self.sim.now - stalled_at)
                continue
            seg_len = int(min(self.mss, unsent, window))
            with self.stack.cpu.request() as req:
                yield req
                yield self._tx_cpu_wait.arm(
                    profile.tcp_segment_fixed_us
                    + seg_len * profile.tcp_per_byte_us)
            # Re-read snd_next after the CPU yield: a retransmission
            # timeout may have rewound it to snd_una meanwhile.
            seq = self.snd_next
            end = seq + seg_len
            # Records stay queued until cumulatively ACKed (popped in
            # _on_segment), so a retransmitted range re-carries them.
            records = [r for r in self._records_out if seq < r[0] <= end]
            seg = Segment(DATA, self.local_port, self.peer_port,
                          seq=seq, ack=self.rcv_next,
                          length=seg_len, rwnd=self.rwnd, records=records)
            self.stack.iface.send(
                self.peer_lid, seg_len + profile.tcp_header_bytes, seg)
            was_idle = seq == self.snd_una
            self.snd_next = end
            self.segments_sent += 1
            if self._m_segments is not None:
                self._m_segments.inc()
            if self.retransmit and was_idle:
                # First unacked byte of a burst (re)starts the RTO clock.
                self._last_progress_at = self.sim.now
                self._rto_kick.put_nowait(None)

    # -- receiver / ACK processing ------------------------------------------
    def _on_segment(self, seg: Segment) -> None:
        if seg.kind == FIN:
            self._closed = True
            self._kick()
            return
        if seg.kind == SYNACK:
            self.peer_rwnd = seg.rwnd
            if not self._established.triggered:
                self._established.succeed()
            return
        # Every segment may carry an ACK (piggybacked on data).
        if seg.ack > self.snd_una:
            newly = seg.ack - self.snd_una
            self.snd_una = seg.ack
            while self._records_out and self._records_out[0][0] <= self.snd_una:
                self._records_out.popleft()
            self.bytes_acked_in += newly
            if self._m_acked is not None:
                self._m_acked.inc(newly)
            self.cc.on_ack(newly)
            if self.retransmit:
                self._dupacks = 0
                self._last_progress_at = self.sim.now
                self._rto_us = self.profile.tcp_rto_us
                # snd_next can sit below snd_una after an RTO rewind
                # raced a late ACK; never send already-acked bytes.
                if self.snd_next < self.snd_una:
                    self.snd_next = self.snd_una
            self._kick()
        elif (self.retransmit and seg.kind == ACK
              and seg.ack == self.snd_una and self.inflight > 0):
            self._dupacks += 1
            if self._dupacks >= self.profile.tcp_dupack_threshold:
                self._dupacks = 0
                self._retransmit()
        if seg.rwnd:
            self.peer_rwnd = seg.rwnd
        if seg.kind != DATA:
            return
        if self.retransmit:
            end = seg.seq + seg.length
            if end <= self.rcv_next or seg.seq > self.rcv_next:
                # Duplicate (lost ACK / spurious RTO) or a gap after a
                # drop: immediately re-ACK rcv_next so the sender sees
                # dup-ACKs and fast-retransmits.
                self._send_ack()
                return
            # Partial overlap: deliver only the new tail.
            for offset, obj in seg.records:
                if offset > self.rcv_next:
                    self._recv_records.put_nowait((offset, obj))
            self.rcv_next = end
        else:
            # Lossless in-order fabric: seq always matches rcv_next.
            assert seg.seq == self.rcv_next, \
                "TCP reordering cannot happen here"
            self.rcv_next += seg.length
            for offset, obj in seg.records:
                self._recv_records.put_nowait((offset, obj))
        if self._rcv_watchers:
            still = []
            for target, evt in self._rcv_watchers:
                if self.rcv_next >= target:
                    evt.succeed(self.rcv_next)
                else:
                    still.append((target, evt))
            self._rcv_watchers = still
        # Delayed ACK: every Nth segment, or as soon as the RX softirq
        # queue drains (the delayed-ACK timer analogue).
        self._unacked_segs += 1
        if (self._unacked_segs >= self.profile.tcp_ack_every
                or self.stack.rx_backlog == 0):
            self._send_ack()

    # -- loss recovery (fault-injected fabrics only) ----------------------
    def _rto_pump(self):
        """Retransmission timer: fires when no ACK progress for one RTO."""
        while not self._closed:
            if self.inflight <= 0:
                # Idle: sleep until _tx_pump sends the first unacked byte.
                yield self._rto_kick.get()
                continue
            deadline = self._last_progress_at + self._rto_us
            if deadline > self.sim.now:
                yield self._rto_wait.arm(deadline - self.sim.now)
                continue
            self._rto_us = min(self._rto_us * 2,
                               self.profile.tcp_max_rto_us)
            self._retransmit()

    def _retransmit(self) -> None:
        """Go-back-N: rewind snd_next to the first unacked byte."""
        self.retransmits += 1
        if self._m_retx is None:
            m = getattr(self.sim, "metrics", None)
            if m is not None:
                self._m_retx = m.counter("tcp", "retransmits")
        if self._m_retx is not None:
            self._m_retx.inc()
        self.cc.on_loss()
        self._dupacks = 0
        self.snd_next = self.snd_una
        self._last_progress_at = self.sim.now
        self._kick()

    def _send_ack(self) -> None:
        self._unacked_segs = 0
        self._last_ack_sent = self.rcv_next
        self.acks_sent += 1
        self.stack._tx_control(self.peer_lid, Segment(
            ACK, self.local_port, self.peer_port, ack=self.rcv_next,
            rwnd=self.rwnd))
