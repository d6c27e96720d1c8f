#!/usr/bin/env python
"""Scheduler wire-efficiency benchmark: pipelined vs stop-and-wait.

Measures the credit-pipelined lease window (derived from the grid
size) against a window of one lease in flight per worker —
``SocketWorkerBackend(pipeline=1)`` on the same source tree, so the
comparison is honest before/after, not old-commit/new-commit — and
checks that a warm re-run never touches the wire.

The workload is the adversarial case for a stop-and-wait wire: a
many-tiny-cell quick grid (hundreds of cells whose compute time is
microseconds, so coordinator round trips dominate) plus a handful of
wide cells whose payloads exceed the compression threshold.  The
experiments are registered at runtime and the workers run as in-process
threads (``serve()``), sharing the registry — exactly the harness the
conformance wall uses.  Worker connections are routed through an
emulated WAN hop (``_WanRelay``: fixed one-way propagation delay, 3ms
RTT, chunks overlap in flight) so round trips cost what they cost over
the paper's InfiniBand-WAN setting rather than ~0us loopback.

Three measurements, written to ``BENCH_sched.json`` at the repo root:

* **cold stop-and-wait** — ``pipeline=1`` over an empty cell cache:
  every cell after a worker's first pays a grant wait (~1 round trip
  per task);
* **cold pipelined** — the derived credit window over another empty
  cell cache: the next lease is already queued worker-side when the
  current one finishes;
* **warm** — the pipelined run's cache read back.  The coordinator
  serves every task from its own cell cache before leasing anything,
  so no worker is started and no frame is sent.

Gates (exit 1 on failure):

* pipelined coordinator round trips per task < 0.5 (a wire-pattern
  property, not a timing one, so smoke gates it too);
* byte identity: every socket run matches the serial store exactly;
* the ``repro.obs`` counters ``exp/leases_pipelined`` and
  ``exp/frames_compressed`` are nonzero in the cold pipelined run;
* the warm run serves every task as a coordinator cache hit
  (``cache_hits_remote == n_tasks``) with 0 leases and 0 round trips.

The former ">= 3x warm throughput over stop-and-wait" gate is retired:
its baseline was a warm sweep answered over the wire one blocking
cache query per cell, and a warm sweep now makes no wire traffic at
all.  Timings are recorded, not gated.

Usage::

    PYTHONPATH=src python tools/bench_sched.py            # full run
    PYTHONPATH=src python tools/bench_sched.py --smoke    # CI-sized
    PYTHONPATH=src python tools/bench_sched.py --out x.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import queue
import socket as socketlib
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.registry import CellPlan, experiment  # noqa: E402
from repro.exp import SocketWorkerBackend, run_experiments  # noqa: E402
from repro.exp.worker import serve  # noqa: E402
from repro.obs import MetricsRegistry, use_registry  # noqa: E402

TARGET_ROUND_TRIPS_PER_TASK = 0.5

TINY_ID = "bench_sched_tiny"
WIDE_ID = "bench_sched_wide"
WORKERS = 4
WAN_ONE_WAY_S = 0.0015  # emulated one-way propagation delay (3ms RTT)


def _register(n_tiny: int, n_wide: int, wide_chars: int) -> list:
    """Register the synthetic grid; returns the experiment ids."""

    def tiny_params(quick):
        return list(range(n_tiny))

    def tiny_cell(quick, i):
        # Arithmetic only: the cell must cost microseconds so the wire
        # pattern, not the compute, is what the clock sees.
        return (i, (i * 2654435761) % 997, (i * 40503) % 65521)

    @experiment(TINY_ID, "many tiny cells (wire-pattern stress)",
                cells=CellPlan(params_of=tiny_params, run_cell=tiny_cell))
    def bench_tiny(quick, rows):
        return ["i", "a", "b"], rows, ""

    def wide_params(quick):
        return list(range(n_wide))

    def wide_cell(quick, i):
        # A payload past COMPRESS_MIN: RESULT/CACHE frames carrying it
        # must take the compressed-body fast path.
        return (i, "".join(chr(97 + (i + j) % 17) for j in range(23))
                * (wide_chars // 23))

    @experiment(WIDE_ID, "wide cells (compression stress)",
                cells=CellPlan(params_of=wide_params, run_cell=wide_cell))
    def bench_wide(quick, rows):
        return ["i", "blob"], rows, ""

    return [TINY_ID, WIDE_ID]


class _WanRelay:
    """An emulated WAN hop: TCP relay adding fixed one-way propagation
    delay in each direction.

    Chunks overlap in flight (a reader thread timestamps, a writer
    thread forwards once the deadline passes), so the relay models
    *propagation* delay, not serialization — back-to-back pipelined
    frames still stream at full rate, exactly like a long fat link.
    This is the condition the wire pattern is designed for: over a WAN,
    every stop-and-wait exchange costs a full RTT while a credit window
    costs none.
    """

    def __init__(self, target, one_way_s: float):
        self.target = target
        self.one_way_s = one_way_s
        self._stop = threading.Event()
        self._server = socketlib.socket()
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(32)
        self._server.settimeout(0.2)
        self.address = self._server.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                client, _addr = self._server.accept()
            except socketlib.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socketlib.create_connection(self.target,
                                                       timeout=30.0)
            except OSError:
                client.close()
                continue
            for sock in (client, upstream):
                sock.settimeout(0.2)
                sock.setsockopt(socketlib.IPPROTO_TCP,
                                socketlib.TCP_NODELAY, 1)
            for src, dst in ((client, upstream), (upstream, client)):
                pipe = queue.Queue()
                threading.Thread(target=self._read, args=(src, pipe),
                                 daemon=True).start()
                threading.Thread(target=self._write, args=(dst, pipe),
                                 daemon=True).start()

    def _read(self, src, pipe):
        while not self._stop.is_set():
            try:
                chunk = src.recv(65536)
            except socketlib.timeout:
                continue
            except OSError:
                break
            # repro-lint: disable=DET101 -- relay propagation clock
            pipe.put((time.monotonic() + self.one_way_s, chunk))
            if not chunk:
                break

    def _write(self, dst, pipe):
        while True:
            try:
                deadline, chunk = pipe.get(timeout=0.2)
            except queue.Empty:
                if self._stop.is_set():
                    break
                continue
            # repro-lint: disable=DET101 -- relay propagation clock
            lag = deadline - time.monotonic()
            if lag > 0:
                time.sleep(lag)
            try:
                if chunk:
                    dst.sendall(chunk)
                else:
                    dst.shutdown(socketlib.SHUT_WR)
                    break
            except OSError:
                break

    def close(self):
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass


@contextlib.contextmanager
def _thread_workers(address, n):
    host, port = address
    threads = []
    for i in range(n):
        t = threading.Thread(
            target=serve, args=(f"{host}:{port}",),
            kwargs={"worker_id": f"bench-{i}", "timeout_s": 60.0,
                    "connect_budget_s": 60.0},
            daemon=True)
        t.start()
        threads.append(t)
    try:
        yield
    finally:
        for t in threads:
            t.join(timeout=60)


def _round_trips(stats: dict) -> int:
    return sum(v for k, v in stats.items() if k.startswith("round_trips"))


def _socket_run(ids, cache_dir, *, pipeline, workers=WORKERS,
                registry=None, wan_one_way_s=WAN_ONE_WAY_S):
    """One timed socket sweep over the emulated WAN hop.

    Returns (results, seconds, stats).  Every worker connection goes
    through a ``_WanRelay`` so both wire patterns pay the same
    propagation delay per round trip — on loopback the RTT is ~0 and
    the difference between the patterns would be invisible.  A warm
    sweep needs no worker, so it starts ``workers=0``.
    """
    backend = SocketWorkerBackend(workers=WORKERS, spawn=False,
                                  lease_timeout_s=60.0,
                                  cache_dir=cache_dir, pipeline=pipeline)
    relay = _WanRelay(backend.address, wan_one_way_s)
    scope = use_registry(registry) if registry is not None \
        else contextlib.nullcontext()
    try:
        with scope:
            with _thread_workers(relay.address, workers):
                # repro-lint: disable=DET101 -- wall-clock bench timing
                t0 = time.perf_counter()
                results = run_experiments(ids, quick=True, backend=backend)
                # repro-lint: disable=DET101 -- wall-clock bench timing
                dt = time.perf_counter() - t0
    finally:
        backend.close()
        relay.close()
    return results, dt, dict(backend.stats)


def _as_bytes(results):
    return {r.exp_id: r.to_json() for r in results}


def _summary(seconds, stats, n_tasks):
    return {"seconds": round(seconds, 3),
            "tasks_per_sec": round(n_tasks / seconds, 1),
            "round_trips_per_task": round(_round_trips(stats) / n_tasks, 3),
            "leases_issued": stats.get("leases_issued", 0),
            "leases_pipelined": stats.get("leases_pipelined", 0),
            "cache_hits_remote": stats.get("cache_hits_remote", 0),
            "frames_compressed": stats.get("frames_compressed", 0)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small grid (CI)")
    ap.add_argument("--out", default=str(REPO / "BENCH_sched.json"))
    args = ap.parse_args(argv)

    n_tiny = 96 if args.smoke else 480
    ids = _register(n_tiny, n_wide=4, wide_chars=32 * 1024)
    n_tasks = n_tiny + 4

    print(f"grid: {n_tiny} tiny + 4 wide cells, {WORKERS} workers")
    serial = _as_bytes(run_experiments(ids, quick=True, jobs=1))

    with tempfile.TemporaryDirectory(prefix="bench-sched-") as scratch:
        base_res, base_s, base_stats = _socket_run(
            ids, str(Path(scratch) / "stop-and-wait"), pipeline=1)
        assert _as_bytes(base_res) == serial, "stop-and-wait diverged"
        base = _summary(base_s, base_stats, n_tasks)
        print(f"cold stop-and-wait: {base_s:.2f}s "
              f"({base['tasks_per_sec']:,.0f} tasks/s, "
              f"{base['round_trips_per_task']:.2f} round trips/task)")

        cells = str(Path(scratch) / "pipelined")
        reg = MetricsRegistry()
        pipe_res, pipe_s, pipe_stats = _socket_run(
            ids, cells, pipeline=None, registry=reg)
        assert _as_bytes(pipe_res) == serial, "pipelined sweep diverged"
        pipe = _summary(pipe_s, pipe_stats, n_tasks)
        print(f"cold pipelined: {pipe_s:.2f}s "
              f"({pipe['tasks_per_sec']:,.0f} tasks/s, "
              f"{pipe['round_trips_per_task']:.2f} round trips/task)")

        warm_res, warm_s, warm_stats = _socket_run(
            ids, cells, pipeline=None, workers=0)
        assert _as_bytes(warm_res) == serial, "warm sweep diverged"
        warm = _summary(warm_s, warm_stats, n_tasks)
        print(f"warm: {warm_s:.2f}s ({warm['tasks_per_sec']:,.0f} "
              f"tasks/s, {warm['cache_hits_remote']} coordinator hits, "
              f"{warm['leases_issued']} leases)")

    counters = {}
    for name in ("leases_pipelined", "frames_compressed"):
        counter = reg.get("exp", name, backend="socket")
        counters[name] = counter.value if counter is not None else 0
    print(f"cold pipelined counters: {counters}")

    doc = {
        "protocol": {
            "workload": f"{n_tiny} tiny + 4 wide quick cells, "
                        f"{WORKERS} in-process thread workers, "
                        "emulated WAN hop "
                        f"({WAN_ONE_WAY_S * 2000:.0f}ms RTT)",
            "baseline": "pipeline=1 on an empty cell cache (one lease "
                        "in flight per worker)",
            "metric": "wall-clock seconds per sweep; coordinator round "
                      "trips = grant waits",
            "smoke": args.smoke,
        },
        "targets": {
            "round_trips_per_task": TARGET_ROUND_TRIPS_PER_TASK,
            "warm_cache_hits_remote": n_tasks,
            "warm_leases_issued": 0,
            "warm_round_trips": 0,
        },
        "n_tasks": n_tasks,
        "stop_and_wait": base,
        "pipelined": pipe,
        "warm": warm,
        "obs_counters": counters,
    }
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")

    failures = []
    if pipe["round_trips_per_task"] >= TARGET_ROUND_TRIPS_PER_TASK:
        failures.append(f"round trips/task {pipe['round_trips_per_task']}"
                        f" >= {TARGET_ROUND_TRIPS_PER_TASK}")
    for name, value in counters.items():
        if value <= 0:
            failures.append(f"obs counter exp/{name} never incremented")
    if warm["cache_hits_remote"] != n_tasks:
        failures.append(f"warm run served {warm['cache_hits_remote']} of "
                        f"{n_tasks} tasks from the coordinator cache")
    if warm["leases_issued"] or _round_trips(warm_stats):
        failures.append(f"warm run leased {warm['leases_issued']} tasks "
                        f"with {_round_trips(warm_stats)} round trips")
    if failures:
        print("GATES MISSED: " + "; ".join(failures))
        return 1
    print("targets: MET")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
