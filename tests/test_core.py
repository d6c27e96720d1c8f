"""Unit tests for repro.core: scenarios, optimizations, adaptive tuning."""

import pytest

from repro.calibration import KB, MB
from repro.core import (EXPERIMENTS, MessageCoalescer, PathEstimate,
                        auto_tune, back_to_back, coalesced_message_rate,
                        decoalesce, hierarchical_allreduce,
                        hierarchical_barrier, lan, probe_path,
                        recommend_tuning, run_experiment, wan_clusters,
                        wan_pair)
from repro.mpi import MPIJob


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_wan_pair_structure():
    s = wan_pair(50.0)
    assert s.fabric.wan.delay_us == 50.0
    assert s.a is not s.b


def test_wan_clusters_sizes():
    s = wan_clusters(3, 2, 0.0)
    assert len(s.fabric.cluster_a) == 3
    assert len(s.fabric.cluster_b) == 2


def test_back_to_back_has_no_wan():
    s = back_to_back()
    assert s.fabric.wan is None


def test_lan_scenario_nodes():
    s = lan(4)
    assert len(s.fabric.nodes) == 4


# ---------------------------------------------------------------------------
# message coalescing
# ---------------------------------------------------------------------------

def _pair(delay=0.0):
    s = wan_pair(delay)
    job = MPIJob(s.fabric, nprocs=2, ppn=1, placement="cyclic")
    return s.sim, job.procs[0], job.procs[1]


def test_coalescer_flushes_at_threshold():
    sim, a, b = _pair()
    co = MessageCoalescer(a, b.rank, threshold=1000)
    assert co.add(400) is None
    assert co.add(400) is None
    req = co.add(400)  # 1200 >= 1000
    assert req is not None
    assert co.flushes == 1
    assert co.messages_absorbed == 3


def test_coalescer_manual_flush_and_empty_flush():
    sim, a, b = _pair()
    co = MessageCoalescer(a, b.rank, threshold=1 * MB)
    assert co.flush() is None  # nothing buffered
    co.add(10)
    assert co.flush() is not None


def test_coalescer_rejects_bad_input():
    sim, a, b = _pair()
    with pytest.raises(ValueError):
        MessageCoalescer(a, b.rank, threshold=0)
    co = MessageCoalescer(a, b.rank)
    with pytest.raises(ValueError):
        co.add(0)


def test_decoalesce_roundtrip():
    batch = ("coalesced", [(100, "a"), (200, "b")])
    assert decoalesce(batch) == [(100, "a"), (200, "b")]
    with pytest.raises(ValueError):
        decoalesce("nope")


def test_coalescing_improves_small_message_rate_over_wan():
    sim, a, b = _pair(delay=1000.0)
    base = coalesced_message_rate(sim, a, b, msg_bytes=512, count=128,
                                  threshold=None)
    sim2, a2, b2 = _pair(delay=1000.0)
    fast = coalesced_message_rate(sim2, a2, b2, msg_bytes=512, count=128,
                                  threshold=64 * KB)
    assert fast > 2 * base


# ---------------------------------------------------------------------------
# adaptive tuning
# ---------------------------------------------------------------------------

def test_probe_path_measures_rtt():
    s = wan_pair(1000.0)
    est = probe_path(s.sim, s.fabric)
    assert est.rtt_us == pytest.approx(2000.0, rel=0.05)
    assert est.bandwidth_mbps > 100


def test_bdp_property():
    est = PathEstimate(rtt_us=2000.0, bandwidth_mbps=500.0)
    assert est.bdp_bytes == 1e6


def test_recommend_tuning_scales_with_delay():
    near = recommend_tuning(PathEstimate(20.0, 900.0))
    far = recommend_tuning(PathEstimate(20000.0, 900.0))
    assert far.eager_threshold > near.eager_threshold
    assert near.eager_threshold >= 8 * KB
    assert far.eager_threshold <= 1 * MB


def test_recommend_tuning_switches_bcast_over_wan():
    far = recommend_tuning(PathEstimate(2000.0, 900.0))
    assert far.bcast_algorithm == "hierarchical"
    near = recommend_tuning(PathEstimate(20.0, 900.0))
    assert near.bcast_algorithm == "auto"


def test_recommend_tuning_rejects_bad_rtt():
    with pytest.raises(ValueError):
        recommend_tuning(PathEstimate(0.0, 100.0))


def test_auto_tune_end_to_end():
    s = wan_pair(10000.0)
    tuning = auto_tune(s.sim, s.fabric)
    assert tuning.eager_threshold > 8 * KB
    assert tuning.bcast_algorithm == "hierarchical"


# ---------------------------------------------------------------------------
# hierarchical collectives (extension)
# ---------------------------------------------------------------------------

def test_hierarchical_allreduce_completes_on_all_ranks():
    s = wan_clusters(2, 2, 100.0)
    job = MPIJob(s.fabric, ppn=1, placement="block")

    def prog(proc):
        return (yield from hierarchical_allreduce(proc, 4 * KB))

    assert job.run(prog) == [("allreduce", 4 * KB)] * 4


def test_hierarchical_barrier_synchronizes():
    s = wan_clusters(2, 2, 0.0)
    job = MPIJob(s.fabric, ppn=1, placement="block")
    seen = {}

    def prog(proc):
        yield from proc.compute(50.0 * (proc.rank + 1))
        yield from hierarchical_barrier(proc)
        seen[proc.rank] = proc.sim.now

    job.run(prog)
    assert min(seen.values()) >= 200.0


def test_hierarchical_allreduce_fewer_wan_crossings():
    from repro.mpi.collectives import allreduce
    crossings = {}
    for name, fn in (("flat", allreduce),
                     ("hier", hierarchical_allreduce)):
        s = wan_clusters(4, 4, 0.0)
        job = MPIJob(s.fabric, ppn=1, placement="block")

        def prog(proc, fn=fn):
            yield from fn(proc, 64 * KB)

        job.run(prog)
        crossings[name] = s.fabric.wan.bytes_carried
    assert crossings["hier"] < crossings["flat"]


# ---------------------------------------------------------------------------
# experiment registry
# ---------------------------------------------------------------------------

def test_registry_covers_every_figure_and_table():
    expected = {"table1", "fig03", "fig04a", "fig04b", "fig05a", "fig05b",
                "fig06a", "fig06b", "fig07a", "fig07b", "fig08a", "fig08b",
                "fig09a", "fig09b", "fig10", "fig11", "fig12", "fig13a",
                "fig13b", "fig13c"}
    assert expected.issubset(EXPERIMENTS.keys())


def test_experiment_result_formatting(quick_result):
    res = quick_result("table1")
    text = res.to_text()
    assert "table1" in text
    assert "2000 km" in text
    assert res.column("distance")[0] == "1 km"


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99")
