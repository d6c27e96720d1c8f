"""Integration tests: the paper's headline shapes, end to end.

Each test pins one qualitative claim from the paper's evaluation; the
benchmark suite regenerates the full tables, but these assertions are
what must never regress.
"""

import pytest

from repro.calibration import DEFAULT_PROFILE, KB, MB
from repro.core import wan_pair
from repro.verbs import perftest


# ---------------------------------------------------------------------------
# §3.2 — verbs
# ---------------------------------------------------------------------------

def test_ud_bandwidth_is_delay_independent():
    bws = []
    for delay in (0.0, 10000.0):
        s = wan_pair(delay)
        bws.append(perftest.run_send_bw(s.sim, s.a, s.b, 2048, iters=100,
                                        transport="ud"))
    assert bws[1] == pytest.approx(bws[0], rel=0.02)
    assert bws[0] > 0.9 * DEFAULT_PROFILE.sdr_rate


def test_rc_large_messages_reach_peak_at_every_delay():
    for delay in (0.0, 1000.0, 10000.0):
        s = wan_pair(delay)
        bw = perftest.run_send_bw(s.sim, s.a, s.b, 4 * MB, iters=20)
        assert bw > 0.9 * DEFAULT_PROFILE.sdr_rate


def test_rc_medium_messages_collapse_with_delay():
    s0 = wan_pair(0.0)
    base = perftest.run_send_bw(s0.sim, s0.a, s0.b, 64 * KB, iters=48)
    s1 = wan_pair(1000.0)
    far = perftest.run_send_bw(s1.sim, s1.a, s1.b, 64 * KB, iters=48)
    s2 = wan_pair(10000.0)
    vfar = perftest.run_send_bw(s2.sim, s2.a, s2.b, 64 * KB, iters=48)
    assert far < 0.7 * base
    assert vfar < 0.1 * base


def test_rc_bandwidth_matches_window_over_rtt():
    """The quantitative window/RTT law behind Fig. 5."""
    delay = 5000.0
    size = 128 * KB
    window = DEFAULT_PROFILE.rc_send_window
    s = wan_pair(delay)
    bw = perftest.run_send_bw(s.sim, s.a, s.b, size, iters=64)
    predicted = window * size / (2 * delay)  # inflight / RTT
    # window-limited arrivals are bursty, so a finite first-to-last
    # measurement reads slightly high; the law must still hold to ~30%
    assert 0.8 * predicted < bw < 1.4 * predicted


# ---------------------------------------------------------------------------
# §3.3 / §3.4 — IPoIB and MPI optimizations
# ---------------------------------------------------------------------------

def test_parallel_streams_claim(quick_result):
    """Paper abstract: parallel streams improve high-delay throughput
    by a large factor (quoted 'up to 50%')."""
    res = quick_result("opt_streams")
    gains = res.column("gain_%")
    assert max(gains) > 40.0


def test_threshold_tuning_claim(quick_result):
    """Paper §3.4: tuning the rendezvous threshold helps medium messages
    at 10 ms delay (quoted up to ~83% bidirectional)."""
    res = quick_result("fig09a")
    assert max(res.column("improvement_%")) > 50.0


def test_hierarchical_bcast_claim(quick_result):
    """Paper §3.4: hierarchical bcast wins for medium/large messages,
    with gains up to ~90% at high delay."""
    res = quick_result("fig11")
    rows = res.rows
    # small messages: comparable (within 25%); largest at 1ms: big win
    small = [r for r in rows if r[1] == 4 * KB]
    assert all(abs(r[4]) < 25.0 for r in small)
    big_far = [r for r in rows if r[1] == 128 * KB and r[0] == "1000us"]
    assert big_far and big_far[0][4] > 50.0


def test_mpi_rendezvous_dip():
    """Fig. 8: medium (rendezvous) sizes suffer more than large ones."""
    from repro.mpi.benchmarks import run_osu_bw
    s = wan_pair(1000.0)
    mid = run_osu_bw(s.sim, s.fabric, 32 * KB, window=32, iters=4)
    s = wan_pair(1000.0)
    big = run_osu_bw(s.sim, s.fabric, 4 * MB, window=16, iters=3)
    assert big > 5 * mid


def test_message_rate_scales_with_pairs():
    """Fig. 10: aggregate message rate grows with pair count."""
    from repro.core import wan_clusters
    from repro.mpi.benchmarks import run_osu_mbw_mr
    rates = []
    for pairs in (4, 16):
        s = wan_clusters(pairs, pairs, 1000.0)
        _, rate = run_osu_mbw_mr(s.sim, s.fabric, pairs, 1024, window=32,
                                 iters=3)
        rates.append(rate)
    assert rates[1] > 3 * rates[0]


# ---------------------------------------------------------------------------
# §3.5 / §3.7 — applications and NFS
# ---------------------------------------------------------------------------

def test_nas_tolerance_ordering(quick_result):
    res = quick_result("fig12")
    by_bench = {r[0]: r for r in res.rows}
    # last column = slowdown at 10ms
    assert by_bench["IS"][-1] < 1.3
    assert by_bench["CG"][-1] > 1.8


def test_nfs_transport_crossover(quick_result):
    low = quick_result("fig13b")
    high = quick_result("fig13c")
    # at 8 streams: RDMA best at 10us, IPoIB-RC best at 1ms
    row_low = low.rows[-1]
    row_high = high.rows[-1]
    rdma_l, rc_l, ud_l = row_low[1], row_low[2], row_low[3]
    rdma_h, rc_h, _ = row_high[1], row_high[2], row_high[3]
    assert rdma_l > rc_l > ud_l
    assert rc_h > 3 * rdma_h


# ---------------------------------------------------------------------------
# cross-checks between layers
# ---------------------------------------------------------------------------

def test_mpi_peak_close_to_verbs_peak():
    from repro.mpi.benchmarks import run_osu_bw
    s = wan_pair(0.0)
    verbs = perftest.run_write_bw(s.sim, s.a, s.b, 4 * MB, iters=16)
    s = wan_pair(0.0)
    mpi = run_osu_bw(s.sim, s.fabric, 4 * MB, window=64, iters=3)
    assert 0.85 * verbs < mpi <= verbs * 1.01


def test_nfs_rdma_tracks_verbs_4k_curve():
    """Paper §3.7: NFS/RDMA's delay curve mirrors the verbs 4K curve."""
    from repro.nfs import run_iozone_read
    ratios = []
    for delay in (100.0, 1000.0):
        s = wan_pair(delay)
        verbs4k = perftest.run_send_bw(s.sim, s.a, s.b, 4 * KB, iters=64)
        s = wan_pair(delay)
        nfs = run_iozone_read(s.sim, s.fabric, s.a, s.b, "rdma",
                              n_streams=4, read_bytes=4 * MB)
        ratios.append(nfs / verbs4k)
    # both window-limited the same way => roughly constant ratio
    assert ratios[1] == pytest.approx(ratios[0], rel=0.5)
