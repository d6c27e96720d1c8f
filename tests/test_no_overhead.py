"""Guard: attaching a metrics registry must not perturb the simulation.

The observability contract is "observe, never steer": a run with a
registry attached must produce *identical* simulated results — same
bandwidth, same event count, same virtual clock — as the same run
without one.  This is what lets golden metric snapshots stand in for
protocol behaviour: if metrics could shift timing, the snapshots would
pin the instrumentation instead of the protocols.
"""

import fnmatch
import json

import pytest

from repro.core import wan_pair
from repro.obs import MetricsRegistry, to_json, use_registry
from repro.verbs import perftest

DELAY_US = 1000.0
SIZE = 65536
ITERS = 32


#: Process names the per-frame senders used to run as generators.
PUMP_PROCESSES = ("link:*", "*.pump", "rcqp*.send", "udqp*.send")


def _run(attach_metrics, transport="rc", registry=None, size=SIZE):
    if attach_metrics:
        registry = registry if registry is not None else MetricsRegistry()
        with use_registry(registry):
            s = wan_pair(DELAY_US)
            bw = perftest.run_send_bw(s.sim, s.a, s.b, size, iters=ITERS,
                                      transport=transport)
    else:
        s = wan_pair(DELAY_US)
        bw = perftest.run_send_bw(s.sim, s.a, s.b, size, iters=ITERS,
                                  transport=transport)
        assert s.sim.metrics is None
    s.sim.run()  # drain so the comparison covers the whole run
    return bw, s.sim.event_count, s.sim.now


def test_registry_attachment_does_not_change_results():
    plain = _run(attach_metrics=False)
    observed = _run(attach_metrics=True)
    assert observed[0] == plain[0], "bandwidth changed under observation"
    assert observed[1] == plain[1], "event count changed under observation"
    assert observed[2] == plain[2], "virtual clock changed under observation"


@pytest.mark.parametrize("transport,size", [("rc", SIZE), ("ud", 2048)])
def test_metrics_run_creates_no_pump_process(transport, size):
    """Links, Longbows and QP send paths run the same callback program
    with or without a registry: no generator pump is ever started, so
    no ``sim.process_resumes`` series exists for one."""
    registry = MetricsRegistry()
    _run(attach_metrics=True, transport=transport, registry=registry,
         size=size)
    processes = [m["labels"]["process"]
                 for m in json.loads(to_json(registry))["metrics"]
                 if (m["component"], m["name"]) == ("sim", "process_resumes")]
    assert processes, "the workload's application processes are counted"
    pumps = [name for name in processes
             if any(fnmatch.fnmatch(name, pat) for pat in PUMP_PROCESSES)]
    assert pumps == []


def test_detached_components_hold_no_metric_handles():
    s = wan_pair(0.0)
    bw = perftest.run_send_bw(s.sim, s.a, s.b, 4096, iters=4)
    assert bw > 0
    assert s.sim.metrics is None
    assert s.sim._m_events is None


def test_default_registry_restored_even_on_exception():
    from repro.obs import get_default_registry
    assert get_default_registry() is None
    with pytest.raises(RuntimeError):
        with use_registry(MetricsRegistry()) as reg:
            assert get_default_registry() is reg
            raise RuntimeError("escape")
    assert get_default_registry() is None
