"""Shared pytest configuration: a per-test wall-clock timeout, and the
session-scoped ``quick_result`` fixture (one computation per experiment
shared by every test that reads a quick result).

The fault-injection suite exercises recovery paths that, when broken,
manifest as *hangs* (a retransmission pump that never fires, an RPC
retry loop that never times out).  CI must turn those into failures,
and ``pytest-timeout`` is not part of the pinned toolchain — so a
minimal ``SIGALRM`` alarm wraps every test instead.

The default budget is generous (no tier-1 test takes more than a few
seconds); override with the ``REPRO_TEST_TIMEOUT_S`` environment
variable, ``0`` disabling the alarm entirely.  On platforms without
``SIGALRM`` (or off the main thread) tests simply run unbounded, as
before.

The distributed-backend suite (``tests/test_exp_backends.py``) adds a
second failure mode the alarm alone cannot always convert: a blocking
socket operation on a thread *other than* the main one (worker threads,
heartbeats) never feels ``SIGALRM``.  So the same budget is also
installed as the process-wide default socket timeout — any socket a
test (or code under test) creates without an explicit timeout gives up
with ``socket.timeout`` before the alarm would have fired, instead of
wedging a non-main thread forever.
"""

import os
import signal
import socket
import threading

import pytest

DEFAULT_TIMEOUT_S = 120.0


def _timeout_s() -> float:
    try:
        return float(os.environ.get("REPRO_TEST_TIMEOUT_S", ""))
    except ValueError:
        return DEFAULT_TIMEOUT_S


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    budget = _timeout_s()
    # Bound blocking socket ops too (threads never see SIGALRM): any
    # socket created without an explicit timeout inherits the budget.
    old_socket_default = socket.getdefaulttimeout()
    if budget > 0:
        socket.setdefaulttimeout(budget)
    usable = (budget > 0 and hasattr(signal, "SIGALRM")
              and hasattr(signal, "setitimer")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        try:
            yield
        finally:
            socket.setdefaulttimeout(old_socket_default)
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded the {budget:g}s wall-clock budget "
                    f"(REPRO_TEST_TIMEOUT_S to adjust)", pytrace=False)

    old_handler = signal.signal(signal.SIGALRM, _expired)
    old_timer = signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, old_handler)
        socket.setdefaulttimeout(old_socket_default)


@pytest.fixture(scope="session")
def quick_result():
    """``quick_result(exp_id, flow_mode=None)``: the quick-mode result of
    one experiment, computed once per session and shared by the oracle,
    integration, determinism and CLI tests.  Callers must not mutate
    the returned :class:`~repro.core.registry.ExperimentResult`."""
    from repro.core.registry import run_experiment
    from repro.flow.context import activated
    memo = {}

    def get(exp_id, flow_mode=None):
        key = (exp_id, flow_mode)
        if key not in memo:
            with activated(flow_mode):
                memo[key] = run_experiment(exp_id, quick=True)
        return memo[key]

    return get
