"""Wall-clock smoke test: the kernel must stay fast.

A coarse tripwire, not a benchmark: it asserts events-per-second above a
floor set far below what any healthy checkout achieves (roughly 10-20x
headroom on 2020s hardware), so it only fires on order-of-magnitude
slowdowns — an accidentally quadratic queue, debug logging left on the
hot path, and the like.  The precise tracking of wall-clock performance
lives in ``perfbench/`` (declared by ``BENCHMARK.json``).

Set ``REPRO_SKIP_PERF_SMOKE=1`` to skip (e.g. on heavily shared or
instrumented runners where even the generous floor is unreliable).
"""

import os
import time

import pytest

import repro.obs as obs
from repro.apps.pingpong import nexus_pingpong
from repro.simnet import Simulator

#: Conservative floors (simulator events per second of wall time).
KERNEL_FLOOR = 50_000
STACK_FLOOR = 10_000

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_SMOKE", "") not in ("", "0"),
    reason="REPRO_SKIP_PERF_SMOKE set",
)


def _best_rate(run_once, attempts=3):
    """Best events-per-second over a few attempts (shrugs off a one-off
    scheduler stall that a single timing could not)."""
    best = 0.0
    for _ in range(attempts):
        started = time.perf_counter()
        events = run_once()
        elapsed = time.perf_counter() - started
        best = max(best, events / max(elapsed, 1e-9))
    return best


def test_kernel_timeout_throughput():
    """Raw engine: timer-chain processes, nothing but the kernel."""

    def run_once():
        sim = Simulator()

        def chain():
            for _ in range(5_000):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(chain())
        sim.run()
        assert sim.events_processed >= 50_000
        return sim.events_processed

    rate = _best_rate(run_once)
    assert rate > KERNEL_FLOOR, (
        f"kernel throughput {rate:,.0f} events/s below the "
        f"{KERNEL_FLOOR:,} floor — hot-path regression?")


def test_full_stack_throughput():
    """Nexus stack end to end: RSR ping-pong over the SP2 testbed."""

    def run_once():
        with obs.watching_runtimes() as watched:
            nexus_pingpong(64, 200)
        events = sum(nexus.sim.events_processed for nexus in watched)
        assert events > 0
        return events

    rate = _best_rate(run_once)
    assert rate > STACK_FLOOR, (
        f"stack throughput {rate:,.0f} events/s below the "
        f"{STACK_FLOOR:,} floor — hot-path regression?")
