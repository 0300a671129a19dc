"""Tests for :func:`repro.obs.watching_runtimes`: registering every
runtime created in a scope without switching tracing on."""

import repro.obs as obs
from repro.core.buffers import Buffer
from repro.testbeds import make_sp2


def _tiny_run():
    bed = make_sp2(nodes_a=2, nodes_b=1)
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0], "A")
    b = nexus.context(bed.hosts_a[1], "B")
    b.register_handler("h", lambda c, e, buf: None)
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        yield from sp.rsr("h", Buffer())

    def receiver():
        yield from b.wait(lambda: b.rsrs_dispatched > 0)

    nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(max_events=100_000)


def test_watching_runtimes_counts_without_tracing():
    with obs.watching_runtimes() as watched:
        _tiny_run()
    assert len(watched) == 1
    assert watched[0].sim.events_processed > 0
    # Crucially, watching must NOT have switched tracing on.
    assert not obs.default_observe()
    assert watched[0].obs.enabled is False


def test_watching_runtimes_restores_previous_scope():
    with obs.watching_runtimes() as outer:
        with obs.watching_runtimes() as inner:
            _tiny_run()
        assert len(inner) == 1 and outer == []
        _tiny_run()
        assert len(outer) == 1
