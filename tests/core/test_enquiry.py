"""Tests for the enquiry API (Section 2.1's requirement)."""

import pytest

from repro.core import enquiry
from repro.core.buffers import Buffer
from repro.testbeds import make_sp2


@pytest.fixture
def bed():
    return make_sp2(nodes_a=2, nodes_b=1)


def test_available_methods(bed):
    ctx = bed.nexus.context(bed.hosts_a[0])
    assert enquiry.available_methods(ctx) == ["local", "mpl", "tcp"]


def test_enabled_transports(bed):
    assert enquiry.enabled_transports(bed.nexus) == ["local", "mpl", "tcp"]


def test_applicable_methods_per_link(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    same = nexus.context(bed.hosts_a[1])
    far = nexus.context(bed.hosts_b[0])
    sp = (a.new_startpoint().bind(same.new_endpoint())
          .bind(far.new_endpoint()))
    assert enquiry.applicable_methods(a, sp) == [["mpl", "tcp"], ["tcp"]]


def test_current_methods_none_before_use(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_a[1])
    sp = a.startpoint_to(b.new_endpoint())
    assert enquiry.current_methods(sp) == [None]
    sp.ensure_connected(sp.links[0])
    assert enquiry.current_methods(sp) == ["mpl"]


def test_link_profile_and_estimate(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_b[0])
    sp = a.startpoint_to(b.new_endpoint())
    assert enquiry.link_profile(a, sp) is None
    assert enquiry.estimate_one_way(a, sp, 1000) is None
    sp.ensure_connected(sp.links[0])
    profile = enquiry.link_profile(a, sp)
    assert profile.bandwidth == pytest.approx(8 * 1024 * 1024)
    estimate = enquiry.estimate_one_way(a, sp, 8 * 1024 * 1024)
    assert 1.0 < estimate < 1.2  # ~1 s serialisation + latency + overheads


def test_estimate_matches_cost_model_exactly(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_b[0])
    sp = a.startpoint_to(b.new_endpoint())
    sp.ensure_connected(sp.links[0])
    profile = enquiry.link_profile(a, sp)
    costs = sp.links[0].comm.transport.costs
    nbytes = 4096
    expected = (costs.send_overhead + profile.latency
                + nbytes / profile.bandwidth + costs.recv_overhead)
    assert enquiry.estimate_one_way(a, sp, nbytes) == pytest.approx(expected)


def test_applicable_methods_empty_for_restricted_remote(bed):
    """A remote publishing only a method the sender cannot use yields an
    empty applicability list for that link (selection would fail)."""
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    far = nexus.context(bed.hosts_b[0], methods=("local", "mpl"))
    sp = a.new_startpoint().bind(far.new_endpoint())
    # mpl is partition-local; the cross-partition link has no usable entry.
    assert enquiry.applicable_methods(a, sp) == [[]]


def test_link_profile_out_of_range_link(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_a[1])
    sp = a.startpoint_to(b.new_endpoint())
    with pytest.raises(IndexError):
        enquiry.link_profile(a, sp, link_index=5)


def test_estimate_scales_with_size(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_a[1])
    sp = a.startpoint_to(b.new_endpoint())
    sp.ensure_connected(sp.links[0])
    small = enquiry.estimate_one_way(a, sp, 0)
    large = enquiry.estimate_one_way(a, sp, 10 ** 6)
    assert large > small


def test_poll_report(bed):
    nexus = bed.nexus
    ctx = nexus.context(bed.hosts_a[0])
    ctx.poll_manager.set_skip("tcp", 4)

    def body():
        for _ in range(8):
            yield from ctx.poll()

    done = nexus.spawn(body())
    nexus.run(until=done)
    report = enquiry.report(nexus).polling[ctx.id]
    assert report.cycles == 8
    assert report.fires["mpl"] == 8
    assert report.fires["tcp"] == 2
    assert report.skip == {"local": 1, "mpl": 1, "tcp": 4}
    assert report.hit_rates["tcp"] == 0.0  # fired, found nothing


def test_poll_report_distinguishes_never_fired_from_empty(bed):
    """hit_rate None = the method never fired (no data); 0.0 = it fired
    and found nothing.  A skip_poll high enough that tcp never comes up
    in 2 cycles exercises the never-fired case."""
    nexus = bed.nexus
    ctx = nexus.context(bed.hosts_a[0])
    ctx.poll_manager.set_skip("tcp", 100)

    def body():
        for _ in range(2):
            yield from ctx.poll()

    done = nexus.spawn(body())
    nexus.run(until=done)
    report = enquiry.report(nexus).polling[ctx.id]
    assert report.fires.get("tcp", 0) == 0
    assert report.hit_rates["tcp"] is None
    assert report.hit_rates["mpl"] == 0.0


def test_transport_report_counts_traffic(bed):
    nexus = bed.nexus
    a = nexus.context(bed.hosts_a[0])
    b = nexus.context(bed.hosts_a[1])
    b.register_handler("h", lambda c, e, buf: None)
    sp = a.startpoint_to(b.new_endpoint())

    def sender():
        yield from sp.rsr("h", Buffer().put_padding(500))

    def receiver():
        yield from b.wait(lambda: b.rsrs_dispatched == 1)

    done = nexus.spawn(receiver())
    nexus.spawn(sender())
    nexus.run(until=done)
    report = enquiry.report(nexus).transports
    assert report["mpl"].messages_sent == 1
    assert report["mpl"].bytes_sent >= 500
    assert report["tcp"].messages_sent == 0
    assert report["mpl"].bytes_dropped == 0


def test_transport_report_counts_dropped_bytes(bed):
    nexus = bed.nexus
    transport = nexus.transports.get("tcp")
    transport.record_drop(nbytes=700)
    transport.record_drop(nbytes=300)
    report = enquiry.report(nexus).transports
    assert report["tcp"].messages_dropped == 2
    assert report["tcp"].bytes_dropped == 1000
    assert nexus.tracer.count("tcp.bytes_dropped") == 1000


class TestPhaseStatsFromHistogram:
    """Edge cases of the histogram -> PhaseStats summarisation."""

    def test_empty_histogram_yields_none(self):
        from repro.obs.metrics import LATENCY_BUCKETS_US, Histogram

        histogram = Histogram("rsr_phase_us", (), LATENCY_BUCKETS_US)
        assert enquiry.PhaseStats.from_histogram(histogram) is None

    def test_single_sample_quantiles(self):
        from repro.obs.metrics import LATENCY_BUCKETS_US, Histogram

        histogram = Histogram("rsr_phase_us", (), LATENCY_BUCKETS_US)
        histogram.observe(37.0)
        stats = enquiry.PhaseStats.from_histogram(histogram)
        assert stats is not None
        assert stats.count == 1
        assert stats.mean_us == pytest.approx(37.0)
        assert stats.max_us == pytest.approx(37.0)
        # Quantiles are bucket upper bounds: 37 us lands in the 50 us
        # bucket, and with one sample every quantile is that bound.
        assert stats.p50_us == 50.0
        assert stats.p95_us == 50.0

    def test_single_overflow_sample_reports_exact_max(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("rsr_phase_us", (), (1.0, 10.0))
        histogram.observe(123.0)  # beyond the last bound: overflow bucket
        stats = enquiry.PhaseStats.from_histogram(histogram)
        assert stats is not None
        assert stats.p50_us == pytest.approx(123.0)
        assert stats.p95_us == pytest.approx(123.0)
        assert stats.max_us == pytest.approx(123.0)

    def test_two_samples_split_quantiles(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("rsr_phase_us", (), (1.0, 10.0, 100.0))
        histogram.observe(5.0)
        histogram.observe(50.0)
        stats = enquiry.PhaseStats.from_histogram(histogram)
        assert stats is not None
        assert stats.count == 2
        assert stats.p50_us == 10.0    # first sample's bucket bound
        assert stats.p95_us == 100.0   # second sample's bucket bound
