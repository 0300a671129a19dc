"""The load engine: run one :class:`LoadScenario` against a live stack.

:func:`run_scenario` builds the paper's SP2 testbed, carves it into
client hosts and server hosts, spawns one simulated process per client,
and drives RSRs at the servers according to each fleet's arrival
process.  Everything observable comes back in a :class:`LoadResult`:
offered/delivered counts per fleet, the merged end-to-end latency
histogram (from the :mod:`repro.obs` metrics the runtime records), drop
and retry counters, and the full enquiry report.

Open-loop clients issue on their arrival schedule regardless of
completions; closed-loop clients issue, wait for the server's ``ack``
RSR, think, and repeat.  After the offered-load window closes, the run
*drains*: servers keep polling until delivery counts have been stable
for ``drain_grace`` sim-seconds (capped at ``max_drain``), so a
saturated run's backlog is charged to its throughput instead of
silently vanishing.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from ..core.buffers import Buffer
from ..core.enquiry import EnquiryReport, report as enquiry_report
from ..core.errors import NexusError
from ..obs.metrics import Histogram, LATENCY_BUCKETS_US
from ..obs.stream import SpanSpool, StreamConfig
from ..obs.timeline import Timeline
from ..testbeds import make_sp2
from .arrivals import ClosedLoop, OpenLoop
from .scenario import LoadScenario, ROUTE_LOCAL

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.context import Context
    from ..core.runtime import Nexus


@dataclasses.dataclass
class FleetResult:
    """Per-fleet traffic accounting."""

    name: str
    clients: int
    route: str
    closed: bool
    offered: int = 0
    offered_bytes: int = 0
    delivered: int = 0
    acked: int = 0
    #: Sends abandoned because no healthy method remained (chaos runs).
    send_failures: int = 0

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class LoadResult:
    """Everything one scenario run produced."""

    scenario: LoadScenario
    fleets: dict[str, FleetResult]
    #: Sim time the drain controller declared the run quiet.
    drained_at: float
    #: Sim time of the last delivery (or ack) — the honest end of the
    #: run's useful work, free of the controller's detection grace.
    last_delivery_at: float
    report: EnquiryReport
    #: Merged end-to-end RSR latency histogram (µs), all methods.
    latency: Histogram
    #: Per-(method) latency histogram snapshots for reports.
    latency_by_method: dict[str, Histogram]
    retries: int
    failovers: int
    messages_dropped: int
    bytes_dropped: int
    sim_events: int
    #: Windowed telemetry recorded alongside the aggregates (interval =
    #: ``duration / scenario.timeline_windows``).
    timeline: Timeline | None = None
    #: ``(sim_time, action, detail)`` fault transitions that fired
    #: during the run (empty without chaos).
    fault_log: tuple[tuple[float, str, str], ...] = ()
    #: Spool summary when the run streamed its spans to disk (see
    #: :class:`repro.obs.stream.SpanSpool.summary`), else ``None``.
    stream: dict[str, object] | None = None

    # -- aggregates ----------------------------------------------------------

    @property
    def offered(self) -> int:
        return sum(f.offered for f in self.fleets.values())

    @property
    def delivered(self) -> int:
        return sum(f.delivered for f in self.fleets.values())

    @property
    def duration(self) -> float:
        return self.scenario.duration

    @property
    def elapsed(self) -> float:
        """Window plus whatever drain the backlog needed."""
        return max(self.scenario.duration, self.last_delivery_at)

    @property
    def offered_rate(self) -> float:
        return self.offered / self.scenario.duration

    @property
    def delivered_rate(self) -> float:
        """Delivered throughput in RSRs/sim-second.

        The denominator includes drain time, so a saturated run cannot
        report its offered rate as delivered."""
        return self.delivered / self.elapsed if self.elapsed else 0.0

    @property
    def drop_fraction(self) -> float:
        offered = self.offered
        if offered == 0:
            return 0.0
        return self.messages_dropped / offered

    @property
    def retry_fraction(self) -> float:
        offered = self.offered
        if offered == 0:
            return 0.0
        return self.retries / offered

    def quantile_us(self, q: float) -> float | None:
        """End-to-end latency quantile in µs over all delivered RSRs."""
        return self.latency.quantile(q)

    def portable(self) -> "LoadResult":
        """A copy safe to send across a process boundary.

        The scenario's ``chaos`` builder is the one field that may
        legitimately be a closure over live testbed state (the install
        already happened; the result only needs the fault *log*), so it
        is stripped here rather than letting one unpicklable callable
        poison a whole fleet merge.  Everything else in a LoadResult is
        plain data.
        """
        return dataclasses.replace(
            self,
            scenario=dataclasses.replace(self.scenario, chaos=None))

    def summary(self) -> str:
        p50 = self.quantile_us(0.5)
        p99 = self.quantile_us(0.99)
        fmt = lambda v: "n/a" if v is None else f"{v:.0f} us"  # noqa: E731
        return (f"{self.scenario.name}: offered {self.offered} "
                f"({self.offered_rate:.0f}/s) delivered {self.delivered} "
                f"({self.delivered_rate:.0f}/s) p50 {fmt(p50)} "
                f"p99 {fmt(p99)} drops {self.messages_dropped} "
                f"retries {self.retries}")


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------

#: Attempts for control-plane RSRs (acks, stop) before declaring the
#: scenario unrunnable; each failure pauses one drain_grace so method
#: health has a chance to probe the route back up.
_CONTROL_RETRIES = 50


def _control_rsr(sim, sp, handler: str, make_buffer, pause: float):
    """Send a control-plane RSR, riding out fault windows via retry.

    Unlike fleet traffic (where a failed send is just a lost offered
    request), the run cannot finish without its acks and stop signals,
    so these retry — bounded, because a permanently partitioned control
    plane must fail loudly rather than spin sim-time forever."""
    last: NexusError | None = None
    for _attempt in range(_CONTROL_RETRIES):
        try:
            yield from sp.rsr(handler, make_buffer())
            return
        except NexusError as exc:
            last = exc
            yield sim.timeout(pause)
    raise NexusError(
        f"load: control RSR {handler!r} undeliverable after "
        f"{_CONTROL_RETRIES} attempts") from last

def _merge_latency(nexus: "Nexus") -> tuple[Histogram, dict[str, Histogram]]:
    """Merged + per-method copies of the runtime's rsr_latency_us."""
    merged = Histogram("rsr_latency_us", (), LATENCY_BUCKETS_US)
    by_method: dict[str, Histogram] = {}
    for _name, labels, metric in nexus.obs.metrics.collect("rsr_latency_us"):
        histogram = _t.cast(Histogram, metric)
        if histogram.bounds != merged.bounds:  # pragma: no cover - guard
            raise ValueError("cannot merge histograms with foreign buckets")
        for index, bucket in enumerate(histogram.counts):
            merged.counts[index] += bucket
        merged.count += histogram.count
        merged.total += histogram.total
        for attr in ("min_value", "max_value"):
            value = getattr(histogram, attr)
            if value is None:
                continue
            current = getattr(merged, attr)
            better = (min if attr == "min_value" else max)
            setattr(merged, attr,
                    value if current is None else better(current, value))
        by_method[dict(labels)["method"]] = histogram
    return merged, by_method


def run_scenario(scenario: LoadScenario, *,
                 stream: StreamConfig | None = None) -> LoadResult:
    """Execute one scenario; deterministic for a given scenario value.

    With ``stream``, completed spans spool to sharded JSONL in
    ``stream.directory`` instead of accumulating in memory (see
    :mod:`repro.obs.stream`); the spool is finalized — manifest written,
    open spans flushed — before this returns.
    """
    bed = make_sp2(
        nodes_a=scenario.client_hosts + scenario.local_servers,
        nodes_b=scenario.remote_servers,
        transports=scenario.transports,
        seed=scenario.seed,
        observe=True,
    )
    nexus = bed.nexus
    sim = bed.sim
    spool = SpanSpool(stream).attach(nexus.obs) if stream is not None \
        else None
    timeline = nexus.obs.enable_timeline(
        scenario.duration / scenario.timeline_windows)

    client_hosts = bed.hosts_a[:scenario.client_hosts]
    local_hosts = bed.hosts_a[scenario.client_hosts:]
    remote_hosts = bed.hosts_b[:scenario.remote_servers]

    servers_local = [nexus.context(host, f"srv/local/{index}")
                     for index, host in enumerate(local_hosts)]
    servers_remote = [nexus.context(host, f"srv/remote/{index}")
                      for index, host in enumerate(remote_hosts)]
    servers = servers_local + servers_remote

    placement = scenario.placement
    if placement is not None and placement.forwarder is not None:
        from ..core.forwarding import ForwardingService

        # The paper's configuration: the forwarding processor is one of
        # the partition's own ranks (§4.3), not a free extra node — it
        # keeps serving requests, keeps paying the slow method's poll
        # tax, and additionally relays every other member's external
        # traffic.  Which rank, and over which methods, is the
        # placement's decision.
        forwarder = servers_remote[placement.forwarder]
        service = ForwardingService(nexus, method=placement.method,
                                    fast_method=placement.fast_method)
        service.install(forwarder, servers_remote)

    # Fleet accounting + per-server work queues.  Handlers only enqueue;
    # the server's process performs the (possibly costly) service and
    # the ack send, so one rank's serving capacity is honestly serial.
    fleets = {
        fleet.name: FleetResult(name=fleet.name, clients=fleet.clients,
                                route=fleet.route,
                                closed=isinstance(fleet.arrival, ClosedLoop))
        for fleet in scenario.fleets
    }
    work_queues: dict[int, collections.deque] = {
        ctx.id: collections.deque() for ctx in servers}
    reply_sps: dict[int, dict[int, object]] = {
        ctx.id: {} for ctx in servers}
    #: Per-server stop flags, flipped by a "load/stop" RSR from the
    #: controller context.  Delivering stop as a message (rather than a
    #: bare flag flip) matters: a waiting server only wakes on message
    #: arrival, so an out-of-band flag would deadlock an idle run.
    stop_flags: dict[int, bool] = {ctx.id: False for ctx in servers}
    drained_at = [0.0]
    last_delivery = [0.0]

    for fleet in scenario.fleets:
        stats = fleets[fleet.name]
        handler_name = f"load/{fleet.name}"
        if isinstance(fleet.arrival, ClosedLoop):
            def handler(ctx, _endpoint, buffer, _fleet=fleet, _stats=stats):
                work_queues[ctx.id].append(
                    (_fleet, _stats, buffer.get_int()))
        else:
            def handler(ctx, _endpoint, _buffer, _fleet=fleet, _stats=stats):
                work_queues[ctx.id].append((_fleet, _stats, None))
        for server in servers:
            server.register_handler(handler_name, handler)

    def on_stop(ctx, _endpoint, _buffer):
        stop_flags[ctx.id] = True

    for server in servers:
        server.register_handler("load/stop", on_stop)

    # The controller owns a context of its own so the stop signal rides
    # the same RSR machinery as the traffic it terminates.
    controller_ctx = nexus.context(client_hosts[0], "load/controller")
    stop_sps = [controller_ctx.startpoint_to(server.new_endpoint())
                for server in servers]

    # Client fleets: one context + process per client, round-robin over
    # the client hosts.  Built after any forwarding install so exported
    # descriptor tables already carry the rerouted entries.
    client_bodies: list[_t.Generator] = []
    client_names: list[str] = []
    slot_counter = 0
    for fleet in scenario.fleets:
        targets = (servers_local if fleet.route == ROUTE_LOCAL
                   else servers_remote)
        stats = fleets[fleet.name]
        for index in range(fleet.clients):
            slot = slot_counter
            slot_counter += 1
            host = client_hosts[slot % len(client_hosts)]
            cctx = nexus.context(host, f"load/{fleet.name}/{index}")
            target = targets[index % len(targets)]
            sp = cctx.startpoint_to(target.new_endpoint())
            rng = nexus.streams.stream(f"load/{fleet.name}/{index}")
            handler_name = f"load/{fleet.name}"

            if isinstance(fleet.arrival, OpenLoop):
                def body(_fleet=fleet, _stats=stats, _sp=sp, _rng=rng,
                         _handler=handler_name):
                    for when in _fleet.arrival.times(
                            _rng, 0.0, scenario.duration):
                        now = sim.now
                        if when > now:
                            yield sim.timeout(when - now)
                        size = _fleet.sizes.sample(_rng)
                        _stats.offered += 1
                        _stats.offered_bytes += size
                        try:
                            yield from _sp.rsr(_handler,
                                               Buffer().put_padding(size))
                        except NexusError:
                            # All methods down (chaos): the request is
                            # lost but the fleet keeps offering.
                            _stats.send_failures += 1
            else:
                acked = [0]

                def on_ack(_ctx, _endpoint, _buffer, _acked=acked,
                           _stats=stats):
                    _acked[0] += 1
                    _stats.acked += 1
                    last_delivery[0] = sim.now

                cctx.register_handler("load/ack", on_ack)
                reply_sps[target.id][slot] = target.startpoint_to(
                    cctx.new_endpoint())

                def body(_fleet=fleet, _stats=stats, _sp=sp, _rng=rng,
                         _cctx=cctx, _acked=acked, _handler=handler_name,
                         _slot=slot):
                    arrival = _t.cast(ClosedLoop, _fleet.arrival)
                    target_count = 0
                    while sim.now < scenario.duration:
                        size = _fleet.sizes.sample(_rng)
                        _stats.offered += 1
                        _stats.offered_bytes += size
                        target_count += 1
                        try:
                            yield from _sp.rsr(
                                _handler,
                                Buffer().put_int(_slot).put_padding(size))
                        except NexusError:
                            _stats.send_failures += 1
                            target_count -= 1  # no ack will ever come
                        else:
                            yield from _cctx.wait(
                                lambda: _acked[0] >= target_count)
                        think = arrival.think(_rng)
                        if sim.now + think >= scenario.duration:
                            break
                        if think > 0:
                            yield sim.timeout(think)

            client_bodies.append(body())
            client_names.append(f"client:{fleet.name}:{index}")

    # Server bodies: poll (dispatching as messages land) until the drain
    # controller's stop RSR arrives.  Each dequeued request pays its
    # fleet's service work through busy_work — so every Nexus op of
    # service runs the skip-decimated polling function, which is exactly
    # how untuned TCP polling taxes serving capacity (Table 1's
    # mechanism, applied to a request-serving rank).  Closed-loop
    # requests are acked once served.
    def server_body(ctx: "Context"):
        work = work_queues[ctx.id]
        replies = reply_sps[ctx.id]
        while True:
            yield from ctx.wait(lambda: work or stop_flags[ctx.id])
            while work:
                fleet, stats, client_slot = work.popleft()
                if fleet.service_ops or fleet.service_time:
                    yield from ctx.poll_manager.busy_work(
                        fleet.service_ops, fleet.service_time)
                stats.delivered += 1
                last_delivery[0] = sim.now
                if client_slot is not None:
                    yield from _control_rsr(
                        sim, _t.cast(_t.Any, replies[client_slot]),
                        "load/ack", Buffer, scenario.drain_grace)
            if stop_flags[ctx.id] and not work:
                return

    fault_plan = None
    if scenario.chaos is not None:
        fault_plan = scenario.chaos(bed)
        fault_plan.install(sim)

    client_procs = [nexus.spawn(body, name=name)
                    for body, name in zip(client_bodies, client_names)]
    server_procs = [nexus.spawn(server_body(ctx), name=f"server:{ctx.name}")
                    for ctx in servers]

    def controller():
        yield sim.all_of(client_procs)
        deadline = sim.now + scenario.max_drain
        seen = -1
        while sim.now < deadline:
            current = (sum(f.delivered for f in fleets.values())
                       + sum(f.acked for f in fleets.values()))
            if current == seen:
                break
            seen = current
            grace = min(scenario.drain_grace, deadline - sim.now)
            yield sim.timeout(grace)
        drained_at[0] = sim.now
        for sp in stop_sps:
            yield from _control_rsr(sim, sp, "load/stop", Buffer,
                                    scenario.drain_grace)

    controller_proc = nexus.spawn(controller(), name="load:controller")

    # skip_poll tuning applies to every context in the run.
    skips = scenario.skip_map()
    if skips:
        for ctx in nexus.contexts.values():
            for method, value in skips.items():
                if method in ctx.poll_manager.methods:
                    ctx.poll_manager.set_skip(method, value)

    nexus.run_until(controller_proc, *server_procs)

    if spool is not None:
        spool.finalize(
            contexts={ctx.id: (ctx.name, ctx.host.name)
                      for ctx in nexus.contexts.values()},
            meta={"scenario": scenario.name, "seed": scenario.seed})
    merged, by_method = _merge_latency(nexus)
    snapshot = enquiry_report(nexus)
    return LoadResult(
        scenario=scenario,
        fleets=fleets,
        drained_at=drained_at[0],
        last_delivery_at=last_delivery[0],
        report=snapshot,
        latency=merged,
        latency_by_method=by_method,
        retries=snapshot.health.retries,
        failovers=snapshot.health.failovers,
        messages_dropped=sum(stats.messages_dropped
                             for stats in snapshot.transports.values()),
        bytes_dropped=sum(stats.bytes_dropped
                          for stats in snapshot.transports.values()),
        sim_events=sim.events_processed,
        timeline=timeline,
        fault_log=tuple(fault_plan.log) if fault_plan is not None else (),
        stream=spool.summary() if spool is not None else None,
    )


__all__ = ["FleetResult", "LoadResult", "run_scenario"]
