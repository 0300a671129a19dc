"""Declarative load scenarios: client fleets over the multimethod stack.

A :class:`LoadScenario` is the full description of one synthetic
workload: which client fleets exist, how their arrivals and message
sizes are drawn (:mod:`repro.load.arrivals`), which route their RSRs
take (intra-partition MPL, inter-partition TCP/UDP, or through a
dedicated forwarding node), how the stack is tuned (``skip_poll``,
placement), and which faults fire while it runs.  Scenarios are plain
frozen data — :func:`repro.load.clients.run_scenario` is the engine
that executes one.

Routes
------
``"local"``
    Clients target servers inside their own SP2 partition; automatic
    selection picks MPL.
``"remote"``
    Clients target servers in the other partition; selection picks the
    inter-partition method (TCP by default, UDP when enabled and
    preferred).  With a ``placement`` naming a forwarder this traffic
    instead lands on the forwarding processor — one of the
    remote-serving ranks — and hops to the other servers over the
    placement's fast method, the paper's §4.3 alternative to tuned
    polling.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .arrivals import ArrivalProcess, LoadSpecError, OpenLoop, SizeDist

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..place.plan import Placement
    from ..simnet.faults import FaultPlan
    from ..testbeds import SP2Testbed

ROUTE_LOCAL = "local"
ROUTE_REMOTE = "remote"
ROUTES = (ROUTE_LOCAL, ROUTE_REMOTE)

#: A builder invoked with the live testbed; returns a FaultPlan to
#: install before the fleet starts (load-under-chaos composition).
ChaosBuilder = _t.Callable[["SP2Testbed"], "FaultPlan"]


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """One homogeneous population of synthetic clients."""

    name: str
    clients: int
    arrival: ArrivalProcess
    sizes: SizeDist
    route: str = ROUTE_REMOTE
    #: Per-request service work at the server, charged through
    #: ``PollManager.busy_work``: ``service_ops`` Nexus operations (each
    #: runs the skip-decimated polling function — the paper's poll tax)
    #: plus ``service_time`` sim-seconds of pure computation.  Zero
    #: means delivery-only (a pure communication benchmark).
    service_ops: int = 0
    service_time: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise LoadSpecError(f"fleet {self.name!r} has no clients")
        if self.route not in ROUTES:
            raise LoadSpecError(
                f"fleet {self.name!r} route must be one of {ROUTES}, "
                f"got {self.route!r}")
        if self.service_ops < 0 or self.service_time < 0:
            raise LoadSpecError(
                f"fleet {self.name!r} has negative service work")

    @property
    def open_rate(self) -> float:
        """Total offered RSRs/sim-second (0 for closed-loop fleets)."""
        if isinstance(self.arrival, OpenLoop):
            return self.clients * self.arrival.rate
        return 0.0


@dataclasses.dataclass(frozen=True)
class LoadScenario:
    """A complete, deterministic load-test description."""

    name: str
    fleets: tuple[FleetSpec, ...]
    #: Offered-load window in sim-seconds; clients stop issuing at the
    #: window's end, then the run drains.
    duration: float = 2.0
    seed: int = 0
    #: Partition-A hosts carrying client contexts.
    client_hosts: int = 2
    #: Dedicated server hosts: partition A (``local`` route targets) and
    #: partition B (``remote`` route targets).
    local_servers: int = 1
    remote_servers: int = 2
    transports: tuple[str, ...] = ("local", "mpl", "tcp")
    #: Per-method ``skip_poll`` applied to every context (the paper's
    #: tuning knob; ignored for methods a context does not poll).
    skip_poll: tuple[tuple[str, int], ...] = ()
    #: Where components sit: a :class:`repro.place.Placement` naming the
    #: forwarding rank (or ``None`` for direct routing) and the methods
    #: on each leg.  The engine consults only this field.
    placement: "Placement | None" = None
    #: Optional fault-plan builder, installed before clients start.
    chaos: ChaosBuilder | None = None
    #: Drain: after the window, wait until delivery counts have been
    #: stable for ``drain_grace`` sim-seconds, capped at ``max_drain``.
    drain_grace: float = 0.05
    max_drain: float = 2.0
    #: Windowed-telemetry resolution: the offered-load window is carved
    #: into this many fixed-interval timeline windows (the drain phase
    #: extends the timeline past the window at the same interval).
    timeline_windows: int = 24

    def __post_init__(self) -> None:
        if not self.fleets:
            raise LoadSpecError(f"scenario {self.name!r} has no fleets")
        if self.duration <= 0:
            raise LoadSpecError(f"bad duration {self.duration!r}")
        if self.timeline_windows < 1:
            raise LoadSpecError(
                f"bad timeline_windows {self.timeline_windows!r}")
        if self.client_hosts < 1 or self.remote_servers < 1:
            raise LoadSpecError(
                f"scenario {self.name!r} needs at least one client host "
                "and one remote server")
        if self.local_servers < 1 and any(
                fleet.route == ROUTE_LOCAL for fleet in self.fleets):
            raise LoadSpecError(
                f"scenario {self.name!r} has a local-route fleet but no "
                "local servers")
        names = [fleet.name for fleet in self.fleets]
        if len(set(names)) != len(names):
            raise LoadSpecError(
                f"scenario {self.name!r} has duplicate fleet names")
        if self.placement is not None:
            forwarder = self.placement.forwarder
            if forwarder is not None and forwarder >= self.remote_servers:
                raise LoadSpecError(
                    f"scenario {self.name!r} places the forwarder on "
                    f"remote rank {forwarder} but has only "
                    f"{self.remote_servers} remote servers")
            methods = ((self.placement.method, self.placement.fast_method)
                       if forwarder is not None else (self.placement.method,))
            for method in methods:
                if method not in self.transports:
                    raise LoadSpecError(
                        f"scenario {self.name!r} placement uses method "
                        f"{method!r} outside its transports "
                        f"{self.transports}")

    # -- derived quantities --------------------------------------------------

    @property
    def open_rate(self) -> float:
        """Total open-loop offered rate, RSRs/sim-second."""
        return sum(fleet.open_rate for fleet in self.fleets)

    def skip_map(self) -> dict[str, int]:
        return dict(self.skip_poll)

    # -- capacity-sweep support ----------------------------------------------

    def scaled(self, factor: float) -> "LoadScenario":
        """A copy with every open-loop fleet's rate scaled by ``factor``.

        Closed-loop fleets are left untouched — they are background
        population, not swept offered load.  This is the knob the
        capacity finder (:mod:`repro.load.capacity`) bisects.
        """
        if factor <= 0:
            raise LoadSpecError(f"bad rate scale factor {factor!r}")
        fleets = tuple(
            dataclasses.replace(
                fleet,
                arrival=dataclasses.replace(
                    fleet.arrival, rate=fleet.arrival.rate * factor))
            if isinstance(fleet.arrival, OpenLoop) else fleet
            for fleet in self.fleets
        )
        return dataclasses.replace(self, fleets=fleets)

    def at_rate(self, total_rate: float) -> "LoadScenario":
        """A copy whose open-loop fleets jointly offer ``total_rate``."""
        base = self.open_rate
        if base <= 0:
            raise LoadSpecError(
                f"scenario {self.name!r} has no open-loop fleets to scale")
        return self.scaled(total_rate / base)


__all__ = [
    "ChaosBuilder",
    "FleetSpec",
    "LoadScenario",
    "ROUTES",
    "ROUTE_LOCAL",
    "ROUTE_REMOTE",
]
