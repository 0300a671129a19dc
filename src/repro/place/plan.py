"""The :class:`Placement` spec: where components sit, compiled to a scenario.

A placement answers the questions the paper's §4.3 configuration
hard-codes: which partition each rank belongs to (the ``assignment``),
whether remote traffic is relayed through a forwarding processor and on
which serving rank it sits (``forwarder``), and which methods carry the
inter-partition and relay legs (``method`` / ``fast_method`` — the
per-link method override).  Placements are plain frozen data, picklable
for :mod:`repro.fleet` task payloads, and compile into a
:class:`repro.load.scenario.LoadScenario` via :func:`compile_scenario`
— the engine consults only ``scenario.placement``.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from .errors import PlacementError

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..load.scenario import LoadScenario

PLAN_SCHEMA = "repro.place.plan"
PLAN_SCHEMA_VERSION = 1

_JSON_KW: dict[str, object] = {"sort_keys": True,
                               "separators": (",", ":")}


@dataclasses.dataclass(frozen=True)
class Placement:
    """One candidate answer to "where should everything run?".

    ``assignment`` maps graph ranks to partition labels (informational
    provenance from the partitioners; the engine's host carving is fixed
    by the scenario).  ``forwarder`` indexes the scenario's
    remote-serving ranks: ``None`` routes remote traffic directly over
    ``method``; an index installs the §4.3 forwarding processor on that
    rank, relaying the other members' traffic over ``fast_method``.
    """

    assignment: tuple[tuple[int, str], ...] = ()
    forwarder: int | None = None
    method: str = "tcp"
    fast_method: str = "mpl"

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(rank), str(label))
                             for rank, label in self.assignment))
        ranks = [rank for rank, _label in pairs]
        if len(set(ranks)) != len(ranks):
            raise PlacementError(
                f"placement assignment repeats ranks: {ranks}")
        object.__setattr__(self, "assignment", pairs)
        if self.forwarder is not None and self.forwarder < 0:
            raise PlacementError(
                f"forwarder index must be >= 0, got {self.forwarder}")
        if not self.method or not self.fast_method:
            raise PlacementError(
                "placement methods must be non-empty strings")

    def assignment_map(self) -> dict[int, str]:
        return dict(self.assignment)

    def describe(self) -> str:
        if self.forwarder is None:
            return f"direct/{self.method}"
        return (f"forward@{self.forwarder} "
                f"({self.method}->{self.fast_method})")


def forwarding_placement(*, forwarder: int = 0, method: str = "tcp",
                         fast_method: str = "mpl") -> Placement:
    """Remote traffic relayed through a forwarding processor.

    Defaults are the paper's hand-picked §4.3 configuration: forwarder
    on remote-serving rank 0, TCP inter-partition, MPL relay.
    """
    return Placement(forwarder=forwarder, method=method,
                     fast_method=fast_method)


def direct_placement(*, method: str = "tcp") -> Placement:
    """Remote traffic straight over the inter-partition method."""
    return Placement(forwarder=None, method=method)


def compile_scenario(base: "LoadScenario",
                     placement: Placement) -> "LoadScenario":
    """``base`` with this placement installed (validated against it).

    Validation — forwarder index within ``remote_servers``, methods
    available in the scenario's transport set — happens in the
    scenario's own ``__post_init__``, so an invalid combination fails
    here, loudly, not mid-run.
    """
    return dataclasses.replace(base, placement=placement)


# -- export -------------------------------------------------------------------

def placement_document(placement: Placement, *,
                       meta: _t.Mapping[str, object] | None = None
                       ) -> dict[str, object]:
    """The placement as a JSON-ready, deterministic document."""
    return {
        "schema": PLAN_SCHEMA,
        "schema_version": PLAN_SCHEMA_VERSION,
        "assignment": [[rank, label]
                       for rank, label in placement.assignment],
        "forwarder": placement.forwarder,
        "method": placement.method,
        "fast_method": placement.fast_method,
        "meta": dict(meta) if meta else {},
    }


def dumps_placement(placement: Placement, *,
                    meta: _t.Mapping[str, object] | None = None) -> str:
    return json.dumps(placement_document(placement, meta=meta),
                      **_JSON_KW)  # type: ignore[arg-type]


def write_placement(path: str, placement: Placement, *,
                    meta: _t.Mapping[str, object] | None = None) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_placement(placement, meta=meta))
        handle.write("\n")


__all__ = [
    "PLAN_SCHEMA",
    "PLAN_SCHEMA_VERSION",
    "Placement",
    "compile_scenario",
    "direct_placement",
    "dumps_placement",
    "forwarding_placement",
    "placement_document",
    "write_placement",
]
