"""Placement specs: normalization, scenario compilation, and the
exported plan document."""

import json

import pytest

from repro.load import FixedSize, FleetSpec, LoadScenario, OpenLoop
from repro.load.scenario import LoadSpecError
from repro.obs.validate import (
    TraceValidationError,
    validate_placement_document,
)
from repro.place import (
    Placement,
    PlacementError,
    compile_scenario,
    direct_placement,
    dumps_placement,
    forwarding_placement,
    placement_document,
    write_placement,
)


def scenario(**overrides):
    spec = dict(
        name="plan-test",
        fleets=(FleetSpec("rpc", clients=2, arrival=OpenLoop(rate=40.0),
                          sizes=FixedSize(1024), route="remote"),),
        duration=0.1, remote_servers=3)
    spec.update(overrides)
    return LoadScenario(**spec)


class TestPlacementSpec:
    def test_assignment_normalises_to_sorted_tuples(self):
        placement = Placement(assignment=((3, "B"), (1, "A")))
        assert placement.assignment == ((1, "A"), (3, "B"))
        assert placement.assignment_map() == {1: "A", 3: "B"}

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(PlacementError, match="repeats ranks"):
            Placement(assignment=((0, "A"), (0, "B")))

    def test_negative_forwarder_rejected(self):
        with pytest.raises(PlacementError, match=">= 0"):
            Placement(forwarder=-1)

    def test_empty_method_rejected(self):
        with pytest.raises(PlacementError, match="non-empty"):
            Placement(method="")

    def test_describe_names_the_route(self):
        assert direct_placement().describe() == "direct/tcp"
        assert forwarding_placement(forwarder=2).describe() \
            == "forward@2 (tcp->mpl)"


class TestCompileScenario:
    def test_placement_installs_and_mirrors_forwarding(self):
        compiled = compile_scenario(scenario(),
                                    forwarding_placement(forwarder=1))
        assert compiled.placement.forwarder == 1
        direct = compile_scenario(scenario(), direct_placement())
        assert direct.placement.forwarder is None

    def test_forwarder_must_index_a_serving_rank(self):
        with pytest.raises(LoadSpecError, match="forwarder"):
            compile_scenario(scenario(remote_servers=2),
                             forwarding_placement(forwarder=2))

    def test_methods_must_be_in_the_transport_set(self):
        with pytest.raises(LoadSpecError, match="transport"):
            compile_scenario(scenario(),
                             forwarding_placement(fast_method="warp"))

    def test_scaled_copies_keep_the_placement(self):
        placed = scenario(placement=forwarding_placement())
        assert placed.at_rate(100.0).placement == forwarding_placement()


class TestPlanDocument:
    def test_document_round_trips_through_the_validator(self):
        placement = forwarding_placement(forwarder=2)
        placement = Placement(assignment=((0, "P0"), (1, "P1")),
                              forwarder=2)
        document = json.loads(dumps_placement(placement,
                                              meta={"note": "test"}))
        summary = validate_placement_document(document)
        assert summary["forwarder"] == 2
        assert summary["ranks"] == 2

    def test_dumps_is_byte_deterministic(self):
        placement = forwarding_placement()
        assert dumps_placement(placement) == dumps_placement(placement)

    def test_write_and_sniff(self, tmp_path):
        from repro.obs.validate import validate_file

        path = tmp_path / "placement.json"
        write_placement(str(path), direct_placement())
        kind, summary = validate_file(str(path))
        assert kind == "plan"
        assert summary["forwarder"] is None

    def test_validator_rejects_duplicate_assignment_ranks(self):
        document = placement_document(direct_placement())
        document["assignment"] = [[0, "A"], [0, "B"]]
        with pytest.raises(TraceValidationError, match="repeats rank"):
            validate_placement_document(document)

    def test_validator_rejects_bad_forwarder(self):
        document = placement_document(direct_placement())
        document["forwarder"] = -3
        with pytest.raises(TraceValidationError, match="forwarder"):
            validate_placement_document(document)
