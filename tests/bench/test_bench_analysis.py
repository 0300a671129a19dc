"""The analysis artefact: shape criteria, recording, deterministic exports."""

import json

import pytest

from repro.bench.analysis import (
    analysis_bench,
    chaos_scenario,
    chaos_slo,
    check_analysis_shape,
    forwarding_scenario,
)
from repro.bench.record import (
    BenchRecord,
    record_analysis,
    validate_record_document,
)
from repro.obs.validate import validate_file


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    import repro.bench.analysis as module

    export_dir = tmp_path_factory.mktemp("analysis")
    module.EXPORT_DIR = str(export_dir)
    try:
        result = analysis_bench(quick=True)
    finally:
        module.EXPORT_DIR = None
    return result, export_dir


class TestScenarioDefinitions:
    def test_chaos_has_a_failover_method_available(self):
        assert "udp" in chaos_scenario().transports

    def test_forwarding_run_forwards(self):
        scenario = forwarding_scenario()
        assert scenario.placement.forwarder is not None
        assert scenario.remote_servers == 3

    def test_chaos_slo_is_detection_only(self):
        slo = chaos_slo()
        assert slo.window_p99_latency_us is not None
        assert not slo.enforce_windows


class TestShape:
    def test_shape_criteria_hold(self, bench):
        check_analysis_shape(bench[0])

    def test_render_covers_all_three_surfaces(self, bench):
        text = bench[0].render()
        assert "Windowed SLO under chaos" in text
        assert "Communication graph" in text
        assert "critical paths" in text


class TestExports:
    def test_all_four_documents_are_written_and_valid(self, bench):
        _, export_dir = bench
        for name, kind in (("timeline.json", "timeline"),
                           ("graph.json", "graph"),
                           ("critpath.json", "critpath")):
            found, _summary = validate_file(str(export_dir / name))
            assert found == kind
        dot = (export_dir / "graph.dot").read_text()
        assert dot.startswith('digraph "analysis-forward" {')

    def test_timeline_meta_carries_the_fault_log(self, bench):
        result, export_dir = bench
        document = json.loads((export_dir / "timeline.json").read_text())
        logged = [tuple(entry) for entry in document["meta"]["fault_log"]]
        assert logged == list(result.chaos_result.fault_log)
        assert {action for _t, action, _d in logged} \
            == {"flaky", "clear_flaky"}


class TestRecording:
    def test_record_analysis_validates_and_is_deterministic(self, bench):
        one = BenchRecord(label="x", quick=True)
        record_analysis(one, bench[0])
        two = BenchRecord(label="x", quick=True)
        record_analysis(two, bench[0])
        assert one.dumps() == two.dumps()
        validate_record_document(json.loads(one.dumps()))

    def test_record_covers_every_surface(self, bench):
        record = BenchRecord(label="x", quick=True)
        record_analysis(record, bench[0])
        metrics = json.loads(record.dumps())["artefacts"]["analysis"][
            "metrics"]
        assert metrics["chaos.slo_passed"]["value"] == 1
        assert metrics["chaos.window_violations"]["value"] > 0
        assert metrics["chaos.recovery_ms"]["value"] > 0
        assert metrics["graph.edges"]["value"] > 0
        assert 0.0 < metrics["graph.cut_fraction_bytes"]["value"] < 1.0
        assert metrics["critpath.paths"]["value"] > 0
        assert any(name.startswith("critpath.phase.") for name in metrics)
