"""The bench load artefact: recording, validation, CLI wiring."""

import json

import pytest

from repro.bench.load import (
    CAPACITY_SLO,
    capacity_variants,
    scenarios,
    slos,
)
from repro.bench.record import BenchRecord, record_load
from repro.load import SLO, evaluate, find_capacity, run_scenario
from repro.obs.validate import validate_file, validate_load_record


class _MiniBench:
    """A LoadBench-shaped object from one tiny real run."""

    def __init__(self):
        scenario = scenarios(quick=True)["steady"]
        result = run_scenario(scenario)
        verdict = evaluate(result, slos()["steady"])
        capacity = find_capacity(
            capacity_variants(quick=True)["untuned"], CAPACITY_SLO,
            low=100.0, high=400.0, tolerance=0.3, max_probes=3)
        self.results = {"steady": result}
        self.verdicts = {"steady": verdict}
        self.capacities = {"untuned": capacity}
        self.quick = True


@pytest.fixture(scope="module")
def bench():
    return _MiniBench()


class TestSuiteDefinitions:
    def test_every_scenario_has_an_slo(self):
        assert set(scenarios(quick=True)) == set(slos())

    def test_quick_mode_shrinks_duration_only(self):
        quick = scenarios(quick=True)["steady"]
        full = scenarios(quick=False)["steady"]
        assert quick.duration < full.duration
        assert quick.fleets == full.fleets

    def test_capacity_variants_differ_only_in_tuning(self):
        variants = capacity_variants(quick=True)
        assert set(variants) == {"untuned", "tuned-skip-poll",
                                 "forwarding"}
        assert variants["untuned"].skip_poll == ()
        assert variants["tuned-skip-poll"].skip_poll != ()
        assert variants["forwarding"].placement.forwarder is not None
        rates = {v.open_rate for v in variants.values()}
        assert len(rates) == 1


class TestRecordLoad:
    def test_record_round_trips_through_validator(self, bench, tmp_path):
        record = BenchRecord("load-test", quick=True)
        record_load(record, bench)
        path = tmp_path / "BENCH_load.json"
        record.write(str(path))
        kind, summary = validate_file(str(path))
        assert kind == "record"
        assert summary["load_scenarios"] == 1
        assert summary["capacity_searches"] == 1

    def test_record_is_byte_deterministic(self, bench, tmp_path):
        paths = []
        for index in range(2):
            record = BenchRecord("load-test", quick=True)
            record_load(record, bench)
            path = tmp_path / f"r{index}.json"
            record.write(str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_validator_rejects_incomplete_scenario(self, bench, tmp_path):
        record = BenchRecord("load-test", quick=True)
        record_load(record, bench)
        path = tmp_path / "bad.json"
        record.write(str(path))
        document = json.loads(path.read_text())
        del document["artefacts"]["load"]["metrics"]["steady.p99_us"]
        with pytest.raises(ValueError, match="lacks p99_us"):
            validate_load_record(document)

    def test_validator_rejects_delivered_over_offered(self, bench,
                                                      tmp_path):
        record = BenchRecord("load-test", quick=True)
        record_load(record, bench)
        path = tmp_path / "bad.json"
        record.write(str(path))
        document = json.loads(path.read_text())
        metrics = document["artefacts"]["load"]["metrics"]
        metrics["steady.delivered"]["value"] = (
            metrics["steady.offered"]["value"] + 1)
        with pytest.raises(ValueError, match="delivered"):
            validate_load_record(document)

    def test_record_without_load_artefact_passes_trivially(self):
        summary = validate_load_record({"artefacts": {}})
        assert summary == {"load_scenarios": 0, "capacity_searches": 0}


class TestCLI:
    def test_bench_cli_runs_load_quick(self, capsys, tmp_path):
        from repro.bench.__main__ import main as bench_main

        path = tmp_path / "out.json"
        assert bench_main(["load", "--quick", "--record",
                           str(path)]) == 0
        out = capsys.readouterr().out
        assert "Load scenarios under SLO" in out
        assert "capacity" in out.lower()
        kind, summary = validate_file(str(path))
        assert kind == "record"
        assert summary["load_scenarios"] == 3
        assert summary["capacity_searches"] == 3
