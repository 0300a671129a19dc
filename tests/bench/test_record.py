"""Tests for BenchRecord documents and the baseline regression gate."""

import copy
import json

import pytest

from repro.baselines import run_mixed_workload
from repro.bench import record as record_mod
from repro.bench.__main__ import ARTEFACTS, main as bench_main
from repro.bench.record import (
    BenchRecord,
    RecordValidationError,
    compare_records,
    load_record,
    record_baselines,
    validate_record_document,
)


def small_record(label="test"):
    """A record populated from a tiny (deterministic) real workload."""
    record = BenchRecord(label, quick=True)
    results = {"nexus skip_poll=1": run_mixed_workload("nexus", rounds=2)}
    record_baselines(record, results)
    record.add("baselines", "sim_events", 1000.0, unit="events",
               kind="count")
    return record


class TestBenchRecord:
    def test_document_validates(self):
        summary = validate_record_document(small_record().to_document())
        assert summary["artefacts"] == 1
        assert summary["mode"] == "quick"

    def test_environment_fingerprint_fields(self):
        env = small_record().to_document()["environment"]
        assert set(env) == {"python", "implementation", "platform",
                            "machine", "git_sha", "mode"}

    def test_metric_names_are_slugged(self):
        metrics = small_record().metrics("baselines")
        assert "nexus_skip_poll=1.ms_per_round" in metrics

    def test_duplicate_metric_rejected(self):
        record = small_record()
        with pytest.raises(ValueError, match="twice"):
            record.add("baselines", "sim_events", 5.0)

    def test_non_finite_value_rejected(self):
        record = BenchRecord()
        with pytest.raises(ValueError, match="finite"):
            record.add("a", "m", float("nan"))

    def test_byte_deterministic_across_identical_runs(self):
        assert small_record().dumps() == small_record().dumps()

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        record = small_record()
        record.write(str(path))
        document = load_record(str(path))
        assert document == record.to_document()

    def test_load_rejects_invalid_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(RecordValidationError):
            load_record(str(path))


class TestValidation:
    def test_rejects_bad_kind_and_direction(self):
        document = small_record().to_document()
        bad = copy.deepcopy(document)
        metric = next(iter(
            bad["artefacts"]["baselines"]["metrics"].values()))
        metric["kind"] = "vibes"
        with pytest.raises(RecordValidationError, match="kind"):
            validate_record_document(bad)
        bad = copy.deepcopy(document)
        metric = next(iter(
            bad["artefacts"]["baselines"]["metrics"].values()))
        metric["direction"] = "sideways"
        with pytest.raises(RecordValidationError, match="direction"):
            validate_record_document(bad)

    def test_rejects_missing_environment_field(self):
        document = small_record().to_document()
        del document["environment"]["git_sha"]
        with pytest.raises(RecordValidationError, match="git_sha"):
            validate_record_document(document)


class TestCompareRecords:
    def test_identical_records_pass(self):
        document = small_record().to_document()
        comparison = compare_records(document, copy.deepcopy(document))
        assert comparison.ok
        assert "0 regression(s)" in comparison.render()

    def test_sim_regression_detected_and_named(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        name = "nexus_skip_poll=1.ms_per_round"
        current["artefacts"]["baselines"]["metrics"][name]["value"] *= 1.5
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert [d.label for d in comparison.regressions] == (
            [f"baselines.{name}"])
        assert f"baselines.{name}" in comparison.render()
        assert "regressed" in comparison.render()

    def test_improvement_is_not_a_regression(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        name = "nexus_skip_poll=1.ms_per_round"
        current["artefacts"]["baselines"]["metrics"][name]["value"] *= 0.5
        comparison = compare_records(baseline, current)
        assert comparison.ok
        assert any(d.status == "improved" for d in comparison.diffs)

    def test_within_tolerance_passes(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        name = "nexus_skip_poll=1.ms_per_round"
        current["artefacts"]["baselines"]["metrics"][name]["value"] *= 1.005
        assert compare_records(baseline, current).ok
        assert not compare_records(baseline, current,
                                   sim_tolerance=0.001).ok

    def test_count_drift_gates_loosely(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        metrics = current["artefacts"]["baselines"]["metrics"]
        metrics["sim_events"]["value"] *= 1.05    # within 10%
        assert compare_records(baseline, current).ok
        metrics["sim_events"]["value"] = 2000.0   # way outside
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert comparison.regressions[0].status == "changed"

    def test_missing_metric_is_a_regression(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        del current["artefacts"]["baselines"]["metrics"]["sim_events"]
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert comparison.regressions[0].status == "missing"

    def test_unrun_artefact_skipped_with_warning(self):
        baseline = small_record().to_document()
        current = BenchRecord("test", quick=True)
        current.add("figure4", "some.metric_us", 1.0, unit="us")
        comparison = compare_records(baseline, current.to_document())
        assert comparison.ok
        assert any("skipped" in w for w in comparison.warnings)

    def test_mode_mismatch_warns(self):
        baseline = small_record().to_document()
        current = copy.deepcopy(baseline)
        current["environment"]["mode"] = "full"
        comparison = compare_records(baseline, current)
        assert any("mode" in w for w in comparison.warnings)


class TestBenchCli:
    """End-to-end: record, re-record, perturb, gate."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("record") / "BENCH_quick.json"
        assert bench_main(
            ["baselines", "--quick", "--record", str(path)]) == 0
        return path

    def test_record_file_validates(self, recorded):
        document = load_record(str(recorded))
        assert document["label"] == "quick"
        assert "baselines" in document["artefacts"]

    def test_record_is_byte_deterministic(self, recorded, tmp_path):
        again = tmp_path / "BENCH_again.json"
        assert bench_main(
            ["baselines", "--quick", "--record", str(again)]) == 0
        assert again.read_bytes() == recorded.read_bytes()

    def test_check_passes_against_own_record(self, recorded):
        assert bench_main(["baselines", "--quick", "--baseline",
                           str(recorded), "--check"]) == 0

    def test_check_fails_against_perturbed_copy(self, recorded, tmp_path,
                                                capsys):
        document = json.loads(recorded.read_text())
        name = "nexus_skip_poll=1.ms_per_round"
        document["artefacts"]["baselines"]["metrics"][name]["value"] *= 0.5
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(document))
        assert bench_main(["baselines", "--quick", "--baseline",
                           str(perturbed), "--check"]) == 1
        out = capsys.readouterr().out
        assert f"baselines.{name}" in out
        assert "regressed" in out

    def test_check_requires_baseline(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["baselines", "--quick", "--check"])

    def test_record_holds_no_host_time(self, recorded):
        document = load_record(str(recorded))
        metrics = document["artefacts"]["baselines"]["metrics"]
        assert {metric["kind"] for metric in metrics.values()} <= {
            "sim", "count"}
        assert "wall_s" not in metrics

    @pytest.mark.parametrize("flag", ["--wall", "--runs=3",
                                      "--wall-tolerance=0.5",
                                      "--append-history=h.jsonl",
                                      "--record-wall"])
    def test_host_time_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            bench_main(["baselines", "--quick", flag])

    def test_list_names_every_artefact_once(self, capsys):
        assert bench_main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == list(ARTEFACTS)
        assert "fleet" not in listed


def test_git_sha_resilient(monkeypatch):
    """Outside a git checkout the fingerprint degrades to 'unknown'."""
    def boom(*args, **kwargs):
        raise OSError("no git")

    monkeypatch.setattr(record_mod.subprocess, "run", boom)
    assert record_mod.git_sha() == "unknown"
