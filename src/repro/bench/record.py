"""Machine-readable benchmark records and the baseline regression gate.

Every artefact driver prints human tables; this module gives the same
numbers a durable, diffable form.  A :class:`BenchRecord` is a
schema-versioned document of scalar metrics —

* per-method/per-size one-way latencies (Figures 4 and 6),
* climate seconds-per-timestep and coupling waits (Table 1),
* ablation deltas, baseline round times,
* simulation event counts, and span/RSR counts when tracing is on,

each tagged with a *kind* (``sim`` virtual-time or ``count``) and a
*direction* (lower/higher is better, or none) — plus an environment
fingerprint (python version, platform, git SHA, quick/full mode).
Serialisation is sorted-key JSON and every metric is deterministic, so
two identical runs write byte-identical ``BENCH_<label>.json`` files.
Host time is not recorded here; ``perfbench/`` measures it.

:func:`compare_records` is the regression gate: it diffs a current
record against a stored baseline with per-kind tolerance bands — tight
for ``sim`` metrics, looser for ``count`` drift — and renders a
readable diff table.
``python -m repro.bench --baseline BASE.json --check`` exits non-zero
when any gated metric regresses.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import re
import subprocess
import sys
import typing as _t

from ..util.records import ResultTable

#: Document identity; bump the version on any breaking layout change.
SCHEMA = "repro.bench.record"
SCHEMA_VERSION = 1

#: Deterministic virtual-time measurement (gated tightly).
KIND_SIM = "sim"
#: Deterministic count (events, bytes, spans; gated loosely).
KIND_COUNT = "count"
KINDS = (KIND_SIM, KIND_COUNT)

DIR_LOWER = "lower_is_better"
DIR_HIGHER = "higher_is_better"
DIR_NONE = "none"
DIRECTIONS = (DIR_LOWER, DIR_HIGHER, DIR_NONE)

#: Default gate tolerances per kind (relative).
SIM_TOLERANCE = 0.01
COUNT_TOLERANCE = 0.10

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.+=-]+")


def _slug(text: str) -> str:
    """A metric-name-safe slug: word characters plus ``. _ + = -``."""
    return _SLUG_RE.sub("_", text.strip()).strip("_")


class RecordValidationError(ValueError):
    """The document violates the BenchRecord schema."""


@dataclasses.dataclass(frozen=True)
class Metric:
    """One recorded scalar."""

    value: float
    unit: str = ""
    kind: str = KIND_SIM
    direction: str = DIR_LOWER

    def to_json(self) -> dict[str, object]:
        return {"value": self.value, "unit": self.unit, "kind": self.kind,
                "direction": self.direction}


def git_sha() -> str:
    """The current checkout's commit id, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False)
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment_fingerprint(*, quick: bool = False) -> dict[str, str]:
    """Where this record came from (stable within one checkout+machine)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "mode": "quick" if quick else "full",
    }


class BenchRecord:
    """An accumulating document of benchmark metrics.

    Artefact drivers populate it through the ``record_*`` helpers below;
    ``python -m repro.bench --record PATH`` writes it out.
    """

    def __init__(self, label: str = "adhoc", *, quick: bool = False):
        self.label = label
        self.quick = quick
        self.environment = environment_fingerprint(quick=quick)
        self._artefacts: dict[str, dict[str, Metric]] = {}

    def add(self, artefact: str, name: str, value: float, *,
            unit: str = "", kind: str = KIND_SIM,
            direction: str | None = None) -> None:
        """Record one scalar under ``artefact.name``.

        Re-recording an existing name is an error — records are
        append-only so a typo cannot silently overwrite a metric.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {artefact}.{name} is not finite: "
                             f"{value!r}")
        if direction is None:
            direction = DIR_NONE if kind == KIND_COUNT else DIR_LOWER
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown metric direction {direction!r}")
        metrics = self._artefacts.setdefault(_slug(artefact), {})
        key = _slug(name)
        if key in metrics:
            raise ValueError(f"metric {artefact}.{key} recorded twice")
        metrics[key] = Metric(value=value, unit=unit, kind=kind,
                              direction=direction)

    def metrics(self, artefact: str) -> dict[str, Metric]:
        return dict(self._artefacts.get(_slug(artefact), {}))

    def fragments(self) -> tuple[tuple[str, str, float, str, str, str], ...]:
        """The record flattened to plain ``(artefact, name, value,
        unit, kind, direction)`` tuples, sorted.

        This is the wire format fleet workers ship their metrics in —
        picklable without carrying the record class across processes.
        """
        return tuple(
            (artefact, name, metric.value, metric.unit, metric.kind,
             metric.direction)
            for artefact in sorted(self._artefacts)
            for name, metric in sorted(self._artefacts[artefact].items()))

    def absorb(self, fragments: _t.Iterable[
            tuple[str, str, float, str, str, str]]) -> None:
        """Add another record's :meth:`fragments` to this one.

        The append-only duplicate check still applies, so two fleet
        tasks that recorded the same metric fail loudly here instead of
        silently merging.
        """
        for artefact, name, value, unit, kind, direction in fragments:
            self.add(artefact, name, value, unit=unit, kind=kind,
                     direction=direction)

    def __len__(self) -> int:
        return sum(len(m) for m in self._artefacts.values())

    def to_document(self) -> dict[str, object]:
        """The JSON-ready document, byte-identical across repeated runs
        of the same code."""
        artefacts = {
            artefact: {"metrics": {
                name: metric.to_json()
                for name, metric in sorted(self._artefacts[artefact].items())
            }}
            for artefact in sorted(self._artefacts)
        }
        return {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "environment": dict(self.environment),
            "artefacts": artefacts,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=1)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.dumps())
            handle.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BenchRecord {self.label!r} artefacts="
                f"{len(self._artefacts)} metrics={len(self)}>")


# -- document validation -----------------------------------------------------

def _check(condition: bool, reason: str) -> None:
    if not condition:
        raise RecordValidationError(reason)


def validate_record_document(document: object) -> dict[str, object]:
    """Validate one record document; returns summary statistics."""
    _check(isinstance(document, dict), "top level must be an object")
    doc = _t.cast(dict, document)
    _check(doc.get("schema") == SCHEMA,
           f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    _check(doc.get("schema_version") == SCHEMA_VERSION,
           f"unsupported schema_version {doc.get('schema_version')!r}")
    _check(isinstance(doc.get("label"), str), "label must be a string")
    environment = doc.get("environment")
    _check(isinstance(environment, dict), "environment section missing")
    for field in ("python", "platform", "machine", "git_sha", "mode"):
        _check(isinstance(_t.cast(dict, environment).get(field), str),
               f"environment.{field} missing")
    artefacts = doc.get("artefacts")
    _check(isinstance(artefacts, dict), "artefacts section missing")
    metric_count = 0
    for artefact, body in _t.cast(dict, artefacts).items():
        _check(isinstance(body, dict)
               and isinstance(body.get("metrics"), dict),
               f"artefact {artefact!r} lacks a metrics object")
        for name, metric in body["metrics"].items():
            where = f"{artefact}.{name}"
            _check(isinstance(metric, dict), f"{where} is not an object")
            value = metric.get("value")
            _check(isinstance(value, (int, float)) and math.isfinite(value),
                   f"{where}.value must be a finite number")
            _check(metric.get("kind") in KINDS,
                   f"{where}.kind invalid: {metric.get('kind')!r}")
            _check(metric.get("direction") in DIRECTIONS,
                   f"{where}.direction invalid: {metric.get('direction')!r}")
            _check(isinstance(metric.get("unit"), str),
                   f"{where}.unit must be a string")
            metric_count += 1
    return {"artefacts": len(_t.cast(dict, artefacts)),
            "metrics": metric_count,
            "mode": _t.cast(dict, environment)["mode"]}


def load_record(path: str) -> dict[str, object]:
    """Load and validate a record file."""
    with open(path) as handle:
        document = json.load(handle)
    validate_record_document(document)
    return _t.cast(dict, document)


# -- regression gate ---------------------------------------------------------

STATUS_OK = "ok"
STATUS_REGRESSED = "regressed"
STATUS_IMPROVED = "improved"
STATUS_CHANGED = "changed"          # direction-less gated metric drifted
STATUS_MISSING = "missing"          # in baseline, absent from current
STATUS_NEW = "new"                  # in current, absent from baseline


@dataclasses.dataclass(frozen=True)
class MetricDiff:
    """One metric's baseline-vs-current comparison."""

    artefact: str
    name: str
    baseline: float | None
    current: float | None
    kind: str
    direction: str
    rel_change: float | None
    status: str

    @property
    def gates(self) -> bool:
        """Does this diff fail the gate?"""
        return self.status in (STATUS_REGRESSED, STATUS_CHANGED,
                               STATUS_MISSING)

    @property
    def label(self) -> str:
        return f"{self.artefact}.{self.name}"


@dataclasses.dataclass
class ComparisonResult:
    """Everything the gate learned from one baseline/current diff."""

    diffs: list[MetricDiff]
    warnings: list[str]

    @property
    def regressions(self) -> list[MetricDiff]:
        return [diff for diff in self.diffs if diff.gates]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, *, show_ok: bool = False) -> str:
        """The diff table plus a one-line verdict."""
        rows = [diff for diff in self.diffs
                if show_ok or diff.status != STATUS_OK]
        lines = list(self.warnings)
        if rows:
            table = ResultTable("regression gate: current vs baseline",
                                ["baseline", "current", "delta %"])
            for diff in rows:
                table.add(
                    diff.label,
                    float("nan") if diff.baseline is None else diff.baseline,
                    float("nan") if diff.current is None else diff.current,
                    (float("nan") if diff.rel_change is None
                     else 100.0 * diff.rel_change),
                    note=diff.status,
                )
            lines.append(table.render(precision=3))
        compared = sum(1 for d in self.diffs
                       if d.status not in (STATUS_MISSING, STATUS_NEW))
        verdict = (f"gate: {compared} metrics compared, "
                   f"{len(self.regressions)} regression(s)")
        if self.ok:
            verdict += " — OK"
        lines.append(verdict)
        return "\n".join(lines)


def _flat_metrics(document: dict[str, object]
                  ) -> dict[tuple[str, str], dict[str, object]]:
    flat: dict[tuple[str, str], dict[str, object]] = {}
    for artefact, body in _t.cast(dict, document["artefacts"]).items():
        for name, metric in body["metrics"].items():
            flat[(artefact, name)] = metric
    return flat


def _diff_one(artefact: str, name: str, base: dict[str, object],
              cur: dict[str, object], sim_tolerance: float,
              count_tolerance: float) -> MetricDiff:
    base_value = _t.cast(float, base["value"])
    cur_value = _t.cast(float, cur["value"])
    kind = _t.cast(str, cur.get("kind", base.get("kind", KIND_SIM)))
    direction = _t.cast(str, cur.get("direction",
                                     base.get("direction", DIR_NONE)))
    if base_value == 0.0:
        rel = 0.0 if cur_value == 0.0 else math.copysign(math.inf, cur_value)
    else:
        rel = (cur_value - base_value) / abs(base_value)

    tolerance = count_tolerance if kind == KIND_COUNT else sim_tolerance
    if direction == DIR_LOWER:
        status = (STATUS_REGRESSED if rel > tolerance
                  else STATUS_IMPROVED if rel < -tolerance
                  else STATUS_OK)
    elif direction == DIR_HIGHER:
        status = (STATUS_REGRESSED if rel < -tolerance
                  else STATUS_IMPROVED if rel > tolerance
                  else STATUS_OK)
    else:
        status = STATUS_CHANGED if abs(rel) > tolerance else STATUS_OK
    return MetricDiff(artefact=artefact, name=name, baseline=base_value,
                      current=cur_value, kind=kind, direction=direction,
                      rel_change=rel, status=status)


def compare_records(baseline: dict[str, object], current: dict[str, object],
                    *, sim_tolerance: float = SIM_TOLERANCE,
                    count_tolerance: float = COUNT_TOLERANCE
                    ) -> ComparisonResult:
    """Diff ``current`` against ``baseline`` with per-kind tolerances.

    Gate semantics:

    * ``sim`` metrics regress when they move past ``sim_tolerance`` in
      the bad direction (they are deterministic, so any real movement is
      a code change);
    * ``count`` metrics (event/span/byte counts) gate at the looser
      ``count_tolerance`` in either direction — drift means behaviour
      changed;
    * a metric present in the baseline but missing from the current
      record is a regression; artefacts that were not run at all are
      skipped with a warning (so subset runs stay useful).
    """
    warnings: list[str] = []
    base_env = _t.cast(dict, baseline.get("environment", {}))
    cur_env = _t.cast(dict, current.get("environment", {}))
    if base_env.get("mode") != cur_env.get("mode"):
        warnings.append(
            f"warning: comparing mode={cur_env.get('mode')!r} against "
            f"baseline mode={base_env.get('mode')!r} — deltas are not "
            "meaningful across workload sizes")

    base_flat = _flat_metrics(baseline)
    cur_flat = _flat_metrics(current)
    cur_artefacts = {artefact for artefact, _name in cur_flat}
    skipped = sorted({artefact for artefact, _name in base_flat}
                     - cur_artefacts)
    if skipped:
        warnings.append("warning: baseline artefacts not in this run "
                        f"(skipped): {', '.join(skipped)}")

    diffs: list[MetricDiff] = []
    for key in sorted(set(base_flat) | set(cur_flat)):
        artefact, name = key
        base = base_flat.get(key)
        cur = cur_flat.get(key)
        if base is None:
            assert cur is not None
            diffs.append(MetricDiff(
                artefact=artefact, name=name, baseline=None,
                current=_t.cast(float, cur["value"]),
                kind=_t.cast(str, cur["kind"]),
                direction=_t.cast(str, cur["direction"]),
                rel_change=None, status=STATUS_NEW))
        elif cur is None:
            if artefact in cur_artefacts:
                diffs.append(MetricDiff(
                    artefact=artefact, name=name,
                    baseline=_t.cast(float, base["value"]), current=None,
                    kind=_t.cast(str, base["kind"]),
                    direction=_t.cast(str, base["direction"]),
                    rel_change=None, status=STATUS_MISSING))
        else:
            diffs.append(_diff_one(
                artefact, name, base, cur, sim_tolerance, count_tolerance))
    return ComparisonResult(diffs=diffs, warnings=warnings)


# -- artefact populate helpers -----------------------------------------------
#
# Imported lazily by type only: each helper takes the driver's result
# object, so record.py never imports the (heavier) driver modules.

def record_figure4(record: BenchRecord, fig) -> None:
    """Per-series, per-size one-way latencies from a Figure 4 result."""
    for panel_name, panel in (("small", fig.small), ("large", fig.large)):
        for series_name in sorted(panel):
            series = panel[series_name]
            for size, one_way_us in zip(series.xs, series.ys):
                record.add(
                    "figure4",
                    f"{panel_name}.{_slug(series_name)}."
                    f"{int(size)}B.one_way_us",
                    one_way_us, unit="us")


def record_figure6(record: BenchRecord, fig) -> None:
    """Per-size, per-pair, per-skip one-way latencies from Figure 6."""
    for size in sorted(fig.panels):
        for pair_name in sorted(fig.panels[size]):
            series = fig.panels[size][pair_name]
            for skip, one_way_us in zip(series.xs, series.ys):
                record.add(
                    "figure6",
                    f"{int(size)}B.{_slug(pair_name)}."
                    f"skip{int(skip)}.one_way_us",
                    one_way_us, unit="us")


def record_table1(record: BenchRecord, table) -> None:
    """Seconds/step, coupling wait, and sim-event counts per Table 1 row."""
    for label in sorted(table.results):
        result = table.results[label]
        base = _slug(label)
        record.add("table1", f"{base}.seconds_per_step",
                   result.seconds_per_step, unit="s")
        record.add("table1", f"{base}.coupling_wait_s",
                   result.coupling_wait, unit="s")
        record.add("table1", f"{base}.sim_events",
                   result.events_processed, unit="events", kind=KIND_COUNT)


def record_ablations(record: BenchRecord, *, blocking=None, layering=None,
                     adaptive=None, startpoints=None,
                     rendezvous=None) -> None:
    """Key deltas from whichever ablation results are provided."""
    if blocking is not None:
        for field in ("mpl_unified", "mpl_skip20", "mpl_blocking",
                      "tcp_unified", "tcp_skip20", "tcp_blocking"):
            record.add("ablations", f"blocking.{field}_us",
                       getattr(blocking, field) * 1e6, unit="us")
    if layering is not None:
        record.add("ablations", "mpi_layering.overhead_frac",
                   layering.overhead, unit="frac")
    if adaptive is not None:
        record.add("ablations", "adaptive.mpl_one_way_us",
                   adaptive.adaptive_mpl * 1e6, unit="us")
        record.add("ablations", "adaptive.tcp_one_way_us",
                   adaptive.adaptive_tcp * 1e6, unit="us")
        record.add("ablations", "adaptive.best_static_mpl_us",
                   adaptive.best_static_mpl() * 1e6, unit="us")
    if startpoints is not None:
        record.add("ablations", "startpoint.full_bytes",
                   startpoints.full_bytes, unit="B", kind=KIND_COUNT,
                   direction=DIR_LOWER)
        record.add("ablations", "startpoint.lightweight_bytes",
                   startpoints.lightweight_bytes, unit="B", kind=KIND_COUNT,
                   direction=DIR_LOWER)
        record.add("ablations", "startpoint.saving_frac",
                   startpoints.saving, unit="frac", direction=DIR_HIGHER)
    if rendezvous is not None:
        record.add("ablations", "rendezvous.eager_time_s",
                   rendezvous.eager_time, unit="s")
        record.add("ablations", "rendezvous.rendezvous_time_s",
                   rendezvous.rendezvous_time, unit="s")
        record.add("ablations", "rendezvous.eager_parked_bytes",
                   rendezvous.eager_parked_bytes, unit="B", kind=KIND_COUNT,
                   direction=DIR_LOWER)
        record.add("ablations", "rendezvous.rendezvous_parked_bytes",
                   rendezvous.rendezvous_parked_bytes, unit="B",
                   kind=KIND_COUNT, direction=DIR_LOWER)
        record.add("ablations", "rendezvous.parked_reduction_frac",
                   rendezvous.parked_reduction, unit="frac",
                   direction=DIR_HIGHER)


def record_baselines(record: BenchRecord, results: _t.Mapping[str, object]
                     ) -> None:
    """ms/round per prior-art system from the mixed workload."""
    for label in sorted(results):
        result = _t.cast(_t.Any, results[label])
        record.add("baselines", f"{_slug(label)}.ms_per_round",
                   result.time_per_round * 1e3, unit="ms")


def record_chaos(record: BenchRecord, chaos) -> None:
    """Fault arc and recovery counters from a chaos climate result."""
    record.add("chaos", "baseline_time_s", chaos.baseline_time, unit="s")
    record.add("chaos", "total_time_s", chaos.climate.total_time, unit="s")
    record.add("chaos", "seconds_per_step",
               chaos.climate.seconds_per_step, unit="s")
    record.add("chaos", "outage_start_s", chaos.outage_start, unit="s",
               direction=DIR_NONE)
    record.add("chaos", "outage_duration_s", chaos.outage_duration,
               unit="s", direction=DIR_NONE)
    record.add("chaos", "retries", chaos.retries, unit="retries",
               kind=KIND_COUNT)
    record.add("chaos", "failovers", chaos.failovers, unit="failovers",
               kind=KIND_COUNT)
    record.add("chaos", "probes", chaos.probes, unit="probes",
               kind=KIND_COUNT)
    record.add("chaos", "health_events", len(chaos.health.events),
               unit="events", kind=KIND_COUNT)
    record.add("chaos", "recovered", float(chaos.recovered), unit="bool",
               kind=KIND_COUNT, direction=DIR_HIGHER)


def record_load(record: BenchRecord, bench) -> None:
    """SLO scenario outcomes and capacity search results (load tier)."""
    for name, result in bench.results.items():
        slug = _slug(name)
        verdict = bench.verdicts[name]
        record.add("load", f"{slug}.offered", result.offered,
                   unit="rsrs", kind=KIND_COUNT)
        record.add("load", f"{slug}.delivered", result.delivered,
                   unit="rsrs", kind=KIND_COUNT, direction=DIR_HIGHER)
        record.add("load", f"{slug}.retries", result.retries,
                   unit="retries", kind=KIND_COUNT)
        record.add("load", f"{slug}.dropped", result.messages_dropped,
                   unit="msgs", kind=KIND_COUNT)
        record.add("load", f"{slug}.delivered_rate", result.delivered_rate,
                   unit="rsr/s", direction=DIR_HIGHER)
        record.add("load", f"{slug}.p50_us",
                   result.quantile_us(0.5) or 0.0, unit="us")
        record.add("load", f"{slug}.p99_us",
                   result.quantile_us(0.99) or 0.0, unit="us")
        record.add("load", f"{slug}.slo_passed", float(verdict.passed),
                   unit="bool", kind=KIND_COUNT, direction=DIR_HIGHER)
        record_windowed(record, "load", slug, verdict.windowed)
    for name, cap in bench.capacities.items():
        slug = _slug(name)
        record.add("load", f"capacity.{slug}.rate", cap.capacity,
                   unit="rsr/s", direction=DIR_HIGHER)
        record.add("load", f"capacity.{slug}.probes", len(cap.probes),
                   unit="probes", kind=KIND_COUNT, direction=DIR_NONE)


def record_windowed(record: BenchRecord, artefact: str, slug: str,
                    windowed) -> None:
    """Windowed-verdict metrics for one scenario (no-op without one).

    ``worst_window_p99_us`` is recorded only when at least one window
    measured anything, and ``recovery_ms`` only for runs whose fault
    plan cleared — the metric *set* stays a pure function of the
    scenario, so byte-determinism across identical runs holds.
    """
    if windowed is None:
        return
    record.add(artefact, f"{slug}.window_violations",
               len(windowed.violations), unit="windows", kind=KIND_COUNT)
    record.add(artefact, f"{slug}.window_empty",
               len(windowed.empty_windows), unit="windows",
               kind=KIND_COUNT)
    record.add(artefact, f"{slug}.windowed_passed",
               float(windowed.passed), unit="bool", kind=KIND_COUNT,
               direction=DIR_NONE)
    if windowed.worst_p99_us is not None:
        record.add(artefact, f"{slug}.worst_window_p99_us",
                   windowed.worst_p99_us, unit="us")
    if windowed.fault_clear_s is not None:
        record.add(artefact, f"{slug}.fault_clear_s",
                   windowed.fault_clear_s, unit="s", direction=DIR_NONE)
    if windowed.recovery_time_s is not None:
        record.add(artefact, f"{slug}.recovery_ms",
                   windowed.recovery_time_s * 1e3, unit="ms")
    if windowed.saturation_onset_window is not None:
        record.add(artefact, f"{slug}.saturation_onset_window",
                   windowed.saturation_onset_window, unit="window",
                   kind=KIND_COUNT, direction=DIR_NONE)


def record_analysis(record: BenchRecord, bench) -> None:
    """Windowed chaos outcome, comm-graph shape, and critical paths."""
    chaos = bench.chaos_result
    record.add("analysis", "chaos.offered", chaos.offered, unit="rsrs",
               kind=KIND_COUNT)
    record.add("analysis", "chaos.delivered", chaos.delivered,
               unit="rsrs", kind=KIND_COUNT, direction=DIR_HIGHER)
    record.add("analysis", "chaos.retries", chaos.retries, unit="retries",
               kind=KIND_COUNT)
    record.add("analysis", "chaos.failovers", chaos.failovers,
               unit="failovers", kind=KIND_COUNT)
    record.add("analysis", "chaos.slo_passed",
               float(bench.chaos_verdict.passed), unit="bool",
               kind=KIND_COUNT, direction=DIR_HIGHER)
    record_windowed(record, "analysis", "chaos",
                    bench.chaos_verdict.windowed)

    record.add("analysis", "graph.nodes", len(bench.graph.nodes),
               unit="nodes", kind=KIND_COUNT)
    record.add("analysis", "graph.edges", len(bench.graph.edges),
               unit="edges", kind=KIND_COUNT)
    record.add("analysis", "graph.messages", bench.graph.total_messages,
               unit="msgs", kind=KIND_COUNT)
    record.add("analysis", "graph.bytes", bench.graph.total_bytes,
               unit="B", kind=KIND_COUNT)
    record.add("analysis", "graph.cut_fraction_bytes",
               _t.cast(float, bench.partition_costs["cut_fraction_bytes"]),
               unit="frac", direction=DIR_NONE)

    record.add("analysis", "critpath.paths", len(bench.paths),
               unit="paths", kind=KIND_COUNT)
    if bench.paths:
        top = bench.paths[0]
        record.add("analysis", "critpath.top_latency_us",
                   top.latency_s * 1e6, unit="us")
        record.add("analysis", "critpath.top_wire_hops", top.wire_hops,
                   unit="hops", kind=KIND_COUNT)
        from ..obs.critpath import phase_attribution

        for phase, share in phase_attribution(bench.paths).items():
            record.add("analysis", f"critpath.phase.{_slug(phase)}_us",
                       share * 1e6, unit="us")


def record_place(record: BenchRecord, bench) -> None:
    """Demand shares, partitioner bake-off, and the placement search."""
    record.add("place", "graph.nodes", len(bench.graph.nodes),
               unit="nodes", kind=KIND_COUNT)
    record.add("place", "graph.edges", len(bench.graph.edges),
               unit="edges", kind=KIND_COUNT)
    record.add("place", "demand.messages", bench.demand.messages,
               unit="msgs", kind=KIND_COUNT)
    record.add("place", "demand.mean_bytes", bench.demand.mean_bytes,
               unit="B", kind=KIND_COUNT, direction=DIR_NONE)
    for index, share in bench.demand.shares:
        record.add("place", f"demand.share.serve{index}", share,
                   unit="frac", direction=DIR_NONE)

    for name, cost in bench.partitions.items():
        base = f"partition.{_slug(name)}"
        record.add("place", f"{base}.cut_ms", cost.wire_cut_s * 1e3,
                   unit="ms")
        record.add("place", f"{base}.imbalance", cost.imbalance,
                   unit="x")
        record.add("place", f"{base}.score_ms", cost.score * 1e3,
                   unit="ms")

    for candidate in bench.search.candidates:
        record.add("place",
                   f"candidate.{_slug(candidate.label)}.static_rps",
                   candidate.static.static_capacity, unit="req/s",
                   direction=DIR_HIGHER)
    for validated in bench.search.validated:
        base = f"capacity.{_slug(validated.label)}"
        record.add("place", f"{base}.rate", validated.capacity,
                   unit="req/s", direction=DIR_HIGHER)
        record.add("place", f"{base}.probes",
                   len(validated.result.probes), unit="probes",
                   kind=KIND_COUNT)

    best = bench.search.best
    record.add("place", "best.capacity", best.capacity, unit="req/s",
               direction=DIR_HIGHER)
    record.add("place", "best.is_forwarding",
               float(best.placement.forwarder is not None), unit="bool",
               kind=KIND_COUNT, direction=DIR_HIGHER)
    record.add("place", "best.forwarder",
               -1.0 if best.placement.forwarder is None
               else float(best.placement.forwarder), unit="rank",
               kind=KIND_COUNT, direction=DIR_NONE)
    record.add("place", "agreement", bench.agreement, unit="frac",
               direction=DIR_HIGHER)
    record.add("place", "hill.matches_best",
               float(bench.hill.label == best.label), unit="bool",
               kind=KIND_COUNT, direction=DIR_HIGHER)


def record_observability(record: BenchRecord, artefact: str,
                         runs: _t.Sequence[tuple[_t.Any, _t.Any]]) -> None:
    """Span/RSR totals for one artefact's traced runtimes."""
    if not runs:
        return
    record.add(artefact, "trace.runtimes", len(runs),
               unit="runtimes", kind=KIND_COUNT)
    record.add(artefact, "trace.spans",
               sum(len(obs.spans) for obs, _nexus in runs),
               unit="spans", kind=KIND_COUNT)
    record.add(artefact, "trace.rsrs_started",
               sum(obs.rsrs_started for obs, _nexus in runs),
               unit="rsrs", kind=KIND_COUNT)
    record.add(artefact, "trace.rsrs_finished",
               sum(obs.rsrs_finished for obs, _nexus in runs),
               unit="rsrs", kind=KIND_COUNT)


__all__ = [
    "BenchRecord",
    "COUNT_TOLERANCE",
    "ComparisonResult",
    "DIRECTIONS",
    "DIR_HIGHER",
    "DIR_LOWER",
    "DIR_NONE",
    "KINDS",
    "KIND_COUNT",
    "KIND_SIM",
    "Metric",
    "MetricDiff",
    "RecordValidationError",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SIM_TOLERANCE",
    "compare_records",
    "environment_fingerprint",
    "git_sha",
    "load_record",
    "record_ablations",
    "record_analysis",
    "record_baselines",
    "record_chaos",
    "record_figure4",
    "record_figure6",
    "record_load",
    "record_observability",
    "record_place",
    "record_table1",
    "record_windowed",
    "validate_record_document",
]
