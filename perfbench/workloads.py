"""The benchmark's workloads: seed-derived inputs, operations, checks.

Every workload is a batch job driven from one process: an operation (one
simulation run, one ``repro.bench`` artefact driver, or one fleet batch)
starts only
after the previous one has returned.  ``inputs(seed)`` derives every
generated input from the workload seed; the program sees only those
inputs.  ``DEFAULT_SEED`` reproduces the paper artefacts exactly (the
sweep points and scenario seeds the committed ``repro.bench`` records
use), so its digest doubles as an identity check on those artefacts.

Importing this module imports nothing from ``repro``: a workload's
``inputs`` does that, so the set-up probe can time it.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import random
import typing as _t

DEFAULT_SEED = 0


@dataclasses.dataclass
class Op:
    """One operation of a pass.

    ``fn`` runs it and returns its raw result; ``summary`` turns that
    result into the JSON-able simulated values the digest covers.
    ``tasks`` is how many operations it counts as (a fleet batch counts
    each task), and ``failed_tasks`` how many of them failed.
    ``reports`` yields ``(enquiry report, simulated events)`` for
    runtimes that ran in other processes, which the in-process runtime
    meter cannot see, and ``child_rss_kb`` their summed peak memory.
    ``in_process`` is false when the work runs in other processes, and
    this one waits for it.
    """

    name: str
    fn: _t.Callable[[], object]
    summary: _t.Callable[[object], object]
    tasks: int = 1
    failed_tasks: _t.Callable[[object], int] = lambda _result: 0
    reports: _t.Callable[[object], _t.Iterable[tuple[object, int]]] = \
        lambda _result: ()
    child_rss_kb: _t.Callable[[object], int] = lambda _result: 0
    in_process: bool = True


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"perfbench/{workload}/{seed}")


def _scenario_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


def report_summary(report) -> dict[str, object]:
    """An enquiry report with context ids counted from the runtime's
    first context (the raw ids come from a process-wide counter, so they
    depend on how many runtimes the process built before) and without
    the span counts of its ``obs_overhead`` section."""
    doc = report.as_dict()
    # Span bookkeeping is observation's own cost, not simulated output:
    # keeping fewer unread spans must not change the digest.
    if doc.get("obs_overhead") is not None:
        doc["obs_overhead"] = {
            key: value for key, value in doc["obs_overhead"].items()
            if key not in ("spans_recorded", "spans_dropped", "peak_spans")}
    base = min(report.polling, default=0)
    doc["polling"] = [{key: value for key, value in poll.items()
                       if key != "context_id"}
                      for _cid, poll in sorted(doc["polling"].items())]
    health = doc["health"]
    health["down"] = [{key: (value - base if key in ("context", "remote")
                             else value) for key, value in entry.items()}
                      for entry in health["down"]]
    health["events"] = [[t, ctx - base, remote - base, method, transition]
                        for t, ctx, remote, method, transition
                        in health["events"]]
    return doc


def load_summary(result) -> dict[str, object]:
    """A load run's simulated values: the fleet merge's scalar summary,
    the full enquiry report and the fault log."""
    from repro.fleet.merge import load_result_summary

    out = load_result_summary(result)
    out["report"] = report_summary(result.report)
    out["fault_log"] = [list(entry) for entry in result.fault_log]
    return out


# -- paper-figures ------------------------------------------------------------

def _series(panel) -> dict[str, object]:
    return {name: series.points for name, series in panel.items()}


def climate_summary(result) -> dict[str, object]:
    return {"total_time": result.total_time,
            "coupling_wait": result.coupling_wait,
            "tcp_poll_time": result.tcp_poll_time,
            "atmo_checksum": result.atmo_checksum,
            "ocean_checksum": result.ocean_checksum,
            "events": result.events_processed}


class PaperFigures:
    """Figure 4, Figure 6 and Table 1 at full size, observation off: one
    operation per artefact, each a call of its ``repro.bench`` driver."""

    name = "paper-figures"

    def inputs(self, seed: int) -> dict[str, object]:
        import importlib

        from repro.apps.climate import ClimateConfig

        # The package re-exports same-named driver functions, so fetch
        # the modules themselves.
        figure4, figure6 = (importlib.import_module(f"repro.bench.{name}")
                            for name in ("figure4", "figure6"))

        if seed == DEFAULT_SEED:
            small, large = figure4.SMALL_SIZES, figure4.LARGE_SIZES
            f6_large = figure6.SIZE_LARGE
        else:
            # Vary the interior sweep points; the end points anchor the
            # paper's shape claims (0-byte polling gap, large-message
            # convergence) and stay fixed.  Host time grows with the
            # simulated payload bytes, so the large sizes only move
            # within 5% of the paper's: the work stays the same.
            rng = _rng(self.name, seed)

            def jitter(size: int) -> int:
                return size + round(size * rng.uniform(-0.05, 0.05))

            small = (0, *sorted(rng.sample(range(1, 1000), 4)), 1000)
            large = (0, *map(jitter, figure4.LARGE_SIZES[1:-1]),
                     figure4.LARGE_SIZES[-1])
            f6_large = jitter(figure6.SIZE_LARGE)
        return {"small": tuple(small), "large": tuple(large),
                "f6_sizes": (figure6.SIZE_SMALL, f6_large),
                "skips": figure6.SKIP_VALUES, "roundtrips": 100,
                "mpl_roundtrips": 400, "climate": ClimateConfig(steps=6)}

    def ops(self, inputs: dict, scratch: str) -> list[Op]:
        from repro.bench.figure4 import figure4
        from repro.bench.figure6 import figure6
        from repro.bench.table1 import table1

        return [
            Op("figure4", functools.partial(
                figure4, inputs["roundtrips"], inputs["small"],
                inputs["large"]),
               lambda fig: {"small": _series(fig.small),
                            "large": _series(fig.large)}),
            Op("figure6", functools.partial(
                figure6, inputs["skips"], inputs["f6_sizes"],
                inputs["mpl_roundtrips"]),
               lambda fig: {str(size): _series(pair)
                            for size, pair in fig.panels.items()}),
            Op("table1", functools.partial(table1, inputs["climate"]),
               lambda table: {label: climate_summary(result)
                              for label, result in table.results.items()}),
        ]

    def check(self, inputs: dict, results: dict[str, object]) -> list[str]:
        from repro.bench.figure4 import check_figure4_shape
        from repro.bench.figure6 import check_figure6_shape
        from repro.bench.table1 import check_table1_shape

        failures = _shape_failures({"figure4": (check_figure4_shape,
                                                results["figure4"]),
                                    "figure6": (check_figure6_shape,
                                                results["figure6"]),
                                    "table1": (check_table1_shape,
                                               results["table1"])})
        physics = {(r.atmo_checksum, r.ocean_checksum)
                   for r in results["table1"].results.values()}
        if len(physics) != 1:
            failures.append("table1 physics checksums differ across "
                            f"configurations: {sorted(physics)}")
        return failures

    def layer_counts(self, results: dict[str, object]) -> dict[str, int]:
        table = results["table1"]
        return {"apps.steps": len(table.results) * table.config.steps}


def _shape_failures(checks: dict[str, tuple]) -> list[str]:
    failures = []
    for name, (check, artefact) in checks.items():
        try:
            check(artefact)
        except (AssertionError, KeyError, ValueError) as exc:
            failures.append(f"{name} shape: {exc}")
    return failures


# -- capacity-planning --------------------------------------------------------

class CapacityPlanning:
    """The load artefact (SLO suite and capacity bisection over the three
    stack tunings), the placement artefact, and the SLO suite again at
    seed-derived scenario seeds, all serial."""

    name = "capacity-planning"

    def inputs(self, seed: int) -> dict[str, object]:
        from repro.bench import load as bench_load

        rng = _rng(self.name, seed)
        suite = bench_load.scenarios()
        if seed != DEFAULT_SEED:
            suite = {name: dataclasses.replace(s, seed=_scenario_seed(rng))
                     for name, s in suite.items()}
        # Only this suite follows the workload seed.  The load and place
        # artefacts run at their committed seeds: how many probes their
        # searches make depends on the seed (at serving seed 1112019862
        # every placement candidate fails its first probe and the search
        # does 2% of its usual work), so seeding them would make wall_s
        # measure the seed instead of the code.
        return {"suite": suite, "slos": bench_load.slos()}

    def ops(self, inputs: dict, scratch: str) -> list[Op]:
        from repro.bench.load import load_bench
        from repro.bench.place import place_bench
        from repro.load import evaluate, run_scenario
        from repro.obs.graph import dumps_graph

        def suite_run(scenario, slo):
            result = run_scenario(scenario)
            return result, evaluate(result, slo)

        def load_artefact(bench):
            return {"results": {name: load_summary(result)
                                for name, result in bench.results.items()},
                    "verdicts": {name: verdict.as_dict()
                                 for name, verdict in bench.verdicts.items()},
                    "capacities": {name: cap.as_dict() for name, cap
                                   in bench.capacities.items()}}

        def place_artefact(bench):
            search = bench.search
            return {"graph": dumps_graph(bench.graph),
                    "demand": dataclasses.asdict(bench.demand),
                    "partitions": {name: dataclasses.asdict(cost)
                                   for name, cost in bench.partitions.items()},
                    "candidates": [[c.label, c.static.static_capacity,
                                    c.static.binding]
                                   for c in search.candidates],
                    "validated": [[v.label, v.result.as_dict()]
                                  for v in search.validated],
                    "best": search.best.label, "hill": bench.hill.label,
                    "agreement": bench.agreement}

        ops = [Op(f"suite/{name}", functools.partial(
                   suite_run, scenario, inputs["slos"][name]),
                  lambda pair: {"result": load_summary(pair[0]),
                                "verdict": pair[1].as_dict()})
               for name, scenario in inputs["suite"].items()]
        return ops + [Op("load", load_bench, load_artefact),
                      Op("place", place_bench, place_artefact)]

    def check(self, inputs: dict, results: dict[str, object]) -> list[str]:
        from repro.bench.load import check_load_shape
        from repro.bench.place import check_place_shape

        return _shape_failures({"load": (check_load_shape, results["load"]),
                                "place": (check_place_shape,
                                          results["place"])})

    def layer_counts(self, results: dict[str, object]) -> dict[str, int]:
        search = results["place"].search
        return {
            "load.probes": (sum(len(cap.probes) for cap
                                in results["load"].capacities.values())
                            + sum(len(v.result.probes)
                                  for v in search.validated)),
            "place.candidates_ranked": len(search.candidates),
            "place.candidates_simulated": len(search.validated),
        }


# -- fleet-sweep --------------------------------------------------------------

FLEET_WORKERS = 2
FLEET_REPLICAS = 8
FLEET_DURATION_S = 4.0


def serving_fleets():
    """Open-loop remote RPC with service work plus a closed-loop local
    population: the load tier's steady mix."""
    from repro.load import ClosedLoop, FixedSize, FleetSpec, LognormalSize, \
        OpenLoop

    return (
        FleetSpec("rpc-remote", clients=6, arrival=OpenLoop(rate=60.0),
                  sizes=FixedSize(2048), route="remote", service_ops=10,
                  service_time=200e-6),
        FleetSpec("interactive-local", clients=2,
                  arrival=ClosedLoop(think_time=0.01),
                  sizes=LognormalSize(median=512.0), route="local"),
    )


def worker_peak_rss_kb() -> int:
    """Summed peak RSS (VmHWM) of this process's live child processes."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total


def run_fleet(plan):
    """Run ``plan`` on a fresh pool of ``FLEET_WORKERS`` spawned processes.

    Returns the :class:`repro.fleet.FleetRun` and the workers' summed
    peak RSS in KiB, read before the pool shuts them down.
    """
    from repro.fleet import FleetPool, run_plan

    with FleetPool(FLEET_WORKERS, name="perfbench") as pool:
        run = run_plan(plan, jobs=FLEET_WORKERS, pool=pool)
        peak_kb = worker_peak_rss_kb()
    return run, peak_kb


def outcome_summary(outcome) -> object:
    return (load_summary(outcome.result) if outcome.ok
            else outcome.error.exc_type)


def timed_task(runner: str, payload: dict) -> dict[str, object]:
    """Fleet runner wrapper: run ``runner`` and stamp the worker's pid
    and monotonic start/end around it (the clock is shared by every
    process on the host)."""
    import time

    from repro.fleet.tasks import resolve_runner

    start = time.monotonic()
    result = resolve_runner(runner)(**payload)
    return {"pid": os.getpid(), "start": start, "end": time.monotonic(),
            "result": result}


class FleetSweep:
    """Seed-replicated serving runs fanned over two spawned workers."""

    name = "fleet-sweep"

    def inputs(self, seed: int) -> dict[str, object]:
        from repro.fleet import SeedReplication
        from repro.load import LoadScenario

        base = LoadScenario(name="fleet-serving", fleets=serving_fleets(),
                            duration=FLEET_DURATION_S,
                            skip_poll=(("tcp", 4),))
        plan = SeedReplication(name=self.name, base=base,
                               replicas=FLEET_REPLICAS, seed=seed)
        return {"plan": plan, "tasks": plan.tasks()}

    def ops(self, inputs: dict, scratch: str) -> list[Op]:
        outcomes: dict[str, object] = {}

        def fleet():
            run, peak_kb = run_fleet(inputs["plan"])
            outcomes.update(run.outcomes)
            return run, peak_kb

        def failed(pair) -> int:
            return sum(not o.ok for o in pair[0].outcomes.values())

        def reports(pair) -> list[tuple[object, int]]:
            return [(o.result.report, o.result.sim_events)
                    for o in pair[0].outcomes.values() if o.ok]

        return [Op("fleet/run", fleet,
                   lambda pair: {key: outcome_summary(o)
                                 for key, o in pair[0].outcomes.items()},
                   tasks=len(inputs["tasks"]), failed_tasks=failed,
                   reports=reports, child_rss_kb=lambda pair: pair[1],
                   in_process=False),
                self._merge_op(inputs, outcomes)]

    def traced_ops(self, inputs: dict, scratch: str) -> list[Op]:
        """The same tasks run serially in-process, one operation each,
        where the tracer sees every layer; their merge must equal the
        parallel one."""
        from repro.fleet import run_serial

        outcomes: dict[str, object] = {}

        def serial(task):
            outcomes.update(run_serial([task]))
            return outcomes[task.key]

        return [Op(f"fleet/{task.key}", functools.partial(serial, task),
                   outcome_summary,
                   failed_tasks=lambda outcome: int(not outcome.ok))
                for task in inputs["tasks"]] + [
                    self._merge_op(inputs, outcomes)]

    @staticmethod
    def _merge_op(inputs: dict, outcomes: dict) -> Op:
        from repro.fleet import merge_load_results

        return Op("fleet/merge", lambda: merge_load_results(
            outcomes, plan=inputs["plan"].name), lambda document: document)

    def timing(self, inputs: dict) -> dict[str, float]:
        """Run the plan once more on a fresh pool, with each task timed
        inside its worker, and derive the fleet layer's figures."""
        import time

        from repro.fleet import FleetPool, FleetTask

        tasks = [FleetTask(key=task.key, runner="workloads:timed_task",
                           payload={"runner": task.runner,
                                    "payload": dict(task.payload)})
                 for task in inputs["tasks"]]
        started = time.monotonic()
        with FleetPool(FLEET_WORKERS, name="perfbench") as pool:
            outcomes = pool.run(tasks)
            finished = time.monotonic()
        spans = [outcome.result for outcome in outcomes.values()
                 if outcome.ok]
        by_worker: dict[int, list[dict]] = {}
        for span in spans:
            by_worker.setdefault(span["pid"], []).append(span)
        first_start = [min(s["start"] for s in group)
                       for group in by_worker.values()]
        last_end = [max(s["end"] for s in group)
                    for group in by_worker.values()]
        run_s = finished - started
        busy = sum(s["end"] - s["start"] for s in spans)
        return {
            "fleet.start_s": max(first_start) - started,
            "fleet.run_s": run_s,
            "fleet.efficiency": busy / (FLEET_WORKERS * run_s),
            "fleet.straggler_s": max(last_end) - min(last_end),
            "fleet.tasks": float(len(tasks)),
            "fleet.tasks_failed": float(sum(not o.ok
                                            for o in outcomes.values())),
        }

    def check(self, inputs: dict, results: dict[str, object]) -> list[str]:
        document = _t.cast(dict, results["fleet/merge"])
        if document["totals"]["tasks"] != len(inputs["tasks"]):
            return [f"fleet merge holds {document['totals']['tasks']} of "
                    f"{len(inputs['tasks'])} tasks"]
        return []

    def layer_counts(self, results: dict[str, object]) -> dict[str, int]:
        return {}


WORKLOADS = {w.name: w for w in (PaperFigures(), CapacityPlanning(),
                                 FleetSweep())}
