"""Command-line harness: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                 # everything
    python -m repro.bench figure4         # one artefact
    python -m repro.bench table1 --quick  # reduced workload sizes
    python -m repro.bench --quick --record BENCH_quick.json
    python -m repro.bench --quick --record out.json \\
        --baseline benchmarks/BENCH_quick_baseline.json --check
    python -m repro.bench --quick --trace trace.json --profile --flame out.folded
    python -m repro.bench --quick --jobs 4 --record BENCH_quick.json
    python -m repro.bench --list

The pytest benchmarks (`pytest benchmarks/ --benchmark-only`) are the
canonical gate (they also assert the shape criteria); this entry point
is for interactive exploration, for regenerating EXPERIMENTS.md numbers
without pytest, and for the machine-readable telemetry loop: ``--record``
writes a deterministic :class:`~repro.bench.record.BenchRecord`
(``BENCH_<label>.json``), ``--baseline/--check`` diff it against a
stored baseline and exit non-zero on regression, and
``--profile``/``--flame`` aggregate the traced span log into a hot-path
table and a collapsed-stack flamegraph export.

Records hold only deterministic simulated metrics.  The host time of
these drivers is measured by ``perfbench/`` (see ``perfbench/README.md``
and ``BENCHMARK.json``); the ``[name: X.Xs wall]`` lines printed here
are console output only.
"""

from __future__ import annotations

import argparse
import sys
import time
import typing as _t

from .. import obs as _obs
from ..util.report import hot_path_report
from .ablations import (
    ablation_adaptive_skip,
    ablation_blocking_poll,
    ablation_lightweight_startpoints,
    ablation_mpi_layering,
    ablation_rendezvous,
)
from .figure4 import check_figure4_shape, figure4
from .figure6 import check_figure6_shape, figure6
from .record import (
    BenchRecord,
    compare_records,
    load_record,
    record_ablations,
    record_baselines,
    record_chaos,
    record_figure4,
    record_figure6,
    record_load,
    record_observability,
    record_table1,
)
from .table1 import check_table1_shape, table1


def _run_figure4(quick: bool, record: BenchRecord | None) -> None:
    fig = figure4(roundtrips=30 if quick else 100)
    print(fig.render())
    print()
    print(fig.render_charts())
    if record is not None:
        record_figure4(record, fig)
    if not quick:  # quick runs quantise too coarsely to assert shapes
        check_figure4_shape(fig)
        print("shape: OK")


def _run_figure6(quick: bool, record: BenchRecord | None) -> None:
    fig = figure6(mpl_roundtrips=150 if quick else 400)
    print(fig.render())
    print()
    print(fig.render_charts())
    if record is not None:
        record_figure6(record, fig)
    if not quick:
        check_figure6_shape(fig)
        print("shape: OK")


def _run_table1(quick: bool, record: BenchRecord | None) -> None:
    config = None
    if quick:
        import dataclasses

        from ..apps.climate import ClimateConfig
        config = dataclasses.replace(ClimateConfig(), steps=2)
    result = table1(config=config)
    print(result.render())
    if record is not None:
        record_table1(record, result)
    if not quick:
        check_table1_shape(result)
        print("shape: OK")


def _run_ablations(quick: bool, record: BenchRecord | None) -> None:
    blocking = ablation_blocking_poll(
        mpl_roundtrips=150 if quick else 400)
    print(blocking.table.render(1))
    layering = ablation_mpi_layering()
    print(f"\nMPI-on-Nexus layering overhead: {layering.overhead:.1%}")
    adaptive = ablation_adaptive_skip(mpl_roundtrips=200 if quick else 600)
    print(f"adaptive skip_poll: MPL {adaptive.adaptive_mpl * 1e6:.1f} us "
          f"(best static {adaptive.best_static_mpl() * 1e6:.1f} us); "
          f"final skips {adaptive.final_skips}")
    sizes = ablation_lightweight_startpoints()
    print(f"startpoint wire size: {sizes.full_bytes} B full, "
          f"{sizes.lightweight_bytes} B lightweight "
          f"({sizes.saving:.0%} saving)")
    rendezvous = ablation_rendezvous(messages=4 if quick else 6)
    print(f"eager vs rendezvous: parked bytes "
          f"{rendezvous.eager_parked_bytes} -> "
          f"{rendezvous.rendezvous_parked_bytes} "
          f"({rendezvous.parked_reduction:.0%} reduction) at "
          f"{(rendezvous.rendezvous_time / rendezvous.eager_time - 1):.0%} "
          "extra completion time")
    if record is not None:
        record_ablations(record, blocking=blocking, layering=layering,
                         adaptive=adaptive, startpoints=sizes,
                         rendezvous=rendezvous)


def _run_baselines(quick: bool, record: BenchRecord | None) -> None:
    from ..baselines import run_mixed_workload
    from ..util.records import ResultTable

    rounds = 10 if quick else 30
    results = {
        "p4 (hard-coded)": run_mixed_workload("p4", rounds=rounds),
        "pvm (daemon relay)": run_mixed_workload("pvm", rounds=rounds),
    }
    for skip in (1, 20):
        results[f"nexus skip_poll={skip}"] = run_mixed_workload(
            "nexus", rounds=rounds, skip_poll=skip)
    table = ResultTable("Prior art vs multimethod Nexus", ["ms/round"])
    for label, result in results.items():
        table.add(label, result.time_per_round * 1e3)
    print(table.render())
    if record is not None:
        record_baselines(record, results)


def _run_chaos(quick: bool, record: BenchRecord | None) -> None:
    from ..apps.climate import run_chaos_climate
    from ..util.units import format_time

    result = run_chaos_climate(seed=0)
    print(f"TCP outage at t={format_time(result.outage_start)} for "
          f"{format_time(result.outage_duration)} "
          f"(run lasts {format_time(result.climate.total_time)})")
    for when, line in result.timeline():
        print(f"  {format_time(when):>10}  {line}")
    print(f"recovery: {result.retries} retries, "
          f"{result.failovers} failovers, {result.probes} probes")
    if not result.recovered:
        raise AssertionError("chaos run did not recover TCP")
    if record is not None:
        record_chaos(record, result)
    if not quick:
        print("shape: OK")


def _run_load(quick: bool, record: BenchRecord | None) -> None:
    from .load import check_load_shape, load_bench

    bench = load_bench(quick=quick)
    print(bench.render())
    for verdict in bench.verdicts.values():
        print(verdict.summary())
    if record is not None:
        record_load(record, bench)
    if not quick:
        check_load_shape(bench)
        print("shape: OK")


def _run_analysis(quick: bool, record: BenchRecord | None) -> None:
    from .analysis import analysis_bench, check_analysis_shape
    from .record import record_analysis

    bench = analysis_bench(quick=quick)
    print(bench.render())
    print(bench.chaos_verdict.summary())
    for label, result in (("chaos", bench.chaos_result),
                          ("forward", bench.forward_result)):
        if result.stream is not None:
            stream = result.stream
            print(f"stream[{label}]: {stream['spans_emitted']} spans "
                  f"({stream['spans_sampled_out']} sampled out) in "
                  f"{stream['shards']} shard(s), "
                  f"{stream['bytes_written']} bytes, peak "
                  f"{stream['peak_open_spans']} open spans "
                  f"-> {stream['directory']}")
    if record is not None:
        record_analysis(record, bench)
    # The analysis workload is mode-independent (one short, tuned run),
    # so the shape criteria hold in quick CI too.
    check_analysis_shape(bench)
    print("shape: OK")


def _run_place(quick: bool, record: BenchRecord | None) -> None:
    from .place import check_place_shape, place_bench
    from .record import record_place

    bench = place_bench(quick=quick)
    print(bench.render())
    print(bench.search.summary())
    print(f"hill-climb from direct: {bench.hill.label} "
          f"(static {bench.hill.static.static_capacity:.1f}/s); "
          f"static/simulated agreement {bench.agreement:.2f} "
          f"at jobs={bench.jobs}")
    if record is not None:
        record_place(record, bench)
    # The placement workload is mode-independent (one short profile
    # plus a few bisection probes), so the §4.3-rediscovery shape
    # criteria hold in quick CI too.
    check_place_shape(bench)
    print("shape: OK")


ARTEFACTS: dict[str, _t.Callable[[bool, BenchRecord | None], None]] = {
    "figure4": _run_figure4,
    "figure6": _run_figure6,
    "table1": _run_table1,
    "ablations": _run_ablations,
    "baselines": _run_baselines,
    "chaos": _run_chaos,
    "load": _run_load,
    "analysis": _run_analysis,
    "place": _run_place,
}


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation artefacts.",
    )
    parser.add_argument("artefacts", nargs="*", metavar="ARTEFACT",
                        help=f"one of: {', '.join(ARTEFACTS)} "
                             "(default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload sizes")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run simulation artefacts across N worker "
                             "processes (repro.fleet); merged records "
                             "are byte-identical to --jobs 1")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="trace every RSR lifecycle and write a "
                             "Chrome trace-event JSON (load in Perfetto)")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="write the run's metrics as a deterministic "
                             "BENCH record (sorted-key JSON)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="diff this run's record against a stored "
                             "baseline record and print the delta table")
    parser.add_argument("--check", action="store_true",
                        help="with --baseline: exit non-zero if any gated "
                             "metric regressed")
    parser.add_argument("--profile", action="store_true",
                        help="trace the run and print the top-N sim-time "
                             "hot-path table")
    parser.add_argument("--flame", metavar="PATH", default=None,
                        help="trace the run and write collapsed-stack "
                             "output (speedscope / flamegraph.pl)")
    parser.add_argument("--export-dir", metavar="DIR", default=None,
                        help="where the analysis artefact writes its "
                             "timeline/graph/critpath documents "
                             "(timeline.json, graph.json, graph.dot, "
                             "critpath.json) and the place artefact "
                             "writes its winning placement.json")
    parser.add_argument("--stream-dir", metavar="DIR", default=None,
                        help="spool the analysis artefact's spans to "
                             "sharded JSONL under DIR/chaos and "
                             "DIR/forward and rebuild the analysis "
                             "documents by folding the shards")
    parser.add_argument("--sample", metavar="POLICY", default=None,
                        help="with --stream-dir: sampling policy for the "
                             "spool (head:N, tail:N, head:N,tail:M, "
                             "reservoir:K; failure-evidence RSRs are "
                             "always kept)")
    parser.add_argument("--sample-seed", type=int, default=0,
                        metavar="SEED",
                        help="seed for reservoir sampling (default 0)")
    parser.add_argument("--mem-ceiling-mb", type=float, default=None,
                        metavar="MB",
                        help="run the artefacts under tracemalloc and "
                             "exit non-zero if peak traced allocation "
                             "exceeds MB mebibytes")
    parser.add_argument("--list", action="store_true",
                        help="list artefacts and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in ARTEFACTS:
            print(name)
        return 0
    if args.check and not args.baseline:
        parser.error("--check requires --baseline")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.jobs > 1:
        # Everything that depends on in-process global state cannot fan
        # out: trace collection and tracemalloc are per-process, and the
        # analysis export globals do not propagate to spawn workers.
        if args.trace or args.profile or args.flame:
            parser.error("--jobs cannot combine with "
                         "--trace/--profile/--flame (trace collection "
                         "is in-process)")
        if args.export_dir or args.stream_dir:
            parser.error("--jobs cannot combine with "
                         "--export-dir/--stream-dir (analysis export "
                         "state is per-process)")
        if args.mem_ceiling_mb is not None:
            parser.error("--jobs cannot combine with --mem-ceiling-mb "
                         "(tracemalloc is per-process)")

    if args.sample is not None and args.stream_dir is None:
        parser.error("--sample requires --stream-dir")

    if args.export_dir is not None:
        from . import place as _place

        _place.EXPORT_DIR = args.export_dir
    if args.export_dir is not None or args.stream_dir is not None:
        from . import analysis as _analysis

        _analysis.EXPORT_DIR = args.export_dir
        _analysis.STREAM_DIR = args.stream_dir
        _analysis.SAMPLE = args.sample
        _analysis.SAMPLE_SEED = args.sample_seed
        if args.sample is not None:
            from ..obs.stream import parse_policy

            try:  # fail fast on a malformed spec, before benchmarking
                parse_policy(args.sample, args.sample_seed)
            except ValueError as exc:
                parser.error(str(exc))

    selected = args.artefacts or list(ARTEFACTS)
    for name in selected:
        if name not in ARTEFACTS:
            parser.error(f"unknown artefact {name!r}; "
                         f"choose from {', '.join(ARTEFACTS)}")

    baseline = None
    if args.baseline:
        # Load up front: a missing or corrupt baseline should fail
        # before minutes of benchmarking, not after.
        try:
            baseline = load_record(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2

    record: BenchRecord | None = None
    if args.record or args.baseline:
        record = BenchRecord("quick" if args.quick else "full",
                             quick=args.quick)
    tracing = bool(args.trace or args.profile or args.flame)
    collected: list = []
    mem_peak_mb: float | None = None
    if args.mem_ceiling_mb is not None:
        import tracemalloc

        tracemalloc.start()
    if args.jobs > 1:
        from ..fleet.merge import FleetTaskError, merge_bench_outcomes
        from ..fleet.plan import BenchFanout, run_plan

        plan = BenchFanout(artefacts=tuple(selected), quick=args.quick)
        run = run_plan(plan, jobs=args.jobs)
        sink = record if record is not None else BenchRecord(
            "fleet-merge", quick=args.quick)
        try:
            merged = merge_bench_outcomes(sink, run.outcomes)
        except FleetTaskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(exc.remote_traceback, file=sys.stderr)
            return 1
        # Replay worker stdout in selection order (== task-key order),
        # so the transcript reads like the serial run regardless of
        # completion order; per-artefact wall is the worker's own.
        for result in merged:
            print(f"=== {result.name} {'(quick)' if args.quick else ''} "
                  "===")
            sys.stdout.write(result.stdout)
            print(f"[{result.name}: {result.wall_s:.1f}s wall]\n")
        print(f"[fleet: {len(merged)} artefact(s) at jobs={args.jobs}: "
              f"{run.wall_s:.1f}s wall]\n")
    else:
        for name in selected:
            print(f"=== {name} {'(quick)' if args.quick else ''} ===")
            started = time.perf_counter()
            if tracing:
                with _obs.collecting() as runs:
                    ARTEFACTS[name](args.quick, record)
                collected.extend(runs)
                if record is not None:
                    record_observability(record, name, runs)
            else:
                ARTEFACTS[name](args.quick, record)
            elapsed = time.perf_counter() - started
            print(f"[{name}: {elapsed:.1f}s wall]\n")
    if args.mem_ceiling_mb is not None:
        import tracemalloc

        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        mem_peak_mb = peak / (1 << 20)
        print(f"memory: peak traced {mem_peak_mb:.1f} MiB "
              f"(ceiling {args.mem_ceiling_mb:.1f} MiB)")

    if args.trace:
        _obs.export.write_merged_chrome_trace(args.trace, collected)
        spans = sum(len(obs.spans) for obs, _nexus in collected)
        rsrs = sum(obs.rsrs_started for obs, _nexus in collected)
        print(f"trace: {spans} spans over {rsrs} RSRs from "
              f"{len(collected)} runtimes -> {args.trace}")
    if args.profile or args.flame:
        profile = _obs.perf.PerfProfile.from_runs(collected)
        if args.profile:
            print(hot_path_report(profile))
        if args.flame:
            profile.write_collapsed(args.flame)
            print(f"flame: {len(profile.collapsed_stacks())} stacks "
                  f"({profile.spans_profiled} spans) -> {args.flame}")
    if args.record:
        assert record is not None
        record.write(args.record)
        print(f"record: {len(record)} metrics -> {args.record}")
    if args.baseline:
        assert record is not None and baseline is not None
        comparison = compare_records(baseline, record.to_document())
        print(comparison.render())
        if args.check and not comparison.ok:
            return 1
    if (mem_peak_mb is not None
            and mem_peak_mb > _t.cast(float, args.mem_ceiling_mb)):
        print(f"error: peak traced memory {mem_peak_mb:.1f} MiB exceeds "
              f"ceiling {args.mem_ceiling_mb:.1f} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
