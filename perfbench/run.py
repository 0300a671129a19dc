"""The repository benchmark: host time, set-up and memory of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh interpreters, then passes over the workload's operations
until ``--seconds`` is spent.  The first pass warms up and verifies;
``wall_s`` is taken over the later ones, at the reference host speed of
``yardstick.py``, which is sampled while they run.  ``--trace 1`` is the
separate traced run: an untraced reference pass, then a pass under the
layer tracer (``tracer.py``), whose per-layer self times, residual and
exact call counts it reports; the first half of its operations is
traced again and their counts must repeat exactly.  The traced pass is
also written as a Chrome trace under ``perfbench/out/``.

Simulated outputs are checked, never timed: every pass must reproduce
the first pass's digest, the default seed must reproduce the digest in
``expected.json``, and each workload's shape and invariant checks must
hold.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import typing as _t

import workloads
from tracer import LAYERS, LayerTracer
from yardstick import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

#: Fresh-interpreter set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Yardstick samples taken before and after each timed operation,
#: outside the time measured.
YARDSTICK_BURST = 8
#: Timed passes a run makes even when ``--seconds`` is already spent.
MIN_TIMED_PASSES = 2
#: An operation still running after this many seconds counts as hung.
OP_BUDGET_S = 60
IMPORT_GROUPS = ("numpy", "scipy", "networkx", "repro")

END_TO_END_UNITS = {"wall_s": "s", "msgs_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_COUNTERS = ("simnet.events", "core.rsr_calls", "core.poll_cycles",
                  "core.idle_fast_forwards", "core.poll_fires",
                  "core.poll_hits", "core.retries", "core.failovers",
                  "transports.msgs.mpl", "transports.msgs.tcp",
                  "transports.bytes", "transports.dropped", "obs.spans")


def digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()


def _json_default(obj: object) -> object:
    if isinstance(obj, enum.Enum):
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot digest {type(obj).__name__}")


# -- runtime meter ------------------------------------------------------------

class RuntimeMeter:
    """Reads the simulated counters of every Nexus runtime the program
    builds, without keeping finished runtimes alive.

    It wraps ``repro.obs.note_runtime``, which each runtime calls when it
    is constructed.  Operations run one at a time, so a runtime is done
    when the next one is built or its operation returns; only then is it
    read.  In ``full`` mode it takes the whole enquiry report (for the
    digest and the per-layer counts); otherwise only the transports'
    message counts, which cost microseconds.  Its own time is kept in
    ``spent_s`` so callers can leave it out of what they time.
    """

    def __init__(self) -> None:
        self.full = False
        self.tracer = None
        self.spent_s = 0.0
        self.yardstick: Yardstick | None = None
        self._pending = None
        self.reset()

    def reset(self) -> None:
        self.counts = dict.fromkeys(LAYER_COUNTERS, 0)
        self.msgs = 0
        self.runtimes = 0
        self.report_digests: list[str] = []
        self.unresolved: list[str] = []

    def __enter__(self) -> "RuntimeMeter":
        import repro.obs

        self._obs = repro.obs
        self._original = repro.obs.note_runtime

        def note_runtime(obs, nexus):
            self._original(obs, nexus)
            if nexus is not None:
                self._switch(nexus)

        repro.obs.note_runtime = note_runtime
        return self

    def __exit__(self, *exc_info) -> None:
        self._obs.note_runtime = self._original
        self._pending = None

    def overhead_s(self) -> float:
        """Seconds spent by the meter and its yardstick so far."""
        return self.spent_s + (self.yardstick.spent_s
                               if self.yardstick is not None else 0.0)

    def sampling(self, in_process: bool):
        """The yardstick's sampling while an operation runs, in this
        process or in others, or nothing when there is no yardstick."""
        if self.yardstick is None:
            return contextlib.nullcontext()
        return (self.yardstick.running() if in_process
                else self.yardstick.waiting())

    def _switch(self, nexus) -> None:
        if self._pending is not None:
            self._read(self._pending)
        self._pending = nexus

    def flush(self) -> None:
        if self._pending is not None:
            self._read(self._pending)
            self._pending = None

    def _read(self, nexus) -> None:
        started = time.perf_counter()
        pause = (self.tracer.excluded() if self.tracer is not None
                 else contextlib.nullcontext())
        with pause:
            self.runtimes += 1
            self.counts["simnet.events"] += nexus.sim.events_processed
            if self.full:
                from repro.core import enquiry

                self.add_report(enquiry.report(nexus), 0)
                self.counts["core.rsr_calls"] += nexus.tracer.count(
                    "nexus.rsrs_sent")
                obs = nexus.obs
                if obs.enabled:
                    # An RSR resolves by delivery or by a recorded drop.
                    dropped = int(sum(metric.value for _n, _l, metric
                                      in obs.metrics.collect("rsr_dropped")))
                    if obs.rsrs_started != obs.rsrs_finished + dropped:
                        self.unresolved.append(
                            f"runtime {self.runtimes}: {obs.rsrs_started} "
                            f"RSRs issued, {obs.rsrs_finished} delivered "
                            f"and {dropped} dropped")
            else:
                for name in nexus.transports.names():
                    self.msgs += nexus.transports.get(name).messages_sent
        self.spent_s += time.perf_counter() - started

    def add_report(self, report, events: int) -> None:
        """Count one runtime's enquiry report (``events`` when the
        runtime ran elsewhere and the meter never saw it)."""
        counts = self.counts
        counts["simnet.events"] += events
        self.report_digests.append(digest(workloads.report_summary(report)))
        for name, stats in report.transports.items():
            self.msgs += stats.messages_sent
            key = f"transports.msgs.{name}"
            if key in counts:
                counts[key] += stats.messages_sent
            counts["transports.bytes"] += stats.bytes_sent
            counts["transports.dropped"] += stats.messages_dropped
        for poll in report.polling.values():
            counts["core.poll_cycles"] += poll.cycles
            counts["core.idle_fast_forwards"] += poll.idle_fast_forwards
            counts["core.poll_fires"] += sum(poll.fires.values())
            counts["core.poll_hits"] += sum(poll.messages.values())
        counts["core.retries"] += report.health.retries
        counts["core.failovers"] += report.health.failovers
        overhead = report.obs_overhead or {}
        counts["obs.spans"] += int(overhead.get("spans_recorded", 0))


# -- passes -------------------------------------------------------------------

class OpDeadline(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(_signum, _frame):
        raise OpDeadline(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Pass:
    """What one pass over a workload's operations produced."""

    def __init__(self) -> None:
        self.walls: dict[str, float] = {}
        #: Yardstick samples taken during the pass, when there is one,
        #: and the scale each operation's own samples give.
        self.yardstick_s: list[float] = []
        self.scales: dict[str, float] = {}
        self.summaries: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}
        self.msgs = 0
        self.child_rss_kb = 0
        #: Simulated counts each operation added, by operation.
        self.op_counts: dict[str, dict[str, int]] = {}
        self.results: dict[str, object] = {}
        #: Workload-specific exact counts read off the results.
        self.layer_counts: dict[str, int] = {}
        self._void = False

    def check(self, problems: _t.Sequence[str]) -> None:
        """Count one correctness check of this pass.  A failed check
        fails the whole pass, every operation in it included: none of
        its outputs can be trusted, and a single failure then moves
        ``ok_frac`` by a whole pass's share of the run."""
        self.attempted += 1
        if problems:
            self.problems += problems
            self._void = True
        if self._void:
            self.failed = self.attempted

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())

    @property
    def scaled_wall_s(self) -> float:
        """``wall_s`` at the yardstick's reference host speed, each
        operation scaled by the samples taken around and during it."""
        return sum(wall * self.scales[name]
                   for name, wall in self.walls.items())

    @property
    def digest(self) -> str:
        return digest(self.summaries)


def run_pass(workload, inputs, ops: _t.Callable[[dict, str], list],
             meter: RuntimeMeter, *, full: bool, tracer=None,
             limit: int | None = None) -> Pass:
    """One pass over the workload's operations, or over the first
    ``limit`` of them (an operation only uses results of earlier ones)."""
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    meter.reset()
    meter.full = full
    meter.tracer = tracer
    out = Pass()
    try:
        for op in ops(inputs, scratch)[:limit]:
            spent = meter.overhead_s()
            before = dict(meter.counts)
            result = error = None
            if meter.yardstick is not None:
                meter.yardstick.burst(YARDSTICK_BURST)
            if tracer is not None:
                tracer.begin_run(op.name)
            started = time.perf_counter()
            try:
                with deadline(OP_BUDGET_S), meter.sampling(op.in_process), \
                        contextlib.redirect_stdout(io.StringIO()):
                    result = op.fn()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                error = f"{op.name}: {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.end_run()
            if meter.yardstick is not None:
                meter.yardstick.burst(YARDSTICK_BURST)
                samples = meter.yardstick.take()
                out.yardstick_s += samples
                out.scales[op.name] = Yardstick.scale(samples)
            meter.flush()
            out.walls[op.name] = wall - (meter.overhead_s() - spent)
            out.attempted += op.tasks
            if error is not None:
                out.failed += op.tasks
                out.problems.append(error)
                continue
            failed = op.failed_tasks(result)
            if failed:
                out.failed += failed
                out.problems.append(f"{op.name}: {failed} task(s) failed")
            for report, events in op.reports(result):
                meter.add_report(report, events)
            out.op_counts[op.name] = {key: meter.counts[key] - before[key]
                                      for key in before}
            out.child_rss_kb = max(out.child_rss_kb, op.child_rss_kb(result))
            out.results[op.name] = result
            out.summaries[op.name] = digest(op.summary(result))
        if limit is not None:
            problems = meter.unresolved  # the checks need every operation
        elif out.failed:
            problems = ["checks skipped: an operation failed"]
        else:
            problems = workload.check(inputs, out.results) + meter.unresolved
            out.layer_counts = workload.layer_counts(out.results)
        out.check(problems)
    finally:
        meter.tracer = None
        shutil.rmtree(scratch, ignore_errors=True)
    if full and limit is None:
        out.summaries["runtime reports"] = digest(meter.report_digests)
    out.counts = dict(meter.counts)
    out.msgs = meter.msgs
    out.results.clear()
    gc.collect()
    return out


# -- set-up -------------------------------------------------------------------

def _probe_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported
    ``repro`` and built the workload's inputs, and the factor that
    scales them to the yardstick's reference speed, from the samples the
    interpreter takes after its set-up."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
         str(seed)], stdout=subprocess.PIPE, env=_probe_env(), text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest = proc.stdout.read().split()
    finally:
        proc.wait()
    if line.strip() != "ready" or len(rest) != 1 or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed "
                           f"(exit {proc.returncode})")
    return ready, Yardstick.scale([float(rest[0])])


def import_breakdown(name: str, seed: int) -> dict[str, float]:
    """Import self time by top-level package, from ``-X importtime`` in a
    fresh interpreter running the set-up probe."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime",
         os.path.join(HERE, "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, env=_probe_env(), check=True)
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    total = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = float(fields[0])
        except ValueError:
            continue  # the header line
        total += self_us
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += self_us
    metrics = {"setup.import_s": total / 1e6}
    metrics.update({f"setup.import_s.{package}": us / 1e6
                    for package, us in totals.items()})
    return metrics


# -- the two kinds of run -----------------------------------------------------

def expected_digest(name: str, seed: int) -> str | None:
    try:
        with open(EXPECTED) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(name, {}).get(str(seed))


def verify_first(first: Pass, name: str, seed: int) -> None:
    """Compare the verification pass with the digest kept for the seed."""
    print(f"perfbench: {name} seed {seed} digest {first.digest}")
    want = expected_digest(name, seed)
    if want is None:
        first.check([f"no expected digest for {name} at the default seed"]
                    if seed == workloads.DEFAULT_SEED else [])
    else:
        first.check([] if want == first.digest else [
            f"simulated output differs from the expected digest for {name} "
            f"seed {seed}: {first.digest} != {want}"])


def check_repeat(reference: Pass, other: Pass, label: str) -> None:
    """A later pass must reproduce the reference pass's simulated output."""
    differing = sorted(key for key in reference.summaries
                       if key in other.summaries
                       and other.summaries[key] != reference.summaries[key])
    other.check([f"{label} differs from the first pass in: "
                 + ", ".join(differing[:5])] if differing else [])


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, list[Pass]]:
    workload = workloads.WORKLOADS[name]
    setups = [setup_seconds(name, seed) for _ in range(SETUP_SAMPLES)]
    inputs = workload.inputs(seed)
    passes: list[Pass] = []
    yardstick = Yardstick()
    started = time.perf_counter()
    with RuntimeMeter() as meter:
        meter.yardstick = yardstick
        while True:
            begun = time.perf_counter()
            current = run_pass(workload, inputs, workload.ops, meter,
                               full=not passes)
            if passes:
                check_repeat(passes[0], current, f"pass {len(passes)}")
            else:
                verify_first(current, name, seed)
            passes.append(current)
            now = time.perf_counter()
            timed = len(passes) - 1
            if timed >= MIN_TIMED_PASSES and \
                    now - started + (now - begun) > seconds:
                break
    timed_passes = passes[1:]
    wall = statistics.median(p.scaled_wall_s for p in timed_passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + max(p.child_rss_kb for p in passes))
    print(f"perfbench: wall_s is the median of {len(timed_passes)} timed "
          f"passes at the yardstick's reference speed; setup_s the median "
          f"of {len(setups)} samples, each in host seconds times its "
          f"scale: " + ", ".join(f"{ready:.4f} x {scale:.4f}"
                                 for ready, scale in setups))
    for number, p in enumerate(passes):
        print(f"perfbench: pass {number}: {p.wall_s:.4f} host s, yardstick "
              f"mean {statistics.mean(p.yardstick_s) * 1e3:.4f} ms over "
              f"{len(p.yardstick_s)} samples, {p.scaled_wall_s:.4f} s scaled")
    metrics = {
        "wall_s": wall,
        "msgs_per_s": timed_passes[0].msgs / wall,
        "setup_s": statistics.median(ready * scale
                                     for ready, scale in setups),
        "peak_rss_mb": peak_kb / 1024,
        "ok_frac": 1.0 - failed / attempted,
    }
    return {key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in metrics.items()}, passes


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced_run(name: str, seed: int) -> tuple[dict, list[Pass]]:
    import repro
    from repro.load.clients import run_scenario
    from repro.testbeds import make_iway, make_sp2

    workload = workloads.WORKLOADS[name]
    metrics: dict[str, float] = import_breakdown(name, seed)
    inputs = workload.inputs(seed)
    ops = getattr(workload, "traced_ops", workload.ops)
    package_dir = os.path.dirname(repro.__file__)
    watch = {"testbeds.build": (make_sp2, make_iway),
             "load.run": (run_scenario,)}
    os.makedirs(OUT_DIR, exist_ok=True)
    # The cyclic collector finalizes unfinished generators at points that
    # depend on the whole heap, and each finalization resumes a frame the
    # tracer counts; collecting only between passes keeps counts exact.
    gc.disable()
    try:
        with RuntimeMeter() as meter:
            first = run_pass(workload, inputs, workload.ops, meter, full=True)
            verify_first(first, name, seed)
            reference = run_pass(workload, inputs, ops, meter, full=True)
            check_repeat(first, reference, "untraced reference pass")
            tracer = LayerTracer(package_dir, watch=watch)
            traced = run_pass(workload, inputs, ops, meter, full=True,
                              tracer=tracer)
            check_repeat(first, traced, "traced pass")
            # The repeat covers the first half of the operations, which
            # is enough to show the counts are exact at half the cost.
            again = LayerTracer(package_dir, watch=watch)
            repeat = run_pass(workload, inputs, ops, meter, full=True,
                              tracer=again,
                              limit=(len(traced.walls) + 1) // 2)
            check_repeat(first, repeat, "repeated traced pass")
    finally:
        gc.enable()
    passes = [first, reference, traced, repeat]
    fleet = workload.timing(inputs) if hasattr(workload, "timing") else {}

    # Exact counts: every per-layer call count and simulated count of an
    # operation must repeat when the operation is traced again.
    per_run = {run_name: counts for run_name, _split, counts in tracer.runs}
    mismatched = []
    for run_name, _split, counts in again.runs:
        if run_name in repeat.op_counts and run_name in traced.op_counts:
            want = {**per_run[run_name], **traced.op_counts[run_name]}
            got = {**counts, **repeat.op_counts[run_name]}
            mismatched += [f"{run_name}: {key}" for key in want
                           if got.get(key) != want[key]]
    repeat.check(["counts differ when traced again: "
                  + ", ".join(mismatched[:5])] if mismatched else [])

    trace_path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
    tracer.write_chrome_trace(trace_path, {"workload": name, "seed": seed})
    print(f"perfbench: Chrome trace of the first traced pass: {trace_path}")

    counts = traced.counts
    untraced = reference.wall_s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
        metrics[f"{layer}.calls"] = float(tracer.calls[layer])
    builds = tracer.watched["testbeds.build"]
    runs = tracer.watched["load.run"]
    fires = counts["core.poll_fires"]
    metrics.update({
        "testbeds.builds": float(len(builds)),
        "testbeds.build_s": float(sum(builds)),
        "simnet.events": float(counts["simnet.events"]),
        "simnet.events_per_s": counts["simnet.events"] / untraced,
        "core.rsr_calls": float(counts["core.rsr_calls"]),
        "core.poll_cycles": float(counts["core.poll_cycles"]),
        "core.idle_fast_forwards": float(counts["core.idle_fast_forwards"]),
        "core.poll_hit_rate": (counts["core.poll_hits"] / fires
                               if fires else 0.0),
        "core.retries": float(counts["core.retries"]),
        "core.failovers": float(counts["core.failovers"]),
        "transports.msgs.mpl": float(counts["transports.msgs.mpl"]),
        "transports.msgs.tcp": float(counts["transports.msgs.tcp"]),
        "transports.bytes": float(counts["transports.bytes"]),
        "transports.dropped": float(counts["transports.dropped"]),
        "obs.spans": float(counts["obs.spans"]),
        "load.runs": float(len(runs)),
        "load.run_s.p50": _quantile(runs, 0.5),
        "load.run_s.p90": _quantile(runs, 0.9),
        "trace.wall_s": tracer.wall_s,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": tracer.wall_s - untraced,
        "trace.residual_s": tracer.residual_s,
        "trace.count_mismatches": float(len(mismatched)),
    })
    for key in ("apps.steps", "load.probes", "place.candidates_ranked",
                "place.candidates_simulated"):
        metrics[key] = float(traced.layer_counts.get(key, 0))
    for key in ("fleet.start_s", "fleet.run_s", "fleet.tasks",
                "fleet.tasks_failed", "fleet.efficiency", "fleet.straggler_s"):
        metrics[key] = float(fleet.get(key, 0.0))
    return {key: {"value": value, "unit": LAYER_UNITS[key]}
            for key, value in sorted(metrics.items())}, passes


LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "setup.import_s": "s",
    **{f"setup.import_s.{package}": "s" for package in IMPORT_GROUPS},
    "testbeds.builds": "count", "testbeds.build_s": "s",
    "simnet.events": "count", "simnet.events_per_s": "1/s",
    "core.rsr_calls": "count", "core.poll_cycles": "count",
    "core.idle_fast_forwards": "count", "core.poll_hit_rate": "ratio",
    "core.retries": "count", "core.failovers": "count",
    "transports.msgs.mpl": "count", "transports.msgs.tcp": "count",
    "transports.bytes": "bytes", "transports.dropped": "count",
    "apps.steps": "count",
    "obs.spans": "count",
    "load.runs": "count", "load.run_s.p50": "s", "load.run_s.p90": "s",
    "load.probes": "count",
    "place.candidates_ranked": "count", "place.candidates_simulated": "count",
    "fleet.start_s": "s", "fleet.run_s": "s", "fleet.tasks": "count",
    "fleet.tasks_failed": "count", "fleet.efficiency": "ratio",
    "fleet.straggler_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.residual_s": "s",
    "trace.count_mismatches": "count",
}


def stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process ``multiprocessing``
    starts for a fleet pool, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # The place artefact's capacity search then runs serially in this
    # process, where the runtime meter and the tracer see it.
    os.environ.pop("REPRO_PLACE_JOBS", None)

    try:
        if args.trace:
            metrics, passes = traced_run(args.workload, args.seed)
        else:
            metrics, passes = timed_run(args.workload, args.seed,
                                        args.seconds)
    finally:
        stop_resource_tracker()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in (problem for p in passes for problem in p.problems):
        print(f"perfbench: FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
