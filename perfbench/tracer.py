"""Layer tracer: a span at every call into a ``repro`` layer.

A profile hook (``sys.setprofile``) sees every Python call and return,
including each resumption of a generator.  When the callee's code lives
in a different layer package than the span on top of the stack, the
tracer opens a span for that layer; the matching return closes it.
Code outside the layers (the standard library, numpy, ``repro.util``)
runs inside whatever span is open, so its time counts to the layer that
called it.  A layer's self time is its spans' time minus the time their
child spans cover; time under no layer span (the benchmark's own code,
``repro.bench``) is the residual, so self times plus residual add up to
the traced wall time.

Every span is counted (``calls``) and timed.  Spans of at least
``KEEP_S`` and every run span are also kept in memory, with name, start,
end, parent and run id, and written out at the end as a Chrome trace.
The hook itself costs time in whichever span is open, mostly in the
layers that make many small calls; that cost is the tracing overhead,
reported separately as traced minus untraced wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import typing as _t

LAYERS = ("simnet", "core", "transports", "mpi", "apps", "obs", "load",
          "place", "fleet", "testbeds")
RUN = "run"
KEEP_S = 1e-3


class LayerTracer:
    def __init__(self, package_dir: str,
                 watch: _t.Mapping[str, _t.Sequence[_t.Callable]] = ()):
        self._root = os.path.join(os.path.abspath(package_dir), "")
        self._watch = {fn.__code__: key for key, fns in dict(watch).items()
                       for fn in fns}
        self._info: dict[object, tuple[str, str | None] | None] = {}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: Inclusive seconds of each call to a watched function, by key.
        self.watched: dict[str, list[float]] = {key: [] for key in watch}
        #: Kept spans: (id, parent id, name, layer, start, end, run id).
        self.spans: list[tuple[int, int, str, str, float, float, int]] = []
        #: Per run: (name, {layer: self seconds}, exact counts), where the
        #: counts are each layer's calls and each watched key's calls.
        self.runs: list[tuple[str, dict[str, float], dict[str, int]]] = []
        self.wall_s = 0.0
        self.origin = 0.0
        self._next_id = 0
        self._run = 0
        self._excluded_s = 0.0
        # Stack entries: [layer, frame, start, child seconds, id, code];
        # a run's entry holds its name, and the self times and excluded
        # seconds at its start, in place of frame and code.
        self._stack: list[list] = [[None, None, 0.0, 0.0, 0, None]]
        self._hook_fn = self._hook()

    def _classify(self, code) -> tuple[str, str | None] | None:
        path = code.co_filename
        key = self._watch.get(code)
        if not path.startswith(self._root):
            return None
        head = path[len(self._root):].split(os.sep, 1)[0]
        layer = "testbeds" if head == "testbeds.py" else head
        if layer not in LAYERS:
            return None
        # The hook compares layers by identity, so return the constant.
        return LAYERS[LAYERS.index(layer)], key

    # -- recording -----------------------------------------------------------

    def _hook(self) -> _t.Callable:
        info_of = self._info
        classify = self._classify
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        watched = self.watched
        spans = self.spans
        clock = time.perf_counter
        keep = KEEP_S
        tracer = self

        def hook(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                try:
                    info = info_of[code]
                except KeyError:
                    info = info_of[code] = classify(code)
                if info is None:
                    return
                top = stack[-1]
                if info[0] is top[0] and info[1] is None:
                    return
                tracer._next_id += 1
                stack.append([info[0], frame, clock(), 0.0, tracer._next_id,
                              code])
            elif event == "return":
                top = stack[-1]
                if top[1] is not frame:
                    return
                end = clock()
                stack.pop()
                layer = top[0]
                duration = end - top[2]
                calls[layer] += 1
                self_s[layer] += duration - top[3]
                stack[-1][3] += duration
                key = info_of[top[5]][1]
                if key is not None:
                    watched[key].append(duration)
                if duration >= keep:
                    code = top[5]
                    name = getattr(code, "co_qualname", code.co_name)
                    spans.append((top[4], stack[-1][4], f"{layer}.{name}",
                                  layer, top[2], end, tracer._run))

        return hook

    def begin_run(self, name: str) -> None:
        """Open the span of one operation and start tracing; layer spans
        inside it carry its run id."""
        self._run += 1
        self._next_id += 1
        now = time.perf_counter()
        if not self.origin:
            self.origin = now
        self._stack.append([RUN, name, now, 0.0, self._next_id,
                            (dict(self.self_s), self.counts(),
                             self._excluded_s)])
        sys.setprofile(self._hook_fn)

    def end_run(self) -> None:
        """Stop tracing and close the operation's span."""
        sys.setprofile(None)
        end = time.perf_counter()
        top = self._stack.pop()
        if top[0] != RUN:
            raise RuntimeError("end_run without a matching begin_run")
        duration = end - top[2]
        self_before, counts_before, excluded = top[5]
        self.wall_s += duration - (self._excluded_s - excluded)
        counts = self.counts()
        self.runs.append((
            top[1],
            {layer: self.self_s[layer] - self_before[layer]
             for layer in LAYERS},
            {key: counts[key] - counts_before[key] for key in counts}))
        self.spans.append((top[4], self._stack[-1][4], top[1], RUN, top[2],
                           end, self._run))

    @contextlib.contextmanager
    def excluded(self) -> _t.Iterator[None]:
        """Leave the benchmark's own work inside an operation out of the
        trace: its time counts to no layer and not to the traced wall.
        Outside an operation nothing is being traced and this is a no-op."""
        if sys.getprofile() is not self._hook_fn:
            yield
            return
        sys.setprofile(None)
        started = time.perf_counter()
        try:
            yield
        finally:
            gap = time.perf_counter() - started
            self._stack[-1][3] += gap
            self._excluded_s += gap
            sys.setprofile(self._hook_fn)

    def counts(self) -> dict[str, int]:
        """Exact counts so far: calls per layer and per watched key."""
        return {**{f"{layer}.calls": self.calls[layer] for layer in LAYERS},
                **{f"watch.{key}": len(durations)
                   for key, durations in self.watched.items()}}

    @property
    def residual_s(self) -> float:
        return self.wall_s - sum(self.self_s.values())

    # -- output --------------------------------------------------------------

    def write_chrome_trace(self, path: str, meta: dict[str, object]) -> None:
        """Chrome trace-event JSON (open in Perfetto or chrome://tracing).

        Thread 1 holds the kept spans, nested by time.  Thread 2 shows,
        under each run, its layers' self time laid end to end: an
        aggregate, not a timeline, marked so in each slice's args.
        """
        origin = self.origin

        def us(t: float) -> float:
            return round((t - origin) * 1e6, 3)

        events: list[dict[str, object]] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "perfbench traced run"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "spans (calls into layers)"}},
            {"ph": "M", "pid": 1, "tid": 2, "name": "thread_name",
             "args": {"name": "layer self time per run (aggregate)"}},
        ]
        run_spans = {}
        for span_id, parent, name, layer, start, end, run in sorted(
                self.spans, key=lambda s: (s[4], -s[5])):
            events.append({"ph": "X", "pid": 1, "tid": 1, "name": name,
                           "cat": layer, "ts": us(start),
                           "dur": round((end - start) * 1e6, 3),
                           "args": {"id": span_id, "parent": parent,
                                    "run": run}})
            if layer == RUN:
                run_spans[run] = start
        for run, (name, split, _counts) in enumerate(self.runs, start=1):
            cursor = run_spans.get(run, origin)
            for layer in LAYERS:
                seconds = split[layer]
                if seconds <= 0:
                    continue
                events.append({"ph": "X", "pid": 1, "tid": 2,
                               "name": layer, "cat": "aggregate",
                               "ts": us(cursor),
                               "dur": round(seconds * 1e6, 3),
                               "args": {"run": run, "run_name": name,
                                        "self_s": seconds,
                                        "aggregate": True}})
                cursor += seconds
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**meta,
                          "traced_wall_s": self.wall_s,
                          "residual_s": self.residual_s,
                          "self_s": dict(self.self_s),
                          "calls": dict(self.calls),
                          "keep_span_s": KEEP_S},
        }
        with open(path, "w") as fh:
            json.dump(document, fh)
