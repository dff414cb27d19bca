"""Spans around the public calls of each k3walls layer, for the traced run.

The program is not changed.  `instrument` rebinds each traced public
function, in every loaded k3walls module that holds it, to a wrapper
defined here; the wrapper records a span (id, name, start, end, parent
span, op id) and the counts named below, and `restore` undoes it.  Calls
the program makes between its own modules (decompositions calling
positive_classes, resolve_walls calling hilbert_walls, the CLI calling
everything) go through the same wrappers, so a span's children are the
traced calls made inside it.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.counts: Counter = Counter()
        self.op = None
        self.paused = False  # while the benchmark checks a result
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent)

    def wrap(self, name, fn, count=None, namer=None):
        counts = self.counts

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = namer(*args, **kwargs) if namer else name
            sid, parent = self._open()
            counts[span_name + ".calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                counts[span_name + ".errors"] += 1
                raise
            finally:
                self._close(sid, span_name, start, parent)
            if count is not None:
                counts.update(count(result))
            return result

        return traced

    def write(self, path, round_index: int) -> None:
        """Appends this round's spans to `path`, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"round": round_index, "id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def _layers(k3):
    """(module, function, counts of one result, span name of one call)."""
    degenerate = k3.charge.DEGENERATE
    return [
        ("walls", "hilbert_walls",
         lambda r: {"walls.hilbert_walls.records": len(r.records),
                    "walls.hilbert_walls.uncertified": int(not r.complete)}, None),
        ("walls", "transport_walls", lambda r: {"walls.transport_walls.records": len(r)}, None),
        ("walls", "candidate_walls",
         lambda r: {"walls.candidate_walls.records": len(r.records),
                    "walls.candidate_walls.uncertified": int(not r.complete)}, None),
        ("charge", "path_intersection",
         lambda r: {"charge.path_intersection.hits": int(r is not None and r is not degenerate)}, None),
        ("crossing", "positive_classes", lambda r: {"crossing.positive_classes.found": len(r)}, None),
        ("crossing", "decompositions",
         lambda r: {"crossing.decompositions.found": len(r),
                    "crossing.decompositions.nonempty": int(bool(r))}, None),
        ("crossing", "stratum_dims", None, None),
        ("report", "walls_payload", None, None),
        ("report", "render", lambda r: {"report.bytes": len(r.encode())},
         lambda kind, payload, fmt: f"report.render_{fmt}"),
        ("svgfig", "render_figure", lambda r: {"svgfig.bytes": len(r.encode())}, None),
    ]


def instrument(k3, tracer: Tracer):
    """Route the traced public functions through `tracer`; returns restore()."""
    modules = [m for name, m in list(sys.modules.items()) if name == "k3walls" or name.startswith("k3walls.")]
    patches = []
    for module_name, fn_name, count, namer in _layers(k3):
        original = getattr(getattr(k3, module_name), fn_name)
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, count, namer)
        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is original]:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def restore():
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    return restore


# per-layer metrics: name -> unit; the time of a layer is the summed
# duration of its spans, `self_s` subtracts the time its child spans cover
LAYER_METRICS = {
    "walls.hilbert_walls.s": "s",
    "walls.hilbert_walls.calls": "count",
    "walls.hilbert_walls.records": "count",
    "walls.hilbert_walls.errors": "count",
    "walls.hilbert_walls.uncertified": "count",
    "walls.transport_walls.s": "s",
    "walls.transport_walls.records": "count",
    "walls.candidate_walls.s": "s",
    "walls.candidate_walls.records": "count",
    "walls.candidate_walls.uncertified": "count",
    "charge.path_intersection.s": "s",
    "charge.path_intersection.calls": "count",
    "charge.path_intersection.hits": "count",
    "crossing.positive_classes.s": "s",
    "crossing.positive_classes.found": "count",
    "crossing.decompositions.s": "s",
    "crossing.decompositions.self_s": "s",
    "crossing.decompositions.found": "count",
    "crossing.stratum_dims.s": "s",
    "crossing.stratum_dims.errors": "count",
    "crossing.walls_with_decomposition_ratio": "ratio",
    "report.walls_payload.s": "s",
    "report.render_text.s": "s",
    "report.render_csv.s": "s",
    "report.render_json.s": "s",
    "report.bytes": "bytes",
    "svgfig.render_figure.s": "s",
    "svgfig.bytes": "bytes",
}
CLI_SUBCOMMANDS = ("walls", "path", "decompose", "transport", "figure")


def layer_values(tracer: Tracer, scale) -> dict:
    """The layer metrics of one traced round, from its spans and counts;
    scale(t) puts a duration measured at time t on the benchmark's scale."""
    total: dict = defaultdict(float)
    covered: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    main_ms: dict = defaultdict(list)
    durations = {sid: (end - start) * scale(start) for sid, _, start, end, _, _ in tracer.spans}
    for sid, name, start, end, parent, op in tracer.spans:
        if parent is not None:
            covered[parent] += durations[sid]
    for sid, name, start, end, parent, op in tracer.spans:
        total[name] += durations[sid]
        self_time[name] += durations[sid] - covered[sid]
        if name.startswith("cli.main."):
            main_ms[name[len("cli.main."):]].append(durations[sid] * 1000)
    counts = tracer.counts
    values = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "s":
            values[metric] = total[layer]
        elif field == "self_s":
            values[metric] = self_time[layer]
        else:
            values[metric] = counts[metric]
    calls = counts["crossing.decompositions.calls"]
    values["crossing.walls_with_decomposition_ratio"] = (
        counts["crossing.decompositions.nonempty"] / calls if calls else 0.0
    )
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.main_ms.{sub}"] = statistics.median(main_ms[sub]) if main_ms[sub] else 0.0
    return values
