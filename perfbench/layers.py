"""Per-layer metrics from a traced run's spans.

The server's spans (see ``traced_serve.py``) and the client's own spans
share one clock.  A single closed-loop client keeps one job (or batch)
in flight at a time, so every server span inside a job's window
``[submit sent, done seen]`` belongs to that job, and every span inside
the timed phase belongs to one of its operations.

Layer metrics are normalised per characterization, per job, per HTTP
request or per occurrence, as their names say.  A layer
that a workload never enters reports 0 (for example the journal on the
workloads without ``--state-dir``).
"""

from __future__ import annotations

import bisect
import json
import statistics
from pathlib import Path

#: Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "http.submit_ms": "ms",
    "routes.self_ms": "ms",
    "http.sse_done_lag_ms": "ms",
    "http.sse_bytes_per_job": "bytes",
    "protocol.codec_ms_per_request": "ms",
    "jobs.queue_wait_ms": "ms",
    "jobs.events_per_job": "count",
    "engine.select_ms": "ms",
    "journal.append_ms_per_job": "ms",
    "journal.bytes_per_job": "bytes",
    "journal.fsyncs_per_job": "count",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "bytes",
    "executor.dispatch_ms": "ms",
    "executor.return_ms": "ms",
    "executor.task_bytes": "bytes",
    "executor.register_s": "s",
    "executor.register_bytes": "bytes",
    "sketch.build_ms": "ms",
    "sketch.bytes": "bytes",
    "preparation.self_ms": "ms",
    "components.compute_ms": "ms",
    "components.calls_per_query": "count",
    "stats_cache.ms": "ms",
    "stats_cache.sketch_answer_ratio": "ratio",
    "stats_cache.inside_hit_ratio": "ratio",
    "stats_cache.tier_top5_overlap": "ratio",
    "search.ms": "ms",
    "search.dependency_ms": "ms",
    "search.candidates": "count",
    "post.ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("layer", "name", "start", "end", "pid", "tid", "parent",
                 "attrs")

    def __init__(self, row):
        (self.layer, self.name, self.start, self.end, self.pid, self.tid,
         self.parent, attrs) = row
        self.attrs = attrs or {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def load_spans(spans_dir: Path) -> list[Span]:
    spans = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(Span(json.loads(line)))
    spans.sort(key=lambda s: s.start)
    return spans


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class ThreadIndex:
    """Spans grouped by (process, thread), sorted by start."""

    def __init__(self, spans: list[Span]):
        self.groups: dict[tuple, tuple[list[float], list[Span]]] = {}
        for span in spans:
            starts, members = self.groups.setdefault(
                (span.pid, span.tid), ([], []))
            starts.append(span.start)
            members.append(span)

    def self_ms(self, span: Span, elsewhere=()) -> float:
        """Duration minus what other layers' spans on its thread cover,
        and minus the ``elsewhere`` intervals (work it waited for)."""
        starts, members = self.groups.get((span.pid, span.tid), ([], []))
        lo = bisect.bisect_left(starts, span.start)
        hi = bisect.bisect_right(starts, span.end)
        inner = [(s.start, s.end) for s in members[lo:hi]
                 if s is not span and s.layer != span.layer
                 and s.end <= span.end]
        inner += [(max(a, span.start), min(b, span.end))
                  for a, b in elsewhere if a < span.end and b > span.start]
        return span.ms - _union_length(inner) * 1000.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _inside(spans, start, end):
    return [s for s in spans if s.start >= start and s.end <= end]


def _is_run(span: Span) -> bool:
    return span.layer == "executor" and span.name in ("run", "TaskContext.run")


def _is_submit(span: Span) -> bool:
    return span.layer == "executor" and span.name.endswith("Executor.submit")


def layer_metrics(spans: list[Span], client, phase: tuple[float, float],
                  overlap: float, traced_p50: float, untraced_p50: float
                  ) -> dict[str, float]:
    """Every metric of :data:`LAYER_UNITS` for one traced phase.

    ``client`` is the traced phase's :class:`workloads.Client`; ``phase``
    the ``[start, end]`` of its timed loop.
    """
    in_phase = _inside(spans, *phase)
    phase_starts = [s.start for s in in_phase]
    index = ThreadIndex(in_phase)
    chars = max(client.characterizations, 1)
    n_jobs = max(len(client.jobs), 1)
    windows = ([(j[0], j[1]) for j in client.jobs]
               + [(b[0], b[1]) for b in client.batches])
    by_layer: dict[str, list[Span]] = {}
    for span in in_phase:
        by_layer.setdefault(span.layer, []).append(span)

    def layer_ms(layer: str) -> float:
        return sum(s.ms for s in by_layer.get(layer, ()))

    dispatch, ret, queue, lag, unattributed = [], [], [], [], []
    #: Work start -> finish per window: a route that waits for a
    #: synchronous characterization (/v2/batch) is idle meanwhile, so
    #: this is taken out of its self time.
    executing = []
    for (start, end) in windows:
        mine = _inside(in_phase[bisect.bisect_left(phase_starts, start):
                                bisect.bisect_right(phase_starts, end)],
                       start, end)
        submits = [s for s in mine if _is_submit(s)]
        runs = [s for s in mine if _is_run(s)]
        finishes = [s for s in mine
                    if s.layer == "executor" and s.name == "finish"]
        begins = [s for s in mine if s.layer == "jobs" and s.name == "begin"]
        job_submits = [s for s in mine
                       if s.layer == "jobs" and s.name.endswith(".submit")]
        covered = [(s.start, s.end) for s in mine if s.end > s.start]
        if submits and runs:
            dispatch.append((runs[0].start - submits[0].start) * 1000.0)
            covered.append((submits[0].start, runs[0].start))
        if runs and finishes:
            executing.append((runs[0].start, finishes[-1].end))
            ret.append((finishes[0].start - runs[-1].end) * 1000.0)
            covered.append((runs[-1].end, finishes[0].start))
        if job_submits and begins:
            queue.append((begins[0].start - job_submits[0].start) * 1000.0)
            covered.append((job_submits[0].start, begins[0].start))
        if finishes and client.jobs:
            lag.append((end - finishes[-1].end) * 1000.0)
            covered.append((finishes[-1].end, end))
        clipped = [(max(a, start), min(b, end)) for a, b in covered
                   if b > start and a < end]
        unattributed.append((end - start - _union_length(clipped)) * 1000.0)

    requests = (len(client.jobs) * 2 + len(client.batches)
                + len(client.page_ms)
                + sum(1 for s in client.spans if s[0] == "http.configure"))
    routes = by_layer.get("routes", [])
    cache_spans = by_layer.get("stats_cache", [])

    def counter(name: str) -> int:
        return sum(s.attrs.get(name, 0) for s in cache_spans)

    sketch_tried = counter("sketch_hits") + counter("sketch_fallbacks")
    inside_tried = counter("inside_hits") + counter("inside_misses")
    before_phase = [s for s in spans if s.end <= phase[0]]
    registers = [s for s in before_phase if s.layer == "executor"
                 and s.name.endswith("register_table")]
    coordinator_registers = [s for s in registers if s.attrs.get("register")]
    saves = [s for s in spans
             if s.layer == "snapshot" and s.attrs.get("wrote")]
    sketches = [s for s in spans if s.layer == "sketch"]
    searches = by_layer.get("search", [])
    journal = by_layer.get("journal", [])
    job_count = n_jobs if client.jobs else 0

    out = {
        "http.submit_ms": _median((e - s) * 1000.0 for n, s, e in client.spans
                                  if n == "http.submit"),
        "routes.self_ms": _median(index.self_ms(s, executing)
                                  for s in routes),
        "http.sse_done_lag_ms": _median(lag),
        "http.sse_bytes_per_job": _mean(j[2] for j in client.jobs),
        "protocol.codec_ms_per_request":
            layer_ms("protocol") / max(requests, 1),
        "jobs.queue_wait_ms": _median(queue),
        "jobs.events_per_job": _mean(j[3] for j in client.jobs),
        "engine.select_ms": layer_ms("engine") / chars,
        "journal.append_ms_per_job":
            sum(s.ms for s in journal) / n_jobs if job_count else 0.0,
        "journal.bytes_per_job":
            sum(s.attrs.get("bytes", 0) for s in journal) / n_jobs
            if job_count else 0.0,
        "journal.fsyncs_per_job":
            sum(1 for s in by_layer.get("fsync", ())
                if s.parent == "journal") / n_jobs if job_count else 0.0,
        "snapshot.save_ms": _median(s.ms for s in saves),
        "snapshot.bytes": _median(s.attrs.get("bytes", 0) for s in saves),
        "executor.dispatch_ms": _median(dispatch),
        "executor.return_ms": _median(ret),
        "executor.task_bytes": _mean(
            s.attrs.get("task_bytes", 0) for s in by_layer.get("executor", ())
            if _is_submit(s)),
        "executor.register_s":
            (max(s.end for s in registers)
             - min(s.start for s in coordinator_registers))
            if coordinator_registers else 0.0,
        "executor.register_bytes":
            sum(s.attrs.get("bytes", 0) for s in coordinator_registers),
        "sketch.build_ms": sum(s.ms for s in sketches),
        "sketch.bytes": sum(s.attrs.get("bytes", 0) for s in sketches),
        "preparation.self_ms": sum(
            index.self_ms(s) for s in by_layer.get("preparation", ())
        ) / chars,
        "components.compute_ms": layer_ms("components") / chars,
        "components.calls_per_query":
            len(by_layer.get("components", ())) / chars,
        "stats_cache.ms": layer_ms("stats_cache") / chars,
        "stats_cache.sketch_answer_ratio":
            counter("sketch_hits") / sketch_tried if sketch_tried else 0.0,
        "stats_cache.inside_hit_ratio":
            counter("inside_hits") / inside_tried if inside_tried else 0.0,
        "stats_cache.tier_top5_overlap": overlap,
        "search.ms": layer_ms("search") / chars,
        "search.dependency_ms": layer_ms("dependency") / chars,
        "search.candidates": _mean(s.attrs.get("candidates", 0)
                                   for s in searches),
        "post.ms": layer_ms("post") / chars,
        "trace.unattributed_ms": _median(unattributed),
        "trace.overhead_pct":
            (traced_p50 / untraced_p50 - 1.0) * 100.0 if untraced_p50 else 0.0,
    }
    return out
