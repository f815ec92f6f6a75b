"""Launch ``repro serve`` with spans around each layer's entry points.

Usage (the benchmark's traced run does this)::

    python perfbench/traced_serve.py --spans DIR serve <repro serve flags>

The launcher wraps public functions of the program's layers — gateway
routes, the protocol codec, the job manager, the executor backends, the
engine, persistence, the sketch tier and the characterization core —
then calls ``repro.app.cli.main`` with the remaining arguments, so the
server runs with exactly the flags an untraced run gets.  Worker shards
are forked from this process and inherit the wrappers.

Each span is ``[layer, name, start, end, pid, thread, parent, attrs]``
on ``time.perf_counter`` (system-wide ``CLOCK_MONOTONIC`` on Linux, so
spans of different processes line up).  A span is recorded only for the
outermost call of its layer on a thread; ``parent`` is the layer open
around it.  Every process appends its spans to ``DIR/spans-<pid>.jsonl``
whenever its outermost span on a thread ends — after every task in a
shard, after every request in the coordinator.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path


class Recorder:
    """Per-process span buffer, written out when a thread goes idle."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child inherits the parent's buffer and thread state;
        # start it empty so no span is written twice.
        self.spans: list = []
        self.lock = threading.Lock()
        self.local = threading.local()

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def record(self, layer, name, start, end, parent, attrs) -> None:
        with self.lock:
            self.spans.append([layer, name, start, end, os.getpid(),
                               threading.get_ident(), parent, attrs])

    def flush(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
            if not spans:
                return
            path = self.out_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a") as fh:
                fh.write("".join(json.dumps(s) + "\n" for s in spans))


RECORDER: Recorder | None = None


def traced(fn, layer: str, name: str, before=None, after=None):
    """``fn`` wrapped in a span; ``before(args, kwargs)`` returns a state
    that ``after(state, args, result)`` turns into the attributes of an
    outermost call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        stack = rec.stack()
        outer = layer not in stack
        parent = stack[-1] if stack else None
        state = before(args, kwargs) if (outer and before) else None
        stack.append(layer)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if outer:
                attrs = after(state, args, result) if after else None
                rec.record(layer, name, start, end, parent, attrs)
            if not stack:
                rec.flush()

    return wrapper


def point(layer: str, name: str) -> None:
    """A zero-length span marking when something happened."""
    now = time.perf_counter()
    stack = RECORDER.stack()
    RECORDER.record(layer, name, now, now, stack[-1] if stack else None, None)
    if not stack:
        RECORDER.flush()


def wrap_method(cls, attr: str, layer: str, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(traced(raw.__func__, layer,
                                              f"{cls.__name__}.{attr}", **kw)))
    else:
        setattr(cls, attr, traced(raw, layer, f"{cls.__name__}.{attr}", **kw))


def wrap_function(module, attr: str, layer: str, **kw) -> None:
    """Replace ``module.attr`` and every ``from module import attr``
    binding of it in already-imported ``repro`` modules."""
    original = getattr(module, attr)
    wrapped = traced(original, layer, attr, **kw)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") \
                and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _pickled_size(obj) -> int:
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - an unpicklable object ships nothing
        return 0


_CACHE_COUNTERS = ("sketch_hits", "sketch_fallbacks", "inside_hits",
                   "inside_misses")


def _counters_before(args, kwargs):
    counters = args[0].counters
    return [getattr(counters, f) for f in _CACHE_COUNTERS]


def _counters_after(state, args, result):
    counters = args[0].counters
    return {f: getattr(counters, f) - was
            for f, was in zip(_CACHE_COUNTERS, state)}


def install(out_dir: Path) -> None:
    """Wrap every traced entry point (call before the server starts)."""
    global RECORDER
    RECORDER = Recorder(out_dir)

    import repro.app.cli  # noqa: F401 - resolves the lazy serve imports
    from repro.core import preparation, stats_cache
    from repro.core.components import base as components
    from repro.core.explain.generator import ExplanationGenerator
    from repro.core.search.searcher import ViewSearcher
    from repro.core.significance import validator
    from repro.engine.database import Database
    from repro.gateway.routes import GatewayRoutes
    from repro.persistence.journal import JobJournal
    from repro.persistence.snapshots import SnapshotStore
    from repro.runtime.executors import local, process
    from repro.runtime.executors.base import CharacterizationTask
    from repro.service import jobs, protocol, server
    from repro.stats.sketches import TableSketch
    import repro.gateway.server  # noqa: F401 - binds protocol names
    import repro.service.service  # noqa: F401 - binds protocol names

    # gateway.routes, service.server
    for attr in ("handle_get", "handle_post", "stream_precheck",
                 "govern_post", "healthz"):
        wrap_method(GatewayRoutes, attr, "routes")
    wrap_method(server.ZiggyRequestHandler, "_write_sse", "server")

    # service.protocol: the typed codec (every to_dict/from_dict, plus
    # the dispatch and sanitizing helpers).
    for value in list(vars(protocol).values()):
        if isinstance(value, type) and value.__module__ == protocol.__name__:
            for attr in ("to_dict", "from_dict", "from_result"):
                if attr in value.__dict__:
                    wrap_method(value, attr, "protocol")
    for attr in ("parse_request", "json_safe", "view_to_dict"):
        wrap_function(protocol, attr, "protocol")

    # service.jobs: submission; begin/finish are marked by the executor
    # wrapper below, which sees the callbacks the manager hands over.
    wrap_method(jobs.JobManager, "submit", "jobs")

    # runtime.executors
    def submit_before(args, kwargs):
        work = args[1]
        return _pickled_size(work) if isinstance(work, CharacterizationTask) \
            else 0

    def traced_submit(original):
        @functools.wraps(original)
        def submit(self, work, *, begin, progress, finish):
            def begun():
                point("jobs", "begin")
                return begin()

            def finished(*outcome):
                return traced(finish, "executor", "finish")(*outcome)

            if callable(work) and not isinstance(work, CharacterizationTask):
                work = traced(work, "executor", "run")
            return original(self, work, begin=begun, progress=progress,
                            finish=finished)
        return submit

    for cls in (local.InlineExecutor, local.ThreadExecutor,
                process.ProcessShardExecutor):
        cls.submit = traced_submit(cls.__dict__["submit"])
        wrap_method(cls, "submit", "executor",
                    before=submit_before,
                    after=lambda state, a, r: {"task_bytes": state})
        wrap_method(cls, "register_table", "executor",
                    after=lambda state, a, r: {
                        "bytes": _pickled_size(a[1])
                        if isinstance(a[0], process.ProcessShardExecutor)
                        else 0, "register": True})
    wrap_method(local.TaskContext, "run", "executor")
    wrap_method(local.TaskContext, "register_table", "executor")

    # engine
    wrap_method(Database, "select", "engine")

    # persistence
    def journal_before(args, kwargs):
        return getattr(args[0], "_disk_bytes", 0)

    wrap_method(JobJournal, "append", "journal", before=journal_before,
                after=lambda state, a, r: {
                    "bytes": getattr(a[0], "_disk_bytes", 0) - state})
    os.fsync = traced(os.fsync, "fsync", "os.fsync")
    wrap_method(SnapshotStore, "save", "snapshot",
                after=lambda state, a, r: {
                    "wrote": bool(r),
                    "bytes": getattr(a[0], "_blob_bytes", {}).get(a[1], 0)})

    # stats.sketches
    wrap_method(TableSketch, "build", "sketch",
                after=lambda state, a, r: {"bytes": _pickled_size(r)})

    # core.preparation, core.components, core.stats_cache
    wrap_method(preparation.PreparationEngine, "prepare", "preparation")
    registry = components.default_registry()
    for cls in {type(c) for c in registry.unary() + registry.pairwise()}:
        if "compute" in cls.__dict__:
            wrap_method(cls, "compute", "components")
    for cls in (stats_cache.StatsCache, stats_cache.TieredStatsCache):
        for attr, value in list(cls.__dict__.items()):
            if callable(value) and not attr.startswith("_"):
                wrap_method(cls, attr, "stats_cache",
                            before=_counters_before, after=_counters_after)
    wrap_function(stats_cache, "compute_dependency_matrix", "dependency")

    # core.search, core.significance, core.explain
    wrap_method(ViewSearcher, "search", "search",
                after=lambda state, a, r: {
                    "candidates": getattr(r, "n_candidates", 0)})
    wrap_function(validator, "validate_views", "post")
    wrap_method(ExplanationGenerator, "annotate", "post")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans DIR serve [flags]",
              file=sys.stderr)
        return 2
    out_dir = Path(argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    install(out_dir)
    from repro.app.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        RECORDER.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
