"""End-to-end benchmark of ``repro serve``: one workload, one run.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Each run builds the workload's inputs from ``--seed``, starts the
deployed CLI (``python -m repro serve`` from this checkout's ``src/``)
with that workload's flags, drives it from this one closed-loop client
over HTTP and SSE for ``--seconds``, checks every answer and prints the
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
gives attempted/failed per operation type.

``--trace 0`` reports the end-to-end metrics.  Set-up (launch until the
tables are registered, shipped to the shards and the warm-up requests,
including the cold first query, are answered) is repeated
:data:`SETUPS` times and its median reported; the last server serves the
timed window.  ``small-durable`` then checks durability outside the
window: SIGTERM, restart on the same state directory with
``--recover resume``, and every acknowledged job the retention policy
keeps must come back ``done`` with the same views and ``n_inside``.

``--trace 1`` reports the per-layer metrics (``layers.py``): one untraced
phase, then one phase on ``traced_serve.py`` with the same seed, whose
spans give the layer split; the two phases' ``done_p50_ms`` give the
tracing overhead.  A traced run also compares each workload's top-5
views against ``sketch_tier="off"`` for a few of its predicates.

The script exits non-zero without printing a result when the server
cannot be started or the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402 - path set above
    BLAS_ENV, SRC, WORK, Http, OpError, Server, ServerError,
    cpu_seconds, peak_rss_mib)

# The client's numpy must not start a BLAS pool either.
os.environ.update(BLAS_ENV)

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metric name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "done_p50_ms": "ms",
    "done_p90_ms": "ms",
    "page_p50_ms": "ms",
    "queries_per_s": "1/s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MiB",
}


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Phase:
    """One server's timed window: the client plus CPU/RSS readings."""

    def __init__(self, client, elapsed, cpu_s, rss_mib, span):
        self.client = client
        self.elapsed = elapsed
        self.cpu_s = cpu_s
        self.rss_mib = rss_mib
        self.span = span

    def done_p50(self) -> float:
        return statistics.median(self.client.done_ms)


def start_server(workload, run_dir: Path, tag: str, launcher=None,
                 state_dir: Path | None = None):
    """Launch, then answer the warm-up; returns (server, client, seconds)."""
    from workloads import Client, Ops

    if state_dir is None and workload.name == "small-durable":
        state_dir = run_dir / f"state-{tag}"
    server = Server(workload.serve_args(state_dir), run_dir / f"{tag}.log",
                    launcher=launcher)
    started = time.perf_counter()
    try:
        server.start()
        client = Client(Http(server), Ops(), "bench")
        workload.fresh_inputs()
        workload.warm_up(client)
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - started


def timed_window(workload, server, client, seconds: float) -> Phase:
    """Whole rounds until ``seconds`` have passed."""
    workload.fresh_inputs()
    cpu0 = cpu_seconds(server.pids())
    t0 = time.perf_counter()
    workload.open_session(client)
    while time.perf_counter() - t0 < seconds:
        workload.round(client)
    t1 = time.perf_counter()
    pids = server.pids()
    phase = Phase(client, t1 - t0, cpu_seconds(pids) - cpu0,
                  peak_rss_mib(pids), (t0, t1))
    workload.check(client.answers, client.ops)
    return phase


def durability(workload, server, client, run_dir: Path) -> None:
    """SIGTERM, restart with ``--recover resume``, compare kept jobs."""
    from repro.service.jobs import DEFAULT_MAX_FINISHED

    ops = client.ops
    kept = [a for a in client.answers if a.job_id][-DEFAULT_MAX_FINISHED:]
    code = server.stop()
    if code != 0:
        ops.fail("recovery", f"server exited {code} on SIGTERM")
        return
    restarted = Server(server.serve_args + ["--recover", "resume"],
                       run_dir / "recovered.log")
    try:
        restarted.start()
    except ServerError as exc:
        ops.fail("recovery", str(exc))
        return
    try:
        http = Http(restarted)
        for answer in kept:
            snap = ops.run("recovery", http.get_json,
                           f"/v2/jobs/{answer.job_id}")
            if snap is None:
                continue
            result = snap.get("result") or {}
            views = [v["columns"] for v in
                     (result.get("views") or {}).get("items", ())]
            want = [v["columns"] for v in answer.views]
            if (snap.get("status") != "done"
                    or result.get("n_inside") != answer.n_inside
                    or views != want):
                ops.failed["recovery"] += 1
                ops.errors.append(
                    f"recovery: {answer.job_id} came back "
                    f"{snap.get('status')} n_inside={result.get('n_inside')} "
                    f"views={views[:3]} (want {answer.n_inside} {want[:3]})")
        http.close()
    finally:
        restarted.stop()


def e2e_metrics(phase: Phase, setups: list[float]) -> dict[str, float]:
    client = phase.client
    return {
        "setup_s": statistics.median(setups),
        "done_p50_ms": _quantile(client.done_ms, 0.5),
        "done_p90_ms": _quantile(client.done_ms, 0.9),
        "page_p50_ms": _quantile(client.page_ms, 0.5),
        "queries_per_s": client.characterizations / phase.elapsed,
        "cpu_ms_per_query":
            phase.cpu_s * 1000.0 / max(client.characterizations, 1),
        "peak_rss_mb": phase.rss_mib,
    }


def run_untraced(workload, seconds: float, run_dir: Path):
    setups, server = [], None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            server, client, took = start_server(workload, run_dir,
                                                f"setup{index}")
            setups.append(took)
        phase = timed_window(workload, server, client, seconds)
        if workload.name == "small-durable":
            durability(workload, server, client, run_dir)
    finally:
        if server is not None:
            server.stop()
    client.http.close()
    return e2e_metrics(phase, setups), client.ops


def tier_overlap(workload, client, answers) -> float:
    """Mean top-5 view overlap, tiered against ``sketch_tier="off"``."""
    from workloads import Client

    exact = Client(client.http, client.ops, "exact-tier")
    picked = workload.overlap_predicates(answers)
    got = workload.exact_answers(exact, picked)
    shares = []
    for tiered, other in zip(picked, got):
        if other is None:
            continue
        top_a = {tuple(v["columns"]) for v in tiered.views[:5]}
        top_b = {tuple(v["columns"]) for v in other.views[:5]}
        shares.append(len(top_a & top_b) / max(len(top_a), len(top_b), 1))
    return sum(shares) / len(shares) if shares else 0.0


def run_traced(workload, seconds: float, run_dir: Path):
    from layers import layer_metrics, load_spans

    server, client, _ = start_server(workload, run_dir, "untraced")
    try:
        plain = timed_window(workload, server, client, seconds)
    finally:
        server.stop()
    client.http.close()
    ops = client.ops

    spans_dir = run_dir / "spans"
    launcher = [str(HERE / "traced_serve.py"), "--spans", str(spans_dir)]
    server, client, _ = start_server(workload, run_dir, "traced",
                                     launcher=launcher)
    client.spans = []
    try:
        traced = timed_window(workload, server, client, seconds)
        overlap = tier_overlap(workload, client, client.answers)
    finally:
        server.stop()
    client.http.close()
    ops.merge(client.ops)
    metrics = layer_metrics(load_spans(spans_dir), client, traced.span,
                            overlap, traced.done_p50(), plain.done_p50())
    return metrics, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("explore", "wide-batch", "small-durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERMed benchmark still tears its server down (the finally
    # blocks run on SystemExit, not on the default signal death).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import LAYER_UNITS
    from workloads import WORKLOADS

    run_dir = WORK / f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            values, ops = run_traced(workload, args.seconds, run_dir)
            units = LAYER_UNITS
        else:
            values, ops = run_untraced(workload, args.seconds, run_dir)
            units = E2E_UNITS
    except (ServerError, OpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in ops.errors:
        print(f"failed {line}", file=sys.stderr)
    print("ops " + json.dumps({k: [ops.attempted[k], ops.failed[k]]
                               for k in ops.attempted})
          + f" mean_shift_signs_checked={ops.signs_checked}")
    result = {
        "correct": ops.failed["check"] == 0 and ops.failed["recovery"] == 0,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
