"""The zone-parallel engines: in-process reference and multiprocessing.

Both engines execute the *same* windowed algorithm over the same logical
shards (one per top-level zone plus the residue, see
:mod:`repro.engine.partition`):

1. every shard runs its local events up to the next window end;
2. packets that crossed a shard boundary during the window are routed to
   their owning shard;
3. each shard injects its inbox — canonically sorted — and enters the
   next window.

The conservative lookahead (window width = minimum boundary-link
latency) guarantees step 3 never schedules into a shard's past.  The
reference engine (:func:`run_reference`) drives every shard in one
process; :func:`run_sharded` packs the logical shards onto worker
processes round-robin and exchanges messages over pipes.  Because the
logical decomposition, the per-shard RNG streams and the merge order are
all independent of the packing, the two produce byte-identical exports —
the differential suite (``tests/test_engine_differential.py``) holds
them to that.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Dict, List, Optional

from repro.engine.partition import ShardPlan
from repro.engine.runner import (
    LogicalShardRunner,
    MergedRun,
    ShardResult,
    merge_results,
    plan_for_spec,
)
from repro.engine.sync import CrossShardMessage, window_ends
from repro.errors import EngineError
from repro.scenario import RunSpec, collector_paused

# ------------------------------------------------------------------ reference


@collector_paused()
def run_reference(spec: RunSpec) -> MergedRun:
    """Run every logical shard in this process (the equivalence baseline).

    Same decomposition, same window schedule, same injection ordering as
    the multiprocessing engine — only the transport differs (function
    calls instead of pipes), so any divergence in output is an engine
    bug, not a modelling difference.
    """
    wall_start = time.perf_counter()
    plan = plan_for_spec(spec)
    runners = [LogicalShardRunner(spec, plan, shard) for shard in plan.shards]
    pending: List[List[CrossShardMessage]] = [[] for _ in plan.shards]
    for end in window_ends(spec.run_end, plan.lookahead):
        routed: List[List[CrossShardMessage]] = [[] for _ in plan.shards]
        for runner in runners:
            runner.inject(pending[runner.shard.index])
            runner.run_until(end)
            for message in runner.drain_outbox():
                routed[message.dst_shard].append(message)
        pending = routed
    merged = merge_results(spec, plan, [runner.finish() for runner in runners])
    merged.workers = 0
    merged.wall_seconds = time.perf_counter() - wall_start
    return merged


# ------------------------------------------------------------- multiprocessing


@collector_paused()
def _worker_main(conn, spec: RunSpec, plan: ShardPlan, shard_ids: List[int]) -> None:
    """Worker process: run the assigned logical shards in lockstep.

    Paused like :func:`run_reference`, so the two engines are compared
    under one memory policy.

    Protocol (parent -> worker): ``("window", end, {shard_id: [msg]})``
    answered with ``("ok", [outbound msg])``; ``("finish",)`` answered
    with ``("ok", [ShardResult])``.  Any exception answers ``("error",
    traceback)`` and ends the worker.
    """
    try:
        runners = {
            shard_id: LogicalShardRunner(spec, plan, plan.shards[shard_id])
            for shard_id in shard_ids
        }
        ordered = [runners[shard_id] for shard_id in sorted(runners)]
        while True:
            request = conn.recv()
            if request[0] == "window":
                _, end, inboxes = request
                outbound: List[CrossShardMessage] = []
                for runner in ordered:
                    runner.inject(inboxes.get(runner.shard.index, []))
                    runner.run_until(end)
                    outbound.extend(runner.drain_outbox())
                conn.send(("ok", outbound))
            elif request[0] == "finish":
                conn.send(("ok", [runner.finish() for runner in ordered]))
                return
            else:  # pragma: no cover - protocol misuse
                raise EngineError(f"unknown request {request[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            pass
    finally:
        conn.close()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_sharded(spec: RunSpec, workers: Optional[int] = None) -> MergedRun:
    """Run the spec across worker processes (the multiprocessing engine).

    Args:
        spec: the run description (fully picklable; workers rebuild the
            topology and their shards from it).
        workers: worker-process count, clamped to ``[1, n_shards]``;
            defaults to ``os.cpu_count()``.  The *output* is identical
            for every value — only wall-clock time changes.
    """
    wall_start = time.perf_counter()
    plan = plan_for_spec(spec)
    if workers is None:
        workers = os.cpu_count() or 1
    n_workers = max(1, min(int(workers), plan.n_shards))
    shard_ids_of = [
        [shard.index for shard in plan.shards if shard.index % n_workers == w]
        for w in range(n_workers)
    ]
    ctx = _mp_context()
    conns = []
    procs = []
    try:
        for w in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, spec, plan, shard_ids_of[w]),
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        def collect(conn):
            status, payload = conn.recv()
            if status != "ok":
                raise EngineError(f"shard worker failed:\n{payload}")
            return payload

        pending: Dict[int, List[CrossShardMessage]] = {
            shard.index: [] for shard in plan.shards
        }
        for end in window_ends(spec.run_end, plan.lookahead):
            for w, conn in enumerate(conns):
                inboxes = {
                    shard_id: pending[shard_id]
                    for shard_id in shard_ids_of[w]
                    if pending[shard_id]
                }
                conn.send(("window", end, inboxes))
            routed: Dict[int, List[CrossShardMessage]] = {
                shard.index: [] for shard in plan.shards
            }
            for conn in conns:
                for message in collect(conn):
                    routed[message.dst_shard].append(message)
            pending = routed
        results: List[ShardResult] = []
        for conn in conns:
            conn.send(("finish",))
        for conn in conns:
            results.extend(collect(conn))
        for proc in procs:
            proc.join(timeout=60)
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - error cleanup
                proc.terminate()
                proc.join(timeout=10)
    merged = merge_results(spec, plan, results)
    merged.workers = n_workers
    merged.wall_seconds = time.perf_counter() - wall_start
    return merged
