"""Zone-parallel simulation: shard plans, windowed sync, the two engines.

SHARQFEC's admin scoping makes the zone hierarchy a natural shard
boundary (ROADMAP item 1): each top-level zone runs in its own engine
instance, cross-zone packets cross at the zone-boundary links, and the
minimum boundary latency gives a conservative synchronization window.

* :mod:`repro.engine.partition` — logical shards, ownership, lookahead.
* :mod:`repro.engine.sync` — window schedule + message ordering (pure).
* :mod:`repro.engine.runner` — one shard's world; result merging.
* :mod:`repro.engine.sharded` — the in-process reference engine and the
  multiprocessing engine.

What a run *is* (:class:`repro.scenario.RunSpec`), how one shard's world is
assembled and what a merged run exports all live in :mod:`repro.scenario`,
shared with the single-simulator harness.

See ``docs/SCALING.md`` for the protocol and its determinism guarantees.
"""

from repro.engine.partition import BoundaryLink, LogicalShard, ShardPlan, plan_shards
from repro.engine.runner import (
    LogicalShardRunner,
    MergedRun,
    ShardResult,
    merge_results,
    plan_for_spec,
)
from repro.engine.sharded import run_reference, run_sharded
from repro.engine.sync import CrossShardMessage, containing_window, message_sort_key, window_ends

__all__ = [
    "BoundaryLink",
    "CrossShardMessage",
    "LogicalShard",
    "LogicalShardRunner",
    "MergedRun",
    "ShardPlan",
    "ShardResult",
    "containing_window",
    "merge_results",
    "message_sort_key",
    "plan_for_spec",
    "plan_shards",
    "run_reference",
    "run_sharded",
    "window_ends",
]
