"""Sharded parallel execution of experiment grids.

``WorkPlan`` deals a grid into worker-count-independent shards;
``run_plan`` executes them across processes (or inline at
``workers=1``) and merges results and observability back into the
parent — byte-identical output for any worker count.  See
``docs/architecture.md`` ("Parallel execution") for the design.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "engine": ("ShardResult", "WorkerCrashError", "run_plan", "shard_bundle"),
    "workplan": (
        "DEFAULT_NUM_SHARDS", "WorkPlan", "derive_seed", "effective_workers",
    ),
})
