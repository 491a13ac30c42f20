"""Sharded sweep orchestration with a content-addressed result store.

Three layers (see ``docs/sweep.md`` for the full picture):

- :mod:`~repro.sweep.spec` — frozen, hashable :class:`SweepSpec` /
  :class:`CellSpec` / :class:`ShardSpec` grid descriptions; every shard
  has a stable content hash over exactly what determines its rows.
- :mod:`~repro.sweep.store` — :class:`ResultStore`, an on-disk cache
  mapping shard hash → one checksummed JSON entry (the shard spec and
  its trial rows as columns), written atomically; a hit is what lets a
  rerun resume.
- :mod:`~repro.sweep.orchestrator` — :func:`run_sweep`, which executes
  cache-missing shards on a process pool (each worker driving the fleet
  or reference engine) and assembles rows bit-identical to the
  sequential runner calls.

:mod:`~repro.sweep.aggregate` folds stored rows back into the existing
``SeriesPoint`` / ``ExperimentResult`` record schema, and
:mod:`~repro.sweep.rundb` keeps the paper pipeline's persistent run
database (append-only JSONL + rebuildable index, keyed by
execution-fingerprint hash).
"""

from repro.sweep.aggregate import QUANTITIES, cell_point, outcome_value, summarize
from repro.sweep.orchestrator import (
    SweepReport,
    SweepResult,
    execute_shard,
    run_sweep,
)
from repro.sweep.rundb import RUNDB_FORMAT_VERSION, RunDB, RunRecord
from repro.sweep.spec import (
    FLEET_RULES,
    SPEC_FORMAT_VERSION,
    CellSpec,
    ShardSpec,
    SweepSpec,
    canonical_json,
    fingerprint_hash,
)
from repro.sweep.store import STORE_FORMAT_VERSION, ResultStore

__all__ = [
    "CellSpec",
    "FLEET_RULES",
    "QUANTITIES",
    "RUNDB_FORMAT_VERSION",
    "ResultStore",
    "RunDB",
    "RunRecord",
    "SPEC_FORMAT_VERSION",
    "STORE_FORMAT_VERSION",
    "ShardSpec",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "canonical_json",
    "cell_point",
    "execute_shard",
    "fingerprint_hash",
    "outcome_value",
    "run_sweep",
    "summarize",
]
