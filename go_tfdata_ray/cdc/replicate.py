"""Lake-to-lake incremental replication: keep a FOLLOWER lake in sync off
the source lake's CDC-out feed (``CDCEngine.changes()``).

The follower is itself an ordinary CDC lake; each sync applies the net
change set since the last sync as ONE synthesized epoch through the
standard fenced two-phase commit, with the applied SOURCE manifest
version folded into the follower's manifest stats in the SAME commit
(``replica_src_version``) — so a crash anywhere leaves either the old
watermark (the whole sync re-runs; run files a crashed or retried task
wrote are unreferenced orphans that ``vacuum`` removes) or the new one
(the sync is complete): exactly once, resumable from a fresh process.

When the incremental feed is gone — the source compacted, resharded or
vacuumed past the follower's watermark, the standard change-data-feed
retention contract — the sync falls back to a DISTRIBUTED full resync:
the live source snapshot upserts, and follower-only keys (rows the
source deleted while the feed was unavailable) are tombstoned via the
exact anti join (`stages/joins.py:anti_join_keys` — Bloom-prefiltered
past the broadcast threshold, nothing key-proportional on the driver).

Scale shape: the feed streams block-by-block into the follower's run
files (one write task per block, ``CDCEngine._apply_synth``; no
all-to-all, only intent rows reach the driver). Reference semantics:
the reader→writer pipe of go-tfdata (readers.go / writers.go chained in
cmd/tfdata-examples) re-expressed as a versioned feed between two
transactional lakes — a beyond-parity component.
"""

from __future__ import annotations

import functools
from typing import Any

import pyarrow as pa

from ..sources.wal import LAKE_COLUMNS
from ..stages.joins import anti_join_keys
from .engine import CDCEngine

__all__ = ["sync_replica"]


def _tag(op: str, t: pa.Table) -> pa.Table:
    """Full-resync rows with their change op."""
    return t.append_column("op", pa.array([op] * len(t), pa.string()))


def sync_replica(src_dir: str, replica_dir: str, num_partitions: int = 32,
                 num_shards: int = 64) -> dict[str, Any]:
    """Roll the follower lake at ``replica_dir`` forward to the source
    lake's current manifest version. Safe to call from cron / a fresh
    process: the follower's own manifest carries the watermark. Returns
    the sync report (mode 'noop' | 'incremental' | 'full', rows staged,
    deletes, source version).

    The follower's partition count is independent of the source's
    (``num_partitions`` applies only at follower creation); a source
    ``reshard()`` folds its feed and simply forces one full resync."""
    src = CDCEngine(src_dir)
    dst = CDCEngine(replica_dir, num_partitions=num_partitions)
    v0 = int(dst.manifest.stats.get("replica_src_version", 0))
    v1 = int(src.manifest.version)
    if v1 <= v0:
        return {"mode": "noop", "skipped": True, "src_version": v0,
                "rows_staged": 0, "deletes_staged": 0}
    try:
        feed = src.changes(v0, collapsed=True)
        mode = "incremental"
    except RuntimeError:
        # feed folded away (compact / reshard / vacuum past v0): full
        # resync — upsert the live snapshot, tombstone follower-only keys
        mode = "full"
        gone = anti_join_keys(dst.scan(columns=["doc_id"]),
                              src.scan(columns=["doc_id"]),
                              on="doc_id", num_shards=num_shards)
        feed = src.scan(columns=LAKE_COLUMNS).map_batches(
            functools.partial(_tag, "U"), batch_format="pyarrow",
            zero_copy_batch=True,
        ).union(gone.map_batches(functools.partial(_tag, "D"),
                                 batch_format="pyarrow", zero_copy_batch=True))
    # an empty change set still commits (a zero-row epoch) so the source
    # watermark advances atomically and the next sync is a cheap no-op
    out, n, n_del = dst._apply_synth(feed, None, {"replica_src_version": v1})
    out.update(mode=mode, src_version=v1, rows_staged=n, deletes_staged=n_del)
    return out
