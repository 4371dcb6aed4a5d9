"""Central event-time watermark tracker (SURVEY.md §2.9).

One small actor: each input partition reports its max observed event_ts; the
global low-watermark is ``min over partitions (max_ts) - allowed_lateness``.
Windows finalize (emit + evict state) only once the global watermark passes
their end — the streaming analog of the reference finishing a document before
writing it out (cli.py:989-996).
"""

from __future__ import annotations

import ray

from . import Resettable


@ray.remote(num_cpus=0)
class WatermarkTracker(Resettable):
    def __init__(self, num_partitions: int, allowed_lateness: int):
        self.n_partitions = num_partitions
        self.max_ts = {p: None for p in range(num_partitions)}
        self.closed: set[int] = set()  # tombstones: closure is permanent
        self.lateness = allowed_lateness

    def update(self, partition_id: int, max_ts: int) -> int:
        # a closed partition can never be resurrected: Ray retries a dead
        # consumer task, and its replayed update() arriving AFTER its
        # close_partition() must not re-insert the key — that would REGRESS
        # the watermark other consumers already observed
        if partition_id in self.closed:
            return self.watermark()
        if not 0 <= partition_id < self.n_partitions:
            # an unknown id would be inserted but never closed, pinning the
            # watermark forever (silent hang); fail loud at the source
            raise ValueError(
                f"partition_id {partition_id} outside the tracker's range "
                f"[0, {self.n_partitions}) — tracker and consumers disagree "
                "on the partition count"
            )
        cur = self.max_ts.get(partition_id)
        if cur is None or max_ts > cur:
            self.max_ts[partition_id] = max_ts
        return self.watermark()

    def watermark(self) -> int:
        if not self.max_ts:  # every partition closed: nothing can arrive
            return 1 << 62
        vals = list(self.max_ts.values())
        if any(v is None for v in vals):
            return -(1 << 62)
        return min(vals) - self.lateness

    def close_partition(self, partition_id: int) -> int:
        """A finished partition stops holding the watermark back (permanent:
        a replayed update for it is ignored)."""
        self.closed.add(partition_id)
        self.max_ts.pop(partition_id, None)
        return self.watermark()
