"""Streaming changelog materialization: the batch CDC compaction
(``functions/packing.py::grouped_latest`` — ``row_number() OVER
(PARTITION BY key ORDER BY ts DESC, seq DESC) = 1``) maintained as LIVE
keyed state — the Flink "upsert sink" / materialized-view shape.

Latest-per-key is a commutative idempotent monoid (max by ``(order,
tiebreak)`` with the payload riding along), so unlike the funnel/dedup
actors this one needs NO watermark, NO event-time ordering, and has NO
late rows: any arrival interleaving yields the same materialized state.
The streaming value is the state bound — one row per live key, never the
log — and the amortized ingest cost:

* per micro-batch: one lexsort over the BATCH prunes it to ≤ one row per
  (batch, key) — the same partial-prune rule the batch operator pushes
  through its shuffle — appended to a delta buffer;
* compaction (delta buffer ≥ threshold, or at emit): ONE lexsort over
  state+deltas keeps the last run per key.  State is never re-sorted per
  batch.

Rows route to actors by KEY hash (all versions of a key meet one actor);
the final state emits at flush, one row per key, straight into the
exactly-once staged layout in sink mode.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _StagedEmitterBase


def _latest_prune(tbl: pa.Table, group: str, order: str, tiebreak: str) -> pa.Table:
    """Keep the last row per key by ``(order, tiebreak)`` — vectorized
    lexsort + run-boundary sweep; output sorted by key."""
    k = np.asarray(tbl[group], np.int64)
    o = np.asarray(tbl[order], np.int64)
    t = np.asarray(tbl[tiebreak], np.int64)
    idx = np.lexsort((t, o, k))
    ks = k[idx]
    last = np.empty(len(ks), dtype=bool)
    last[-1] = True
    last[:-1] = ks[1:] != ks[:-1]
    return tbl.take(pa.array(idx[last], pa.int64()))


@ray.remote
class UpsertStateActor(_StagedEmitterBase):
    def __init__(
        self,
        *,
        group_col: str = "user_id",
        order_col: str = "ts_us",
        tiebreak_col: str = "event_id",
        compact_rows: int = 65536,
        **sink,
    ):
        self.group_col, self.order_col = group_col, order_col
        self.tiebreak_col = tiebreak_col
        self.compact_rows = compact_rows
        self._init_staging(**sink)
        self._state: pa.Table | None = None
        self._delta: list[pa.Table] = []
        self._delta_rows = 0
        self.n_rows = 0

    def ingest(self, batch: pa.Table) -> None:
        """Absorb a micro-batch: prune to the batch's latest per key,
        buffer, compact past the threshold."""
        self.n_rows += batch.num_rows
        pruned = _latest_prune(
            batch, self.group_col, self.order_col, self.tiebreak_col
        )
        self._delta.append(pruned)
        self._delta_rows += pruned.num_rows
        if self._delta_rows >= self.compact_rows:
            self._compact()

    def _compact(self) -> None:
        if not self._delta:
            return
        parts = ([self._state] if self._state is not None else []) + self._delta
        self._delta, self._delta_rows = [], 0
        self._state = _latest_prune(
            pa.concat_tables(parts), self.group_col, self.order_col,
            self.tiebreak_col,
        )

    def flush(self) -> None:
        """End of stream: compact, emit the materialized state (one row per
        key)."""
        self._compact()
        if self._state is None or self._state.num_rows == 0:
            return
        out = self._state
        # staged layout partitions on doc_id: the key is unique per state row
        if "doc_id" not in out.column_names:
            out = out.append_column("doc_id", out[self.group_col].cast(pa.int64()))
        self._divert([out])

    _CKPT_FIELDS = ("_state", "_delta", "_delta_rows", "n_rows")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_keys": 0 if self._state is None else self._state.num_rows,
            "delta_rows": self._delta_rows,
        }
