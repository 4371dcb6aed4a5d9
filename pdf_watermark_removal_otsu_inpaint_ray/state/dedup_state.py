"""Streaming duplicate suppression with event-time TTL state (§2.7 × §2.9).

The exactly-once sink makes the ENGINE's writes idempotent; this operator
makes the STREAM idempotent when the *source* is at-least-once (retried
producers, replayed log segments): each row carries an int64 identity
(``dedup_id``, typically a content hash) and only the FIRST occurrence per
identity — in event time — inside a rolling ``horizon`` is admitted.

Semantics (deterministic in EVENT time, never arrival time): order rows by
``(event_ts, doc_id)``; per identity, a row is kept iff the identity was
never kept before, or its ``event_ts`` exceeds the last KEPT occurrence's
by more than ``horizon`` (the chain restarts at each kept row —
``horizon=None`` means keep-first-forever).  The event-time gate
(``staging._SweepGateBase``) admits a row into that order only once the
watermark passes its timestamp (no earlier-ts row can still arrive),
which is what makes the decision arrival-order-free; rows arriving after
their decision epoch are LATE (counted + routed by the gate, keeping
their own ``doc_id``).

State per actor: ONE sorted int64 array pair (identity → last-kept ts).
Rows route to actors by identity hash, so all occurrences of an identity
meet the same actor; the watermark-driven sweep evicts every entry whose
``last_kept + horizon`` fell behind the watermark (any future row would be
re-admitted anyway) — with a finite horizon the state is bounded by the
identities active inside one horizon, not by the stream.  All chain
resolution is vectorized: one lexsort per finalize plus one masked round
per kept-row generation (rounds = max keeps per identity per sweep, ~1).

Reference analog: the sticky-detection "first hit wins" rule
(watermark_detector.py:362-419) applied to row identity instead of window
detection; SURVEY §2.7's dedup family lifted into the streaming tier.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _EOS, _MIN, _SweepGateBase


def _splitmix_route(ids: np.ndarray, n: int) -> np.ndarray:
    k = ids.astype(np.uint64)
    return (
        ((k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)) % np.uint64(n)
    ).astype(np.int64)


def serial_dedup_mask(
    ids: np.ndarray,
    ts: np.ndarray,
    seq: np.ndarray,
    horizon: int | None,
) -> np.ndarray:
    """Single-process reference of the keep rule over a COMPLETE input
    (rows in any order): returns the boolean keep mask in input row order.
    Used by tests as the golden twin and by the actor's finalize sweep —
    the sweep IS this rule applied per watermark epoch with the chain
    carried in state."""
    order = np.lexsort((seq, ts, ids))
    ids_s, ts_s = ids[order], ts[order]
    keep_s = np.zeros(len(ids_s), dtype=bool)
    last: dict[int, int] = {}
    for i in range(len(ids_s)):
        p = last.get(int(ids_s[i]))
        if p is None or (horizon is not None and ts_s[i] > p + horizon):
            keep_s[i] = True
            last[int(ids_s[i])] = int(ts_s[i])
    keep = np.zeros(len(ids_s), dtype=bool)
    keep[order] = keep_s
    return keep


@ray.remote
class DedupStateActor(_SweepGateBase):
    def __init__(
        self,
        *,
        horizon: int | None = None,
        id_col: str = "dedup_id",
        ts_col: str = "event_ts",
        seq_col: str = "doc_id",
        **sink,
    ):
        self.horizon = horizon
        self.id_col, self.ts_col, self.seq_col = id_col, ts_col, seq_col
        self._init_gate(**sink)
        # identity state: parallel sorted arrays (id → last kept event_ts)
        self._sid = np.zeros(0, np.int64)
        self._sts = np.zeros(0, np.int64)
        self.n_kept = 0
        self.n_dup = 0

    # -- ingest / sweep -----------------------------------------------------

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        """Absorb a micro-batch, sweep every row the watermark passed."""
        self._gate(batch, watermark)
        self._sweep(self.wm)

    def _sweep(self, wm: int) -> None:
        """Finalize pending rows with ts <= wm in (ts, seq) event order,
        chain them through the identity state, evict expired state; emit
        the kept rows."""
        ready = self._ready(wm)
        if ready is None:
            return

        ids = np.asarray(ready[self.id_col], np.int64)
        rts = np.asarray(ready[self.ts_col], np.int64)
        seq = np.asarray(ready[self.seq_col], np.int64)
        n = len(ids)
        order = np.lexsort((seq, rts, ids))
        ids_s, ts_s = ids[order], rts[order]
        seg_first = np.empty(n, dtype=bool)
        seg_first[0] = True
        seg_first[1:] = ids_s[1:] != ids_s[:-1]
        seg_id = np.cumsum(seg_first) - 1
        uniq = ids_s[seg_first]
        n_seg = len(uniq)

        if self._sid.size:
            pos = np.searchsorted(self._sid, uniq)
            found = pos < self._sid.size
            found[found] = self._sid[pos[found]] == uniq[found]
            prev_seg = np.where(
                found, self._sts[np.minimum(pos, self._sid.size - 1)], _MIN
            )
        else:
            prev_seg = np.full(n_seg, _MIN)
        prev = prev_seg[seg_id]

        keep_s = np.zeros(n, dtype=bool)
        undecided = np.ones(n, dtype=bool)
        row_idx = np.arange(n)
        h = self.horizon
        while undecided.any():
            if h is None:
                cand = undecided & (prev == _MIN)
            else:
                cand = undecided & ((prev == _MIN) | (ts_s > prev + h))
            c_idx = np.nonzero(cand)[0]
            if c_idx.size == 0:
                undecided[:] = False
                break
            segs = seg_id[c_idx]
            first_mask = np.empty(c_idx.size, dtype=bool)
            first_mask[0] = True
            first_mask[1:] = segs[1:] != segs[:-1]
            firsts = c_idx[first_mask]
            keep_s[firsts] = True
            f_seg = np.full(n_seg, -1, dtype=np.int64)
            f_seg[seg_id[firsts]] = firsts
            f_row = f_seg[seg_id]
            has = f_row >= 0
            # rows at/before the kept row (or in segments with no candidate
            # left) are decided; rows after it re-chain against the new prev
            decided_now = undecided & (~has | (row_idx <= f_row))
            undecided &= ~decided_now
            safe_f = np.maximum(f_row, 0)
            prev = np.where(has & (row_idx > f_row), ts_s[safe_f], prev)

        # per-identity final chain head: ts of the LAST kept row, else the
        # prior state value (MIN = never kept → no entry)
        last_seg = prev_seg.copy()
        k_idx = np.nonzero(keep_s)[0]
        if k_idx.size:
            # k_idx ascends within each segment: maximum.at keeps the max ts
            np.maximum.at(last_seg, seg_id[k_idx], ts_s[k_idx])

        # merge into state (new values win), then evict expired entries
        cat_id = np.concatenate([self._sid, uniq[last_seg != _MIN]])
        cat_ts = np.concatenate([self._sts, last_seg[last_seg != _MIN]])
        if cat_id.size:
            o = np.argsort(cat_id, kind="stable")
            cat_id, cat_ts = cat_id[o], cat_ts[o]
            last_of_run = np.empty(cat_id.size, dtype=bool)
            last_of_run[-1] = True
            last_of_run[:-1] = cat_id[1:] != cat_id[:-1]
            self._sid, self._sts = cat_id[last_of_run], cat_ts[last_of_run]
        if h is not None and self._sid.size:
            alive = self._sts + h > wm
            if not alive.all():
                self._sid, self._sts = self._sid[alive], self._sts[alive]

        keep = np.zeros(n, dtype=bool)
        keep[order] = keep_s
        self.n_kept += int(keep.sum())
        self.n_dup += int(n - keep.sum())
        out = ready.filter(pa.array(keep))
        self._divert([out] if out.num_rows else [])

    def flush(self) -> None:
        """End of stream: sweep everything still pending."""
        self._sweep(_EOS)

    _CKPT_FIELDS = ("_sid", "_sts", "_pending", "finalized_upto",
                    "n_kept", "n_dup")

    def state_stats(self) -> dict:
        return {
            "n_kept": self.n_kept,
            "n_dup": self.n_dup,
            "n_late": self.n_late,
            "state_ids": int(self._sid.size),
            "pending_rows": self._pending_rows(),
        }
