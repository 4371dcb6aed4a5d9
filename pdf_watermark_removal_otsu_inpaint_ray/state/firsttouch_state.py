"""Streaming FIRST-touch attribution: the batch
``functions/packing.py::grouped_first_touch`` lifted into the streaming
tier — every conversion credits its group's EARLIEST touch inside the
trailing RANGE window, over a live disordered stream.

The state story differs from last-touch (one carried touch per key):
first-touch must remember every touch that could still OPEN a future
conversion's window — and the watermark bounds exactly that set.  A
future-ready row has ``ts > wm``, so its window floor is ``> wm − W``:
touches at-or-under ``wm − W`` can never be credited again and EVICT at
the end of each sweep.  State is therefore O(touches inside a
(window + lateness) horizon) per actor — the watermark-horizon eviction
rule, the same bound the keyed-window engine applies to histograms,
here applied to a RANGE-query index.

Within a sweep the batch kernel applies unchanged: carried + in-sweep
touches merge into one (key, ts, seq)-sorted array — monotone in the
packed key, so "earliest in window" is the LEFTMOST of a contiguous
range (one composite-key double searchsorted for ALL conversions).
Frame correctness across sweeps: a conversion finalizes when
``wm ≥ ts_c``; any frame touch has ``ts ≤ ts_c ≤ wm`` so it is
finalized in the same-or-earlier sweep (a same-ts touch arriving later
would be LATE by definition) — the merged index is complete when
queried.  Release order and the late side output are the event-time
gate's (``staging._SweepGateBase``).  With lateness covering disorder,
emitted set == batch twin — one definition, two execution tiers, one
SQL twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .staging import _EOS, _MIN, _SweepGateBase


@ray.remote
class FirstTouchStateActor(_SweepGateBase):
    def __init__(
        self,
        *,
        touch: str = "click",
        convert: str = "purchase",
        window: int = 604_800_000_000,
        group_col: str = "user_id",
        ts_col: str = "ts_us",
        seq_col: str = "event_id",
        type_col: str = "event_type",
        **sink,
    ):
        self.touch, self.convert = touch, convert
        self.window = int(window)
        self.group_col, self.ts_col = group_col, ts_col
        self.seq_col, self.type_col = seq_col, type_col
        self._init_gate(**sink)
        # horizon index: touches sorted by (key, ts, seq)
        self._t_key = np.zeros(0, np.int64)
        self._t_ts = np.zeros(0, np.int64)
        self._t_seq = np.zeros(0, np.int64)
        self.n_rows = 0
        self.evicted = 0

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        self._gate(batch, watermark)
        self._sweep(self.wm)

    def _sweep(self, wm: int) -> None:
        ready = self._ready(wm)
        if ready is None:
            self._evict(wm)
            return
        self.n_rows += int(ready.num_rows)

        keys = np.asarray(ready[self.group_col], np.int64)
        rts = np.asarray(ready[self.ts_col], np.int64)
        seq = np.asarray(ready[self.seq_col], np.int64)
        typ = ready[self.type_col].combine_chunks()
        is_touch = np.asarray(pc.equal(typ, self.touch))
        is_conv = np.asarray(pc.equal(typ, self.convert))

        # merge in-sweep touches into the horizon index (one merged sort —
        # both sides already sorted, concat+lexsort keeps it simple and the
        # horizon bound keeps it small)
        tm = np.nonzero(is_touch)[0]
        if tm.size:
            k2 = np.concatenate([self._t_key, keys[tm]])
            s2 = np.concatenate([self._t_ts, rts[tm]])
            q2 = np.concatenate([self._t_seq, seq[tm]])
            o = np.lexsort((q2, s2, k2))
            self._t_key, self._t_ts, self._t_seq = k2[o], s2[o], q2[o]

        out: list[pa.Table] = []
        conv = np.nonzero(is_conv)[0]
        if conv.size and self._t_key.size:
            ck, cts, cseq = keys[conv], rts[conv], seq[conv]
            base = int(self._t_ts.min())
            stride = int(self._t_ts.max()) - base + self.window + 2
            kid = np.unique(self._t_key)
            t_gid = np.searchsorted(kid, self._t_key)
            c_gid = np.searchsorted(kid, ck)
            c_in = (c_gid < kid.size) & (
                kid[np.minimum(c_gid, kid.size - 1)] == ck
            )
            comp_t = t_gid * stride + (self._t_ts - base)
            q_lo = c_gid * stride + np.maximum(cts - self.window - base, -1)
            q_hi = c_gid * stride + np.maximum(cts - base, -1)
            lo = np.searchsorted(comp_t, q_lo, side="left")
            hi = np.searchsorted(comp_t, q_hi, side="right")
            li = np.minimum(lo, max(self._t_key.size - 1, 0))
            # Post-validate: q_lo/q_hi are bounded only by the watermark,
            # so a conversion later than every indexed touch by more than
            # window+1 spills into a higher gid's band (reachable in the
            # very first sweep and on watermark jumps).  Require the
            # matched touch to belong to the conversion's key AND lie in
            # its trailing window — a spilled query never has a true
            # in-window touch, so this rejects exactly the false hits.
            valid = (
                c_in
                & (lo < hi)
                & (self._t_key[li] == ck)
                & (self._t_ts[li] >= cts - self.window)
                & (self._t_ts[li] <= cts)
            )
            t_seq_hit = self._t_seq[li]
            out_tbl = pa.table(
                {
                    self.group_col: pa.array(ck, pa.int64()),
                    "conv_id": pa.array(cseq, pa.int64()),
                    self.ts_col: pa.array(cts, pa.int64()),
                    "touch_id": pa.array(t_seq_hit, pa.int64(), mask=~valid),
                }
            )
            out.append(
                out_tbl.append_column("doc_id", pa.array(cseq, pa.int64()))
                if self.sink_dir is not None
                else out_tbl
            )
        elif conv.size:
            out.append(
                self._no_touch_table(keys[conv], seq[conv], rts[conv])
            )

        self._evict(wm)
        self._divert(out)

    def _no_touch_table(self, ck, cseq, cts) -> pa.Table:
        t = pa.table(
            {
                self.group_col: pa.array(ck, pa.int64()),
                "conv_id": pa.array(cseq, pa.int64()),
                self.ts_col: pa.array(cts, pa.int64()),
                "touch_id": pa.nulls(ck.size, pa.int64()),
            }
        )
        if self.sink_dir is not None:
            t = t.append_column("doc_id", pa.array(cseq, pa.int64()))
        return t

    def _evict(self, wm: int) -> None:
        """Watermark-horizon eviction: a touch at-or-under ``wm − W`` can
        never open a future conversion's window (future-ready rows have
        ts > wm)."""
        if self._t_key.size == 0 or wm <= _MIN + self.window:
            return
        keep = self._t_ts > wm - self.window
        dropped = int(self._t_key.size - int(keep.sum()))
        if dropped:
            self.evicted += dropped
            self._t_key = self._t_key[keep]
            self._t_ts = self._t_ts[keep]
            self._t_seq = self._t_seq[keep]

    def flush(self) -> None:
        self._sweep(_EOS)

    _CKPT_FIELDS = ("_t_key", "_t_ts", "_t_seq", "_pending",
                    "finalized_upto", "n_rows", "evicted")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_touches": int(self._t_key.size),
            "evicted": self.evicted,
            "pending_rows": self._pending_rows(),
        }
