"""Streaming last-touch attribution: the batch
``functions/packing.py::grouped_attribution`` lifted into the streaming
tier — every conversion credited to its group's most recent touch
at-or-before it (within the window) over a live, disordered stream.

Rows route to actors by KEY hash (a key's whole history meets one
actor); the event-time gate (``staging._SweepGateBase``) releases a row
only once the watermark passes its timestamp, so event-time order holds
ACROSS sweeps: every previously finalized row's ts is ≤ the current
``finalized_upto`` and every newly ready row's ts is above it.  That
gives the one-pass recurrence its correctness:

* state per key is just the CARRY — the latest finalized touch's
  (ts, seq) — plus the shared pending buffer; O(keys), never O(stream);
* inside a sweep, rows sort by (key, ts, seq) and the batch kernel runs
  unchanged (one running cummax over touch positions + window gate),
  with the carry seeding conversions that precede any in-sweep touch;
* after the sweep, each key's carry advances to its last in-sweep touch
  — by cross-sweep order it can only move forward.

Attribution rows emit INCREMENTALLY as their conversions finalize
(conversion-scale output: driver-collected in small runs, sink-direct
staged in sink mode — doc_id = the conversion's unique seq).  Late rows
go to the gate's counted side output.  With lateness covering the
stream's disorder the emitted set is byte-equal to the batch operator —
one definition, two execution tiers, one SQL twin.

Reference analog: the sticky "most recent detection wins" crediting of
the cross-page chain (watermark_detector.py), keyed and windowed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .staging import _EOS, _MIN, _SweepGateBase, grow_sorted_keys


@ray.remote
class AttributionStateActor(_SweepGateBase):
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
        self._kid = np.zeros(0, np.int64)
        self._c_ts = np.zeros(0, np.int64)  # carry: latest finalized touch
        self._c_seq = np.zeros(0, np.int64)
        self.n_rows = 0

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        """Absorb a micro-batch, attribute every conversion the watermark
        finalized."""
        self._gate(batch, watermark)
        self._sweep(self.wm)

    def _sweep(self, wm: int) -> None:
        ready = self._ready(wm)
        if ready is None:
            return
        self.n_rows += int(ready.num_rows)

        keys = np.asarray(ready[self.group_col], np.int64)
        rts = np.asarray(ready[self.ts_col], np.int64)
        seq = np.asarray(ready[self.seq_col], np.int64)
        typ = ready[self.type_col].combine_chunks()
        idx = np.lexsort((seq, rts, keys))
        keys, rts, seq = keys[idx], rts[idx], seq[idx]
        is_touch = np.asarray(pc.equal(typ, self.touch))[idx]
        is_conv = np.asarray(pc.equal(typ, self.convert))[idx]

        # union new keys into the sorted carry state
        self._kid, (self._c_ts, self._c_seq) = grow_sorted_keys(
            self._kid, keys, [(self._c_ts, _MIN), (self._c_seq, _MIN)]
        )
        kidx = np.searchsorted(self._kid, keys)

        n = keys.size
        first = np.empty(n, bool)
        first[0] = True
        first[1:] = keys[1:] != keys[:-1]
        run_start = np.nonzero(first)[0]
        gid = np.cumsum(first) - 1
        pos = np.arange(n, dtype=np.int64)
        cm = np.maximum.accumulate(np.where(is_touch, pos, -1))

        out: list[pa.Table] = []
        conv = np.nonzero(is_conv)[0]
        if conv.size:
            p = cm[conv]
            in_sweep = p >= run_start[gid[conv]]
            t_ts = np.where(
                in_sweep, rts[np.maximum(p, 0)], self._c_ts[kidx[conv]]
            )
            t_seq = np.where(
                in_sweep, seq[np.maximum(p, 0)], self._c_seq[kidx[conv]]
            )
            valid = (t_ts > _MIN) & (t_ts >= rts[conv] - self.window)
            out_tbl = pa.table(
                {
                    self.group_col: pa.array(keys[conv], pa.int64()),
                    "conv_id": pa.array(seq[conv], pa.int64()),
                    self.ts_col: pa.array(rts[conv], pa.int64()),
                    # vectorized nullable column: mask=True marks nulls
                    "touch_id": pa.array(t_seq, pa.int64(), mask=~valid),
                }
            )
            out.append(
                out_tbl.append_column(
                    "doc_id", pa.array(seq[conv], pa.int64())
                )
                if self.sink_dir is not None
                else out_tbl
            )

        # advance carries to each key's last in-sweep touch
        run_end = np.append(run_start[1:], n) - 1
        last_touch = cm[run_end]
        has_touch = last_touch >= run_start
        if has_touch.any():
            kk = kidx[run_start[has_touch]]
            self._c_ts[kk] = rts[last_touch[has_touch]]
            self._c_seq[kk] = seq[last_touch[has_touch]]
        self._divert(out)

    def flush(self) -> None:
        """End of stream: attribute everything still pending."""
        self._sweep(_EOS)

    _CKPT_FIELDS = ("_kid", "_c_ts", "_c_seq", "_pending", "finalized_upto",
                    "n_rows")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_keys": int(self._kid.size),
            "pending_rows": self._pending_rows(),
        }
