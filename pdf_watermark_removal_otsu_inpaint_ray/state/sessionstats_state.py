"""Streaming per-session aggregates: the batch
``functions/packing.py::grouped_session_stats`` lifted into the
streaming tier — gap-based sessions close the moment the watermark
proves no more rows can join them, and emit ONE aggregate row each
(count, start/end, duration), the Flink session-window shape with an
aggregate trigger.

Rows route to actors by KEY hash; the event-time gate
(``staging._SweepGateBase``) lets a row into its key's session only once
the watermark passes its timestamp, so event-time order holds across
sweeps and the session recurrence is a pure left fold: extend
the open session when ``ts − end ≤ gap``, otherwise CLOSE it (emit) and
open a new one.  State per key is exactly ONE open session tuple
``(session_ordinal, start, end, n_events)`` — O(keys), never O(stream);
an open session closes either by a later row's gap or by the
END-OF-STREAM flush.  A session also closes EAGERLY when the watermark
itself passes ``end + gap`` (no row can extend it), which is what bounds
emission latency on a live stream — the sweep checks idle keys against
the advancing watermark even when no row for them arrives.

Within a sweep the batch kernel applies unchanged (lexsort + gap-break
boundary sweep); the carried open session seeds each key's first
segment.  Late rows go to the gate's counted side output; with lateness
covering disorder the emitted row set is byte-equal to the batch twin —
one definition, two execution tiers, one SQL twin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _EOS, _MIN, _SweepGateBase, grow_sorted_keys


@ray.remote
class SessionStatsActor(_SweepGateBase):
    def __init__(
        self,
        *,
        gap: int = 86_400_000_000,
        group_col: str = "user_id",
        ts_col: str = "ts_us",
        seq_col: str = "event_id",
        **sink,
    ):
        self.gap = int(gap)
        self.group_col, self.ts_col, self.seq_col = group_col, ts_col, seq_col
        self._init_gate(**sink)
        # open-session state, aligned arrays sorted by key
        self._kid = np.zeros(0, np.int64)
        self._sid = np.zeros(0, np.int64)   # ordinal of the OPEN session
        self._start = np.zeros(0, np.int64)
        self._end = np.zeros(0, np.int64)
        self._cnt = np.zeros(0, np.int64)
        self._open = np.zeros(0, bool)
        self.n_rows = 0

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        self._gate(batch, watermark)
        self._sweep(self.wm)

    def _emit_tbl(self, kk, sid, st, en, cnt) -> pa.Table:
        t = pa.table(
            {
                self.group_col: pa.array(kk, pa.int64()),
                "session_id": pa.array(sid, pa.int64()),
                "n_events": pa.array(cnt, pa.int64()),
                "start_us": pa.array(st, pa.int64()),
                "end_us": pa.array(en, pa.int64()),
                "duration_us": pa.array(en - st, pa.int64()),
            }
        )
        if self.sink_dir is not None:
            # (key, session) is unique per emitted row
            t = t.append_column(
                "doc_id",
                pa.array(kk * np.int64(1 << 20) + sid, pa.int64()),
            )
        return t

    def _sweep(self, wm: int) -> None:
        out: list[pa.Table] = []
        ready = self._ready(wm)
        if ready is not None:
            self.n_rows += int(ready.num_rows)
            keys = np.asarray(ready[self.group_col], np.int64)
            rts = np.asarray(ready[self.ts_col], np.int64)
            seq = np.asarray(ready[self.seq_col], np.int64)
            idx = np.lexsort((seq, rts, keys))
            keys, rts = keys[idx], rts[idx]

            self._kid, (
                self._sid, self._start, self._end, self._cnt, self._open
            ) = grow_sorted_keys(self._kid, keys, [
                (self._sid, 0), (self._start, 0), (self._end, _MIN),
                (self._cnt, 0), (self._open, False),
            ])

            n = keys.size
            first = np.empty(n, bool)
            first[0] = True
            first[1:] = keys[1:] != keys[:-1]
            run_start = np.nonzero(first)[0]
            run_end = np.append(run_start[1:], n)
            # per-key loop over RUNS (key-scale, vectorized inside): the
            # session fold is a short serial recurrence per key and the
            # per-sweep key count is bounded by the micro-batch key mix
            for rs, re_ in zip(run_start, run_end):
                k = keys[rs]
                ki = int(np.searchsorted(self._kid, k))
                o = rts[rs:re_]
                # does the run's first row EXTEND the carried open session?
                cont = bool(self._open[ki]) and (
                    int(o[0]) - int(self._end[ki]) <= self.gap
                )
                brk = np.empty(o.size, bool)
                brk[0] = True  # segmentation always anchors at position 0
                brk[1:] = (o[1:] - o[:-1]) > self.gap
                st_i = np.nonzero(brk)[0]
                en_i = np.append(st_i[1:], o.size) - 1
                n_seg = st_i.size
                # segment stats
                seg_st = o[st_i].copy()
                seg_en = o[en_i]
                seg_cnt = (en_i - st_i + 1).astype(np.int64)
                if cont:
                    # first segment extends the open session
                    seg_st[0] = self._start[ki]
                    seg_cnt[0] += self._cnt[ki]
                    sid0 = self._sid[ki]
                elif self._open[ki]:
                    # open session closes at the first break
                    out.append(
                        self._emit_tbl(
                            np.array([k]), np.array([self._sid[ki]]),
                            np.array([self._start[ki]]),
                            np.array([self._end[ki]]),
                            np.array([self._cnt[ki]]),
                        )
                    )
                    sid0 = self._sid[ki] + 1
                else:
                    sid0 = self._sid[ki] + 1
                sids = sid0 + np.arange(n_seg, dtype=np.int64)
                # all but the LAST segment are closed by in-sweep gaps
                if n_seg > 1:
                    out.append(
                        self._emit_tbl(
                            np.full(n_seg - 1, k), sids[:-1],
                            seg_st[:-1], seg_en[:-1], seg_cnt[:-1],
                        )
                    )
                self._sid[ki] = sids[-1]
                self._start[ki] = seg_st[-1]
                self._end[ki] = seg_en[-1]
                self._cnt[ki] = seg_cnt[-1]
                self._open[ki] = True

        # eager close: the watermark passed end + gap — no row can extend
        stale = self._open & (self._end + self.gap < wm)
        if stale.any():
            out.append(
                self._emit_tbl(
                    self._kid[stale], self._sid[stale], self._start[stale],
                    self._end[stale], self._cnt[stale],
                )
            )
            self._open[stale] = False
        self._divert(out)

    def flush(self) -> None:
        self._sweep(_EOS)
        m = self._open
        if m.any():
            out = self._emit_tbl(
                self._kid[m], self._sid[m], self._start[m], self._end[m],
                self._cnt[m],
            )
            self._open[:] = False
            self._divert([out])

    _CKPT_FIELDS = ("_kid", "_sid", "_start", "_end", "_cnt", "_open",
                    "_pending", "finalized_upto", "n_rows")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_keys": int(self._kid.size),
            "open_sessions": int(self._open.sum()),
            "pending_rows": self._pending_rows(),
        }
