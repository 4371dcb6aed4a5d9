"""Streaming windowed top-k leaderboard state (§2.9 × A2/O1).

The continuous "top users this hour" aggregate: per tumbling event-time
window, the k keys with the most rows, ranked (count DESC, key ASC).  The
partitioning assumption: rows route to actors by KEY hash, so a key's
whole count for a window lives in exactly ONE actor — the global top-k of
a window is therefore contained in the union of the actors' LOCAL top-k
lists (disjoint key sets cannot hide a winner), and the driver's merge is
k x actors x windows rows — output scale, never data scale.

State per actor: one lexsorted (window, key) -> count array triple, merged
per micro-batch with one concatenate + lexsort + reduceat (no per-key
work).  A window finalizes when the watermark passes its last possible
timestamp; its state evicts at emission, so memory is bounded by OPEN
windows x active keys, not by the stream.  Rows for an already-finalized
window are LATE: counted and routed to the side output (the
keyed_state.py contract).

Reference analog: A2's top-k dominant colors (`watermark_detector.py:168`)
lifted into the event-time streaming tier — the same argsort-over-counts,
but per window, incremental, and watermark-driven.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _MIN, _StagedEmitterBase


@ray.remote
class TopkStateActor(_StagedEmitterBase):
    def __init__(
        self,
        *,
        window_size: int,
        k: int,
        key_col: str = "user_id",
        ts_col: str = "event_ts",
        emit: str = "topk",  # "topk" | "distinct" (exact per-window
        # distinct-key count: cells per closed window; keys are disjoint
        # across actors, so the driver SUM of per-actor counts is exact)
        slide: int | None = None,  # None -> tumbling; else sliding windows
        # of `window_size` advancing by `slide`: each row joins its
        # ws/slide overlapping windows (state multiplies by the overlap
        # factor — the documented cost of sliding aggregation)
    ):
        self._init_staging()
        self.window_size = int(window_size)
        self.slide = int(slide) if slide is not None else int(window_size)
        if self.slide <= 0 or self.slide > self.window_size:
            raise ValueError("slide must be in (0, window_size]")
        self.k = int(k)
        self.key_col, self.ts_col = key_col, ts_col
        self.emit = emit
        # lexsorted (window, key) -> count state
        self._swin = np.zeros(0, np.int64)
        self._skey = np.zeros(0, np.int64)
        self._scnt = np.zeros(0, np.int64)
        self.finalized_win = int(_MIN)  # highest window id already emitted
        self.n_rows = 0

    def _merge(self, win: np.ndarray, key: np.ndarray) -> None:
        cnt = np.ones(win.size, np.int64)
        w = np.concatenate([self._swin, win])
        kk = np.concatenate([self._skey, key])
        c = np.concatenate([self._scnt, cnt])
        o = np.lexsort((kk, w))
        w, kk, c = w[o], kk[o], c[o]
        new = np.concatenate(([True], (w[1:] != w[:-1]) | (kk[1:] != kk[:-1])))
        st = np.nonzero(new)[0]
        self._swin, self._skey = w[st], kk[st]
        self._scnt = np.add.reduceat(c, st)

    def _close_upto(self, wm: int) -> None:
        """Emit local top-k for every window whose last possible timestamp
        the watermark passed; evict its state."""
        # window w covers [w*slide, w*slide + ws - 1]; closed iff end <= wm
        # (slide == ws reduces to the tumbling (wm+1)//ws - 1)
        w_closed = (wm + 1 - self.window_size) // self.slide
        if w_closed > self.finalized_win and self._swin.size:
            mask = self._swin <= w_closed
            if mask.any():
                self._divert([self._closed_table(mask)])
                inv = ~mask
                self._swin, self._skey, self._scnt = (
                    self._swin[inv],
                    self._skey[inv],
                    self._scnt[inv],
                )
        self.finalized_win = max(self.finalized_win, int(w_closed))

    def _closed_table(self, mask: np.ndarray) -> pa.Table:
        """The emitted table of the closed windows' cells ``mask``."""
        if self.emit == "hist":
            # sparse LOCAL histogram of the closed windows: every
            # (window, key=bin) -> count cell, verbatim — cells are
            # disjoint across actors (bin-hash routing), so the driver
            # fold is a concatenate + per-window quantile walk over
            # actors x bins rows (output scale, never row scale)
            return pa.table(
                {
                    "window_id": pa.array(self._swin[mask], pa.int64()),
                    self.key_col: pa.array(self._skey[mask], pa.int64()),
                    "cnt": pa.array(self._scnt[mask], pa.int64()),
                }
            )
        if self.emit == "distinct":
            wu, nd = np.unique(self._swin[mask], return_counts=True)
            return pa.table(
                {
                    "window_id": pa.array(wu, pa.int64()),
                    "n_distinct": pa.array(nd.astype(np.int64), pa.int64()),
                }
            )
        w, kk, c = self._swin[mask], self._skey[mask], self._scnt[mask]
        # local top-k per window: one lexsort (window, -cnt, key) + rank
        o = np.lexsort((kk, -c, w))
        w, kk, c = w[o], kk[o], c[o]
        first = np.concatenate(([True], w[1:] != w[:-1]))
        idx = np.arange(w.size, dtype=np.int64)
        start = np.maximum.accumulate(np.where(first, idx, 0))
        keep = idx - start < self.k
        return pa.table(
            {
                "window_id": pa.array(w[keep], pa.int64()),
                self.key_col: pa.array(kk[keep], pa.int64()),
                "cnt": pa.array(c[keep], pa.int64()),
            }
        )

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        """Absorb a micro-batch, close every window the watermark passed
        (their local top-k tables are the emitted output)."""
        self.wm = max(self.wm, watermark)
        ts = np.asarray(batch[self.ts_col], np.int64)
        # a row's NEWEST containing window is ts // slide; it is LATE only
        # if even that window has been emitted (assignments to older,
        # already-closed windows are simply dropped — they were finalized)
        w_hi = ts // self.slide
        late = w_hi <= self.finalized_win
        if late.any():
            self._note_late(batch.filter(pa.array(late)))
            ts, w_hi = ts[~late], w_hi[~late]
            batch = batch.filter(pa.array(~late))
        if batch.num_rows:
            self.n_rows += batch.num_rows
            keys = np.asarray(batch[self.key_col], np.int64)
            if self.slide == self.window_size:
                win, kk = w_hi, keys
            else:
                w_lo = (ts - self.window_size) // self.slide + 1
                w_lo = np.maximum(w_lo, self.finalized_win + 1)  # drop closed
                reps = w_hi - w_lo + 1
                win = np.repeat(w_lo, reps) + _intra_run_arange(reps)
                kk = np.repeat(keys, reps)
            self._merge(win, kk)
        self._close_upto(self.wm)

    def flush(self) -> None:
        """End of stream: close every remaining window."""
        self._close_upto(1 << 62)

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_cells": int(self._swin.size),
            "open_windows": int(np.unique(self._swin).size),
        }


def _intra_run_arange(reps: np.ndarray) -> np.ndarray:
    """[0..r0-1, 0..r1-1, ...] for run lengths ``reps`` — vectorized."""
    total = int(reps.sum())
    if total == 0:
        return np.zeros(0, np.int64)
    starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, reps)
