"""Streaming per-(key, tumbling-window) rate limiting: the batch
``functions/cep.py::rate_limit`` (``row_number() OVER (PARTITION BY g,
win ORDER BY o, t) <= k``) as live keyed state — the throttling /
per-domain-cap primitive applied online.

Rows route to actors by KEY hash; the event-time gate
(``staging._SweepGateBase``) lets a row into the cap chain only once the
watermark passes its timestamp, so each (key, window) admits rows in
pure EVENT-time ``(order, tiebreak)`` order regardless of arrival
interleaving — the emitted ``rn`` ranks and the kept set equal the batch
operator's output whenever no row goes late.

State per actor: one void-packed sorted (key, window) array + an int64
admitted-count column — O(ACTIVE windows), never O(stream): a tumbling
window whose end fell behind the watermark can never receive another row
(``ts > wm >= win_end``), so the sweep evicts it immediately after
processing.  The per-sweep work is one lexsort + segment cumcount (the
batch kernel's shape) plus two searchsorted probes against state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _EOS, _SweepGateBase


def _pack2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n,) int64 pairs -> void16 keys (bytewise order: consistent, not
    numeric — both state and probes sort under the same order)."""
    return np.ascontiguousarray(
        np.stack([a, b], axis=1)
    ).view(np.dtype((np.void, 16))).ravel()


@ray.remote
class RateLimitStateActor(_SweepGateBase):
    def __init__(
        self,
        *,
        window_us: int,
        k: int,
        group_col: str = "user_id",
        ts_col: str = "ts_us",
        seq_col: str = "event_id",
        **sink,
    ):
        self.window_us, self.k = window_us, k
        self.group_col, self.ts_col, self.seq_col = group_col, ts_col, seq_col
        self._init_gate(**sink)
        self._skey = np.zeros(0, np.int64)  # state: key column
        self._swin = np.zeros(0, np.int64)  # state: window column
        self._scnt = np.zeros(0, np.int64)  # admitted so far
        self.n_kept = 0
        self.n_capped = 0

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        self._gate(batch, watermark)
        self._sweep(self.wm)

    def _sweep(self, wm: int) -> None:
        ready = self._ready(wm)
        if ready is None:
            self._evict(wm)
            return
        key = np.asarray(ready[self.group_col], np.int64)
        rts = np.asarray(ready[self.ts_col], np.int64)
        seq = np.asarray(ready[self.seq_col], np.int64)
        win = rts // self.window_us
        order = np.lexsort((seq, rts, win, key))
        key_s, win_s = key[order], win[order]
        rts_s, seq_s = rts[order], seq[order]
        pk_s = _pack2(key_s, win_s)
        seg = np.concatenate(
            ([True], (key_s[1:] != key_s[:-1]) | (win_s[1:] != win_s[:-1]))
        )
        seg_id = np.cumsum(seg) - 1
        seg_start = np.nonzero(seg)[0]
        within = np.arange(pk_s.size) - seg_start[seg_id]

        # merge this sweep's (key, window) pairs into state, probe bases
        new_pairs_key, new_pairs_win = key_s[seg], win_s[seg]
        spk = _pack2(self._skey, self._swin)
        probe = pk_s[seg]
        loc = np.searchsorted(spk, probe)
        known = (loc < spk.size) & (spk[np.minimum(loc, max(spk.size - 1, 0))] == probe) if spk.size else np.zeros(probe.size, bool)
        if (~known).any():
            self._skey = np.concatenate([self._skey, new_pairs_key[~known]])
            self._swin = np.concatenate([self._swin, new_pairs_win[~known]])
            self._scnt = np.concatenate(
                [self._scnt, np.zeros(int((~known).sum()), np.int64)]
            )
            o2 = np.argsort(_pack2(self._skey, self._swin))
            self._skey, self._swin = self._skey[o2], self._swin[o2]
            self._scnt = self._scnt[o2]
            spk = _pack2(self._skey, self._swin)
        sloc = np.searchsorted(spk, pk_s)
        base = self._scnt[sloc]
        rn = base + within + 1
        keep = rn <= self.k
        # bump admitted counts: final rn per segment, capped at k
        seg_end = np.append(seg_start[1:], pk_s.size) - 1
        self._scnt[sloc[seg_start]] = np.minimum(rn[seg_end], self.k)

        self.n_kept += int(keep.sum())
        self.n_capped += int((~keep).sum())
        if keep.any():
            out = pa.table(
                {
                    self.group_col: pa.array(key_s[keep], pa.int64()),
                    "window_id": pa.array(win_s[keep], pa.int64()),
                    self.ts_col: pa.array(rts_s[keep], pa.int64()),
                    self.seq_col: pa.array(seq_s[keep], pa.int64()),
                    "rn": pa.array(rn[keep], pa.int64()),
                    "doc_id": pa.array(seq_s[keep], pa.int64()),
                }
            )
            self._divert([out])
        self._evict(wm)

    def _evict(self, wm: int) -> None:
        if self._skey.size == 0:
            return
        live = (self._swin + 1) * self.window_us > wm
        if not live.all():
            self._skey = self._skey[live]
            self._swin = self._swin[live]
            self._scnt = self._scnt[live]

    def flush(self) -> None:
        self._sweep(_EOS)

    _CKPT_FIELDS = ("_skey", "_swin", "_scnt", "_pending", "finalized_upto",
                    "n_kept", "n_capped")

    def state_stats(self) -> dict:
        return {
            "n_kept": self.n_kept,
            "n_capped": self.n_capped,
            "n_late": self.n_late,
            "state_windows": int(self._skey.size),
            "pending_rows": self._pending_rows(),
        }
