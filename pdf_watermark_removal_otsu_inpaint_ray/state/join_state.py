"""Two-log streaming stateful join state (north star: "stateful join" at
the streaming tier — symmetric hash join with event-time band eviction).

Semantics: emit every pair (l, r) with ``l.key == r.key`` and
``band_lo <= r.ts - l.ts <= band_hi`` (``band`` is the symmetric
``|l.ts - r.ts| <= band`` shorthand — the Flink-style interval join; a
one-sided band expresses "followed within horizon").  Each arriving
row probes the OPPOSITE side's buffer and then inserts into its own — a
pair is emitted exactly once, when its second row arrives; the emitted
pair SET is a pure function of the two logs (arrival interleaving only
permutes emission order, which the sinks and the driver compare sort
away).

Watermark-driven eviction bounds state: a buffered row is dropped once
``ts + band <= watermark`` — any future non-late row has ``ts > wm``, so
its band reaches only rows with ``ts > wm - band``, all still buffered.
The buffer per actor is therefore the rows of one band+lateness window of
its key slice, never the log.  Rows arriving with ``ts <= wm`` missed
their probe epoch (their potential partners may already be evicted): they
are LATE — counted, routed, never probed (the same contract as
:mod:`.keyed_state` windows).

Buffers are flat int64 triples (key, seq, ts) compacted sorted-by-key on
each ingest; probes are two ``searchsorted`` calls + one repeat-expand +
one band mask — no per-row Python, no dicts.

:class:`TemporalJoinActor` is the second join shape over the same state
contract: the Flink-style TEMPORAL TABLE (versioned-dimension) join —
each event enriches with the dimension's latest version at-or-before the
event's timestamp.  See its docstring for the finalize-before-evict
ordering that makes the output a pure function of the two logs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _StagedEmitterBase


def _pair_ids(l_seq: np.ndarray, r_seq: np.ndarray) -> np.ndarray:
    """Deterministic int64 pair id for sink partitioning (assumes seqs fit
    in 31 bits — true of every synthetic log here; document at scale)."""
    return ((l_seq.astype(np.int64) << np.int64(31)) ^ r_seq.astype(np.int64))


@ray.remote
class JoinStateActor(_StagedEmitterBase):
    """One key-hash slice of the symmetric interval join.  Sides are
    normalized upstream to (key:int64, seq:int64, ts:int64)."""

    def __init__(
        self,
        *,
        band: int | None = None,
        mode: str = "inner",  # "inner" | "left_outer" | "full_outer":
        # unmatched LEFT (and for full_outer also RIGHT) rows emit
        # (key, l_seq, l_ts, -1, -1) / (key, -1, -1, r_seq, r_ts) when
        # eviction proves no in-band partner can still arrive
        band_lo: int | None = None,
        band_hi: int | None = None,
        **sink,
    ):
        # DIRECTED band: a pair is valid iff band_lo <= r.ts - l.ts <=
        # band_hi.  ``band`` is the symmetric shorthand (lo = -band,
        # hi = band — the Flink |l.ts - r.ts| <= band interval join);
        # band_lo=1, band_hi=horizon is the one-sided "followed within
        # horizon" form that absence/timeout detection filters on.
        if band is not None:
            band_lo = -band if band_lo is None else band_lo
            band_hi = band if band_hi is None else band_hi
        if band_lo is None or band_hi is None or band_lo > band_hi:
            raise ValueError(f"invalid band ({band_lo}, {band_hi})")
        self.band_lo, self.band_hi = int(band_lo), int(band_hi)
        if mode not in ("inner", "left_outer", "full_outer"):
            raise ValueError(f"unknown join mode {mode!r}")
        self.outer = mode in ("left_outer", "full_outer")
        self.outer_right = mode == "full_outer"
        self._init_staging(**sink)
        # per side (0 = left, 1 = right): compacted arrays sorted by key
        self._k = [np.zeros(0, np.int64), np.zeros(0, np.int64)]
        self._s = [np.zeros(0, np.int64), np.zeros(0, np.int64)]
        self._t = [np.zeros(0, np.int64), np.zeros(0, np.int64)]
        self._m0 = np.zeros(0, bool)  # left rows' matched flags (outer modes)
        self._m1 = np.zeros(0, bool)  # right rows' matched flags (full_outer)
        self.n_pairs = 0

    def _null_row_ids(self, l_seq: np.ndarray) -> np.ndarray:
        # r_seq sentinel 2^31-1 keeps null-row ids disjoint from real pair
        # ids (real seqs are < 2^31-1 by the _pair_ids contract)
        return _pair_ids(l_seq, np.full(l_seq.size, (1 << 31) - 1, np.int64))

    def _evict(self) -> list[pa.Table]:
        out: list[pa.Table] = []
        for side in (0, 1):
            if self._t[side].size:
                # a LEFT row can still pair with future (ts > wm) rights
                # iff l.ts + band_hi > wm; a RIGHT row with future lefts
                # iff r.ts - band_lo > wm (symmetric band: both reduce to
                # ts + band > wm)
                if side == 0:
                    alive = self._t[side] + self.band_hi > self.wm
                else:
                    alive = self._t[side] - self.band_lo > self.wm
                if not alive.all():
                    emit_nulls = (side == 0 and self.outer) or (
                        side == 1 and self.outer_right
                    )
                    if emit_nulls:
                        # a dead row's band is fully behind the watermark:
                        # no non-late opposite row can match it anymore —
                        # emit its null pair exactly once
                        flags = self._m0 if side == 0 else self._m1
                        dead_unmatched = (~alive) & (~flags)
                        if dead_unmatched.any():
                            seq = self._s[side][dead_unmatched]
                            n = seq.size
                            neg = np.full(n, -1, np.int64)
                            tsd = self._t[side][dead_unmatched]
                            if side == 0:
                                cols = (seq, tsd, neg, neg)
                                ids = self._null_row_ids(seq)
                            else:
                                cols = (neg, neg, seq, tsd)
                                # right-null ids use the mirrored sentinel
                                ids = _pair_ids(
                                    np.full(n, (1 << 31) - 2, np.int64), seq
                                )
                            out.append(
                                pa.table(
                                    {
                                        "doc_id": pa.array(ids, pa.int64()),
                                        "key": pa.array(self._k[side][dead_unmatched], pa.int64()),
                                        "l_seq": pa.array(cols[0], pa.int64()),
                                        "l_ts": pa.array(cols[1], pa.int64()),
                                        "r_seq": pa.array(cols[2], pa.int64()),
                                        "r_ts": pa.array(cols[3], pa.int64()),
                                    }
                                )
                            )
                    if side == 0 and self.outer:
                        self._m0 = self._m0[alive]
                    if side == 1 and self.outer_right:
                        self._m1 = self._m1[alive]
                    self._k[side] = self._k[side][alive]
                    self._s[side] = self._s[side][alive]
                    self._t[side] = self._t[side][alive]
        return out

    def _probe(self, opp: int, keys, seqs, ts):
        """Match probe rows against the opposite buffer; returns the pair
        index arrays (probe_row_idx, buffer_idx) after the band mask."""
        bk = self._k[opp]
        if bk.size == 0 or keys.size == 0:
            return None
        lo = np.searchsorted(bk, keys, "left")
        hi = np.searchsorted(bk, keys, "right")
        cnt = hi - lo
        tot = int(cnt.sum())
        if tot == 0:
            return None
        probe_idx = np.repeat(np.arange(keys.size), cnt)
        starts = np.repeat(lo, cnt)
        offs = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        buf_idx = starts + offs
        # directed band on r.ts - l.ts: probing LEFT rows (opp = right
        # buffer) the delta is buf - probe; probing RIGHT it flips
        if opp == 1:
            delta = self._t[opp][buf_idx] - ts[probe_idx]
        else:
            delta = ts[probe_idx] - self._t[opp][buf_idx]
        ok = (delta >= self.band_lo) & (delta <= self.band_hi)
        if not ok.any():
            return None
        return probe_idx[ok], buf_idx[ok]

    def _insert(self, side: int, keys, seqs, ts, matched=None) -> None:
        k = np.concatenate([self._k[side], keys])
        s = np.concatenate([self._s[side], seqs])
        t = np.concatenate([self._t[side], ts])
        o = np.argsort(k, kind="stable")
        self._k[side], self._s[side], self._t[side] = k[o], s[o], t[o]
        if side == 0 and self.outer:
            if matched is None:
                matched = np.zeros(keys.size, bool)
            self._m0 = np.concatenate([self._m0, matched])[o]
        if side == 1 and self.outer_right:
            if matched is None:
                matched = np.zeros(keys.size, bool)
            self._m1 = np.concatenate([self._m1, matched])[o]

    def ingest(self, side: int, batch: pa.Table, watermark: int) -> None:
        """Absorb one micro-batch of ``side`` (0 = left, 1 = right):
        late-route, evict, probe the opposite buffer, insert; emit the
        pairs and the evicted rows' null pairs."""
        self.wm = max(self.wm, watermark)
        ts = np.asarray(batch["ts"], np.int64)
        batch, ts = self._route_late(side, batch, ts)
        out: list[pa.Table] = self._evict()
        if batch.num_rows == 0:
            self._divert(out)
            return
        keys = np.asarray(batch["key"], np.int64)
        seqs = np.asarray(batch["seq"], np.int64)
        opp = 1 - side
        hit = self._probe(opp, keys, seqs, ts)
        track_new = (side == 0 and self.outer) or (side == 1 and self.outer_right)
        matched_new = np.zeros(keys.size, bool) if track_new else None
        if hit is not None:
            p_idx, b_idx = hit
            if side == 0:  # probe rows are LEFT
                l_seq, l_ts = seqs[p_idx], ts[p_idx]
                r_seq, r_ts = self._s[opp][b_idx], self._t[opp][b_idx]
                key = keys[p_idx]
            else:  # probe rows are RIGHT
                r_seq, r_ts = seqs[p_idx], ts[p_idx]
                l_seq, l_ts = self._s[opp][b_idx], self._t[opp][b_idx]
                key = keys[p_idx]
            pairs = pa.table(
                {
                    "doc_id": pa.array(_pair_ids(l_seq, r_seq), pa.int64()),
                    "key": pa.array(key, pa.int64()),
                    "l_seq": pa.array(l_seq, pa.int64()),
                    "l_ts": pa.array(l_ts, pa.int64()),
                    "r_seq": pa.array(r_seq, pa.int64()),
                    "r_ts": pa.array(r_ts, pa.int64()),
                }
            )
            self.n_pairs += pairs.num_rows
            out.append(pairs)
            if matched_new is not None:
                matched_new[p_idx] = True
            if side == 1 and self.outer:
                self._m0[b_idx] = True
            if side == 0 and self.outer_right:
                self._m1[b_idx] = True
        self._insert(side, keys, seqs, ts, matched_new)
        self._divert(out)

    def flush_outer(self) -> None:
        """End of both logs: advance to +inf and evict, emitting the
        remaining unmatched left rows' null pairs (no-op in inner mode)."""
        self.wm = 1 << 62
        self._divert(self._evict())

    _CKPT_FIELDS = ("_k", "_s", "_t", "_m0", "_m1", "n_pairs")

    def state_stats(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "n_late": self.n_late,
            "buffered_left": int(self._k[0].size),
            "buffered_right": int(self._k[1].size),
        }


@ray.remote
class TemporalJoinActor(_StagedEmitterBase):
    """One key-hash slice of the streaming TEMPORAL TABLE join (the
    Flink-style versioned-dimension enrichment): each EVENT (side 1) is
    joined with the DIMENSION log's (side 0) latest version for its key
    with ``version_ts <= event_ts`` (tie on ts → highest seq), or the
    (-1, -1) null sentinel when no version exists yet — LEFT semantics.

    Correctness ordering per ingest (what makes the output a pure function
    of the two logs whenever lateness covers disorder):

    1. rows with ``ts <= wm`` route LATE (same contract as the interval
       join — a late dimension row could only have affected events that
       are already finalized, see 2.);
    2. buffered events with ``event_ts <= wm`` FINALIZE: the watermark
       contract says no non-late dimension row with ``ts <= wm`` can
       still arrive, so the dimension history each finalized event sees
       is complete up to its timestamp;
    3. only THEN superseded dimension versions evict: per key every
       version with ``ts > wm`` survives plus the single latest version
       with ``ts <= wm`` (any remaining or future event has
       ``event_ts > wm``, and its lookup can only land on the survivor).

    The per-key version lookup is one ``pandas.merge_asof`` per finalize
    round (C-implemented grouped backward search, the same kernel the
    batch as-of operator uses); buffers are flat int64 arrays.  State is
    bounded: pending events of one lateness horizon + one dimension
    version per key per horizon.
    """

    def __init__(self, **sink):
        self._init_staging(**sink)
        # dimension buffer, kept sorted by (ts, seq) — merge_asof order
        self._dk = np.zeros(0, np.int64)
        self._ds = np.zeros(0, np.int64)
        self._dt = np.zeros(0, np.int64)
        # pending (not yet finalizable) events, unsorted
        self._ek = np.zeros(0, np.int64)
        self._es = np.zeros(0, np.int64)
        self._et = np.zeros(0, np.int64)
        self.n_emitted = 0

    def _insert_dim(self, keys, seqs, ts) -> None:
        k = np.concatenate([self._dk, keys])
        s = np.concatenate([self._ds, seqs])
        t = np.concatenate([self._dt, ts])
        o = np.lexsort((s, t))
        self._dk, self._ds, self._dt = k[o], s[o], t[o]

    def _evict_dim(self) -> None:
        """Keep per key: all versions with ts > wm + the latest version
        with ts <= wm.  One lexsort by (key, ts, seq) + shift compare."""
        if not self._dt.size:
            return
        o = np.lexsort((self._ds, self._dt, self._dk))
        k, t = self._dk[o], self._dt[o]
        le = t <= self.wm
        # within the (key, ts, seq)-sorted order, a ts<=wm version is the
        # key's LATEST such version iff it is the key's last row or the
        # next row (same key, ts ascending) is beyond the watermark
        last_le = le.copy()
        same_next = np.empty(k.size, bool)
        same_next[:-1] = k[:-1] == k[1:]
        same_next[-1] = False
        nxt_le = np.empty(k.size, bool)
        nxt_le[:-1] = le[1:]
        nxt_le[-1] = False
        last_le &= ~(same_next & nxt_le)
        keep_sorted = ~le | last_le
        if keep_sorted.all():
            return
        keep_idx = o[keep_sorted]
        # restore (ts, seq) order for merge_asof
        sel = np.sort(keep_idx)
        self._dk, self._ds, self._dt = self._dk[sel], self._ds[sel], self._dt[sel]

    def _finalize(self, horizon: int) -> pa.Table | None:
        """Emit every pending event with ``ts <= horizon`` joined against
        the current dimension buffer."""
        due = self._et <= horizon
        if not due.any():
            return None
        ek, es, et = self._ek[due], self._es[due], self._et[due]
        rest = ~due
        self._ek, self._es, self._et = self._ek[rest], self._es[rest], self._et[rest]
        import pandas as pd

        left = pd.DataFrame({"key": ek, "e_seq": es, "ts": et}).sort_values(
            ["ts", "e_seq"], kind="stable", ignore_index=True
        )
        if self._dt.size:
            # merge_asof carries ONLY a bounded buffer index (ridx): the
            # unmatched-row NaN forces the carried column to float64, and a
            # raw int64 seq/ts above 2^53 would silently round (the batch
            # as-of operator guards the same way, stages/temporal_join.py);
            # ridx is a buffer position, always far inside float53
            right = pd.DataFrame(
                {"key": self._dk, "ts": self._dt,
                 "ridx": np.arange(self._dt.size, dtype=np.int64)}
            )
            joined = pd.merge_asof(
                left, right, on="ts", by="key", direction="backward",
                allow_exact_matches=True,
            )
            ridx = joined["ridx"].fillna(-1).astype(np.int64).to_numpy()
            hit = ridx >= 0
            safe = np.maximum(ridx, 0)
            d_seq = np.where(hit, self._ds[safe], np.int64(-1))
            d_ts = np.where(hit, self._dt[safe], np.int64(-1))
        else:
            d_seq = np.full(len(left), -1, np.int64)
            d_ts = np.full(len(left), -1, np.int64)
        out = pa.table(
            {
                "doc_id": left["e_seq"].to_numpy(),  # event seq is unique
                "key": pa.array(left["key"].to_numpy(), pa.int64()),
                "e_seq": pa.array(left["e_seq"].to_numpy(), pa.int64()),
                "e_ts": pa.array(left["ts"].to_numpy(), pa.int64()),
                "d_seq": pa.array(d_seq, pa.int64()),
                "d_ts": pa.array(d_ts, pa.int64()),
            }
        )
        self.n_emitted += out.num_rows
        return out

    def ingest(self, side: int, batch: pa.Table, watermark: int) -> None:
        """side 0 = dimension updates, side 1 = events."""
        self.wm = max(self.wm, watermark)
        ts = np.asarray(batch["ts"], np.int64)
        batch, ts = self._route_late(side, batch, ts)
        if batch.num_rows:
            keys = np.asarray(batch["key"], np.int64)
            seqs = np.asarray(batch["seq"], np.int64)
            if side == 0:
                self._insert_dim(keys, seqs, ts)
            else:
                self._ek = np.concatenate([self._ek, keys])
                self._es = np.concatenate([self._es, seqs])
                self._et = np.concatenate([self._et, ts])
        out = self._finalize(self.wm)
        self._evict_dim()
        self._divert([out] if out is not None else [])

    def drain(self) -> None:
        """End of both logs: finalize every pending event (the watermark
        contract is vacuous once the logs are closed)."""
        out = self._finalize(1 << 62)
        self._divert([out] if out is not None else [])

    _CKPT_FIELDS = ("_dk", "_ds", "_dt", "_ek", "_es", "_et", "n_emitted")

    def state_stats(self) -> dict:
        return {
            "n_emitted": self.n_emitted,
            "n_late": self.n_late,
            "buffered_dim": int(self._dk.size),
            "buffered_events": int(self._ek.size),
        }
