"""Keyed windowed state actor — the engine's incremental state store (T1/T2).

Each actor owns a hash slice of the ``source`` key space and maintains, per
live (source, window):

* the 256-bin token histogram (associative partial, A1 — merged
  incrementally as batches arrive, never recomputed), and
* the buffered row batches of the window (Arrow tables).

When the global event-time watermark passes a window's end, the actor derives
the watermark token (Otsu rule, watermark_detector.py:172-189), rewrites the
buffered rows with the fused inpaint kernel, emits them, and **evicts** the
state — watermark-driven eviction per SURVEY.md §2.9.  Every finalize path
(keyed ingest and flush, the salted fan-out, both session paths) decides each
due window's or session's token first and then rewrites the whole round
through :meth:`KeyedStateActor._rewrite_parts`: one kernel call per
``_FUSED_REWRITE_ROWS`` rows with a per-row token vector, not one call per
(typically small) window.  Rows whose governing window already finalized
are routed to the late-data side output (counted, never silently dropped).
Sink staging, that side output and checkpoint/restore are the shared
state-actor base's (:class:`.staging._StagedEmitterBase`); this module
holds only the window and session logic.

Skew note (§4.2): sources are Zipf-skewed; the key → actor routing hashes
``source`` so hot sources can be salted by the caller into sub-keys (the
histogram partials merge associatively, so sub-key histograms can be summed
at finalize).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..config import EngineConfig
from ..golden import detect_wm_token
from ..stages.kernels import (
    batch_histograms,
    flatten_list_column,
    process_batch_flat,
)
from . import Resettable
from .staging import _StagedEmitterBase

# Most rows one kernel call rewrites when a finalize round fuses its windows
# (see ``KeyedStateActor._rewrite_parts``).  It bounds the kernel's
# per-position temporaries: fusing a whole round unbounded raised the
# enginebench salted sliding stream's peak RSS by 7-10%, while 512 rows per
# call keep it within 1-4% and keep the per-call saving.  A constant, not a
# knob: the memory bound must not depend on configuration.
_FUSED_REWRITE_ROWS = 512


def merge_session_intervals(frags: list[dict], gap: int) -> list[dict]:
    """Sort-by-start interval merge under the transitive session-gap
    relation ``next.start <= cur.last + gap`` — the ONE definition of
    session equivalence.  Actor-local session state and the salted
    aggregator's fragment merge both route through this boundary rule;
    keeping a single copy means it can never desynchronize.  Merges
    ``hist`` additively and extends ``tables`` when both sides carry them.
    Mutates and returns the merged list."""
    frags.sort(key=lambda x: x["start"])
    out = [frags[0]]
    for ses in frags[1:]:
        cur = out[-1]
        if ses["start"] <= cur["last"] + gap:
            cur["last"] = max(cur["last"], ses["last"])
            cur["hist"] = cur["hist"] + ses["hist"]
            if "tables" in cur and "tables" in ses:
                cur["tables"].extend(ses["tables"])
        else:
            out.append(ses)
    return out


def _window_end(window_id: int, cfg: EngineConfig) -> int:
    if cfg.window_kind == "tumbling":
        return (window_id + 1) * cfg.window_size
    if cfg.window_kind == "sliding":
        return window_id * cfg.window_slide + cfg.window_size
    if cfg.window_kind == "global":
        return 1 << 62  # one all-stream window: finalizes only at flush
    raise ValueError(f"streaming window kind {cfg.window_kind}")


@ray.remote
class KeyedStateActor(_StagedEmitterBase, Resettable):
    def __init__(self, cfg: EngineConfig, **sink):
        """``sink``: ``_StagedEmitterBase._init_staging``'s arguments — with
        a ``sink_dir``, finalized windows and late rows stage from this
        actor, so the driver only commits manifests."""
        self.cfg = cfg
        self._init_staging(**sink)
        self.hists: dict[tuple[str, int], np.ndarray] = {}
        self.buffers: dict[tuple[str, int], list[pa.Table]] = {}
        self.finalized: set[tuple[str, int]] = set()
        # sticky detection state: source -> (token, first_detecting_window)
        # in the windowed paths (forward-only: golden.apply_sticky fixes the
        # token from the FIRST detecting window onward, never retroactively),
        # source -> token in the session path (sessions close in ascending
        # start order, so forward-only holds by construction there)
        self._sticky: dict = {}
        # detection-epoch horizon: histograms of windows with end <= horizon
        # were already consulted (and evicted) — a straggler row must never
        # recreate a partial hist for them (its detection epoch has passed;
        # a recreated 1-row hist could pin a garbage sticky token)
        self._hist_horizon = -(1 << 62)
        # session state: source -> sorted list of open sessions
        # {start, last, hist, tables}; closed_horizon = latest closed
        # session's (last + gap) per source (rows at/below it are late)
        self.sessions: dict[str, list[dict]] = {}
        self.session_horizon: dict[str, int] = {}
        self.n_emitted = 0
        # salted-session row buffer (source -> tables) and the multi-consumer
        # outbox — plain actor state like everything above (review finding:
        # these were lazily getattr-created at each call site)
        self._salted_rows: dict[str, list[pa.Table]] = {}
        self._outbox: list[pa.Table] = []

    def _clamp_wm(self, watermark: int) -> int:
        # Actor-local watermark is MONOTONIC: parallel consumers can deliver
        # ingest(wm=12) then ingest(wm=4); judging lateness against a stale
        # caller watermark would re-open an already-finalized window and
        # re-emit it from a straggler-only histogram.  All ingest paths clamp
        # to max(self.wm, caller_wm) first.
        self.wm = max(self.wm, watermark)
        # prune the finalized-key set: a window whose end <= wm is already
        # rejected by the lateness predicate, so retaining its key only
        # matters for externally-finalized windows AHEAD of the actor's
        # watermark — without pruning the set grows O(windows ever seen)
        if len(self.finalized) > 1024:
            cfg = self.cfg
            self.finalized = {
                k for k in self.finalized if _window_end(k[1], cfg) > self.wm
            }
        return self.wm

    def _fixed_wm(self) -> int | None:
        """User token override: detection is skipped entirely (M15,
        golden.py fixed_wm_token semantics)."""
        return self.cfg.fixed_wm_token if self.cfg.fixed_wm_token >= 0 else None

    def _window_ends_vec(self, govern: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.window_kind == "tumbling":
            return (govern + 1) * cfg.window_size
        if cfg.window_kind == "sliding":
            return govern * cfg.window_slide + cfg.window_size
        if cfg.window_kind == "global":
            return np.full(govern.size, 1 << 62, dtype=np.int64)
        raise ValueError(cfg.window_kind)

    # -- ingest -----------------------------------------------------------

    def ingest(self, batch: pa.Table, watermark: int) -> tuple[list[pa.Table], int]:
        """Absorb a micro-batch, then finalize every window the watermark
        passed.  Returns (emitted output tables, late rows so far)."""
        cfg = self.cfg
        watermark = self._clamp_wm(watermark)
        if cfg.window_kind == "session":
            emitted, n_late = self._ingest_session(batch, watermark)
            return self._divert(emitted), n_late
        batch, ts, src, govern = self._split_late(batch, watermark)
        if batch.num_rows:
            self._accumulate(batch, ts, src, govern)
        emitted = self._finalize_upto(watermark)
        return self._divert(emitted), self.n_late

    def _split_late(self, batch: pa.Table, watermark: int):
        """Route the rows whose governing window already finalized to the
        late side output; return the rest as ``(batch, ts, src, govern)``.
        The monotonic watermark implies every finalized window has end <=
        watermark, but ``self.finalized`` is consulted too so a window
        finalized by the salted aggregator can never re-open."""
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        src = np.asarray(batch["source"])
        govern = self._governing(ts)
        late = self._window_ends_vec(govern) <= watermark
        late |= self._finalized_mask(src, govern)
        if late.any():
            self._note_late(batch.filter(pa.array(late)))
            keep = ~late
            batch = batch.filter(pa.array(keep))
            ts, src, govern = ts[keep], src[keep], govern[keep]
        return batch, ts, src, govern

    def _governing(self, ts: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.window_kind == "tumbling":
            return ts // cfg.window_size
        if cfg.window_kind == "sliding":
            return ts // cfg.window_slide
        if cfg.window_kind == "global":
            return np.zeros(ts.size, dtype=np.int64)
        raise ValueError(cfg.window_kind)

    def _contributing(self, ts: np.ndarray) -> list[np.ndarray]:
        cfg = self.cfg
        if cfg.window_kind in ("tumbling", "global"):
            return [(self._governing(ts), np.ones(ts.size, bool))]
        out = []
        n_shifts = -(-cfg.window_size // cfg.window_slide)
        for j in range(n_shifts):
            w = ts // cfg.window_slide - j
            valid = (w >= 0) & (ts - w * cfg.window_slide < cfg.window_size)
            out.append((w, valid))
        return out

    def _finalized_mask(self, src: np.ndarray, govern: np.ndarray) -> np.ndarray:
        """Per-row membership of (source, governing window) in
        ``self.finalized`` — evaluated once per UNIQUE pair and broadcast
        back (a batch has a handful of distinct pairs, not one per row)."""
        if not self.finalized or src.size == 0:
            return np.zeros(src.size, dtype=bool)
        s_u, s_inv = np.unique(src, return_inverse=True)
        g_min = int(govern.min())
        span = int(govern.max()) - g_min + 1
        combo = s_inv.astype(np.int64) * span + (govern - g_min)
        c_u, c_inv = np.unique(combo, return_inverse=True)
        fin_u = np.array(
            [(str(s_u[c // span]), int(c % span + g_min)) in self.finalized for c in c_u],
            dtype=bool,
        )
        return fin_u[c_inv]

    def _combo_histograms(self, fb, n_rows: int, src, win, valid):
        """(source, window, hist) partials for one contributing shift —
        vectorized unique-combo bucketing, shared by :meth:`_accumulate`
        (which stores into actor state) and :meth:`ingest_partial` (which
        returns the deltas for the salted aggregator)."""
        v = np.nonzero(valid)[0]
        if v.size == 0:
            return []
        s_u, s_inv = np.unique(src[v], return_inverse=True)
        w_v = win[v]
        w_min, w_span = int(w_v.min()), int(w_v.max() - w_v.min()) + 1
        combo = s_inv.astype(np.int64) * w_span + (w_v - w_min)
        c_u, c_inv = np.unique(combo, return_inverse=True)
        key_row = np.full(n_rows, -1, dtype=np.int64)
        key_row[v] = c_inv
        H = batch_histograms(fb, key_row, c_u.size, self.cfg)
        return [
            (str(s_u[c // w_span]), int(c % w_span + w_min), H[ki])
            for ki, c in enumerate(c_u)
        ]

    def _buffer_by_governing(self, batch, src, govern) -> None:
        """Buffer each row under its governing (source, window) key —
        vectorized grouped take (one stable argsort over the combo key, one
        ``batch.take`` per UNIQUE pair; stable order keeps each key's rows
        in arrival order, byte-identical to the per-row form)."""
        s_u, s_inv = np.unique(src, return_inverse=True)
        g_min = int(govern.min())
        span = int(govern.max()) - g_min + 1
        combo = s_inv.astype(np.int64) * span + (govern - g_min)
        order = np.argsort(combo, kind="stable")
        c_sorted = combo[order]
        starts = np.nonzero(np.concatenate([[True], c_sorted[1:] != c_sorted[:-1]]))[0]
        ends = np.append(starts[1:], combo.size)
        for a, b in zip(starts, ends):
            c = int(c_sorted[a])
            key = (str(s_u[c // span]), int(c % span + g_min))
            self.buffers.setdefault(key, []).append(batch.take(pa.array(order[a:b])))

    def _accumulate(self, batch, ts, src, govern) -> None:
        fb = flatten_list_column(batch["tokens"])
        for win, valid in self._contributing(ts):
            # never recreate an evicted histogram: a contributing window
            # whose end passed the horizon already ran (and evicted) its
            # detection — straggler contributions to it are dropped
            valid = valid & (self._window_ends_vec(win) > self._hist_horizon)
            for s, w, h in self._combo_histograms(fb, ts.size, src, win, valid):
                key = (s, w)
                if key in self.hists:
                    self.hists[key] += h
                else:
                    self.hists[key] = h.copy()
        self._buffer_by_governing(batch, src, govern)

    # -- finalize / evict -------------------------------------------------

    def _finalize_upto(self, watermark: int) -> list[pa.Table]:
        """Finalize every buffered window with end <= ``watermark``: decide
        each one's token in ascending key order (:meth:`_emit_window`),
        then rewrite them all in one fused round (:meth:`_rewrite_parts`),
        and evict the due hists.  Returns the round's output tables."""
        cfg = self.cfg
        if cfg.detection_mode == "sticky" and self._fixed_wm() is None:
            # golden.apply_sticky scans EVERY window ascending — including
            # sliding windows that only ever CONTRIBUTED (no governing rows
            # buffered here): run the sticky detection over all due hists
            # first, so a contributing-only window's detection can fix the
            # source's token.  The sticky entry records WHICH window first
            # detected: golden fixes the token from that window ONWARD only
            # — an earlier window finalized in the same call keeps its own
            # (failed) detection, never the later window's token.
            for key in sorted(
                k for k in self.hists if _window_end(k[1], cfg) <= watermark
            ):
                if key[0] not in self._sticky:
                    wm_tok, _cov = detect_wm_token(self.hists[key], cfg)
                    if wm_tok >= 0:
                        self._sticky[key[0]] = (wm_tok, key[1])
        due = sorted(k for k in self.buffers if _window_end(k[1], cfg) <= watermark)
        out = self._rewrite_parts([self._emit_window(key) for key in due])
        if cfg.window_kind == "sliding":
            # Evict a sliding hist only once its window can no longer accept
            # rows — the same window-end-vs-watermark predicate that governs
            # finalize/lateness.  (Evicting by min(live buffered window)
            # drops hists of still-open windows: a window with end >
            # watermark can legally receive more on-time rows.)
            for hk in [k for k in self.hists if _window_end(k[1], cfg) <= watermark]:
                self.hists.pop(hk)
        # windows with end <= watermark have now had their detection epoch —
        # advance the horizon so stragglers can't recreate their histograms
        self._hist_horizon = max(self._hist_horizon, watermark)
        return out

    def _emit_window(self, key: tuple[str, int]) -> tuple[list[pa.Table], int]:
        """Take window ``key`` out of the actor: decide its wm token, mark
        it finalized and evict its buffer and hist.  Returns the
        ``(buffered tables, wm_token)`` part the caller's fused rewrite
        emits.  Callers go in ascending key order, which the sticky rule
        below relies on."""
        cfg = self.cfg
        hist = self.hists.get(key)
        fixed = self._fixed_wm()
        # sticky mode: first detection wins per source FROM ITS WINDOW
        # ONWARD (the source's whole key range lives on this actor in
        # unsalted routing, and windows finalize in ascending order, so
        # actor-local sticky state matches golden.apply_sticky — which
        # never rewrites a window EARLIER than the first detecting one;
        # watermark_detector.py:562-568,188)
        st = self._sticky.get(key[0]) if cfg.detection_mode == "sticky" else None
        if fixed is not None:
            wm_tok = fixed
        elif st is not None and key[1] >= st[1]:
            wm_tok = st[0]
        else:
            wm_tok, _cov = detect_wm_token(hist, cfg) if hist is not None else (-1, 0.0)
            if cfg.detection_mode == "sticky" and wm_tok >= 0 and st is None:
                self._sticky[key[0]] = (wm_tok, key[1])
        # evict this window's hist; further sliding-hist eviction is
        # watermark-gated in _finalize_upto (a hist with window end past the
        # watermark may still receive on-time rows)
        self.finalized.add(key)
        self.hists.pop(key, None)
        return self.buffers.pop(key), int(wm_tok)

    # -- session windows (gap-merge; reference analog: per-document QR
    # accumulation reset by clear_qr_codes(), watermark_detector.py:143-145) --

    def _ingest_session(self, batch: pa.Table, watermark: int):
        """Vectorized session ingest: one lexsort per batch, gap-split into
        micro-sessions per source (np.diff), bulk histograms per segment
        (batch_histograms), then an interval merge with the open sessions.
        The gap relation is transitive, so merging sorted intervals with
        ``next.start <= cur.last + gap`` reproduces row-at-a-time semantics
        exactly (the reference analog: per-document QR accumulation reset by
        clear_qr_codes(), watermark_detector.py:143-145)."""
        cfg = self.cfg
        batch, frags, late_idx = self._session_fragments(batch)
        for s, sub, tk, seg_starts, seg_ends, H in frags:
            merged = self.sessions.get(s, []) + [
                {
                    "start": int(tk[a]),
                    "last": int(tk[b - 1]),
                    "hist": H[k],
                    "tables": [sub.slice(a, b - a)],
                }
                for k, (a, b) in enumerate(zip(seg_starts, seg_ends))
            ]
            self.sessions[s] = merge_session_intervals(merged, cfg.session_gap)
        emitted = self._finalize_sessions(watermark)
        if late_idx:
            self._note_late(batch.take(pa.array(late_idx)))
        return emitted, self.n_late

    def _session_fragments(self, batch: pa.Table):
        """Shared session-fragmenting core (unsalted ingest + salted
        partial): lexsort by (source, ts, doc), per-source lateness filter
        against the source's closed ``session_horizon``, gap-split into
        micro-sessions (np.diff), bulk histograms per segment.  Returns
        ``(sorted_batch, [(source, sub, tk, seg_starts, seg_ends, H)],
        late_row_indices_into_sorted_batch)``."""
        cfg = self.cfg
        late_idx: list[int] = []
        frags = []
        if batch.num_rows:
            ts0 = np.asarray(batch["event_ts"], dtype=np.int64)
            src0 = np.asarray(batch["source"])
            doc0 = np.asarray(batch["doc_id"])
            order = np.lexsort((doc0, ts0, src0))  # by source, then ts, then doc
            batch = batch.take(pa.array(order))
            ts, src = ts0[order], src0[order]
            starts = np.nonzero(np.concatenate([[True], src[1:] != src[:-1]]))[0]
            ends = np.append(starts[1:], src.size)
            for st, en in zip(starts, ends):
                s = str(src[st])
                tloc = ts[st:en]
                late_loc = tloc <= self.session_horizon.get(s, -(1 << 62))
                if late_loc.any():
                    late_idx.extend((st + np.nonzero(late_loc)[0]).tolist())
                keep = np.nonzero(~late_loc)[0]
                if keep.size == 0:
                    continue
                sub = batch.take(pa.array(st + keep))
                tk = tloc[keep]
                seg_break = np.concatenate([[True], np.diff(tk) > cfg.session_gap])
                seg_id = (np.cumsum(seg_break) - 1).astype(np.int64)
                n_seg = int(seg_id[-1]) + 1
                fb = flatten_list_column(sub["tokens"])
                H = batch_histograms(fb, seg_id, n_seg, cfg)
                seg_starts = np.nonzero(seg_break)[0]
                seg_ends = np.append(seg_starts[1:], tk.size)
                frags.append((s, sub, tk, seg_starts, seg_ends, H))
        return batch, frags, late_idx

    def _finalize_sessions(self, watermark: int) -> list[pa.Table]:
        """Emit every closed session: due sessions' histograms stack into a
        single vectorized detection (detect_wm_many == detect_wm_token per
        row), sticky applies per source in ascending start order, and the
        sessions' rows go through the shared fused rewrite
        (:meth:`_rewrite_parts`) — per-session kernel overhead does not
        scale with the number of (typically small) sessions."""
        cfg = self.cfg
        due: list[tuple[str, dict]] = []
        for s in sorted(self.sessions):
            keep = []
            for ses in self.sessions[s]:
                if ses["last"] + cfg.session_gap <= watermark:
                    due.append((s, ses))
                else:
                    keep.append(ses)
            # a source with no open session leaves no key: the sorted walk
            # above is per live source, not per source ever seen
            if keep:
                self.sessions[s] = keep
            else:
                del self.sessions[s]
        if not due:
            return []
        from ..stages.detect import detect_wm_many

        fixed = self._fixed_wm()
        if fixed is not None:
            wm_arr = np.full(len(due), fixed, dtype=np.int64)
        else:
            wm_arr, _ = detect_wm_many(np.stack([ses["hist"] for _, ses in due]), cfg)
            if cfg.detection_mode == "sticky":
                # golden applies sticky across session windows too (window
                # id = session start; sessions close in ascending start per
                # source, so actor-local first-detection-wins state matches
                # golden.apply_sticky; value is a plain token here — the
                # forward-only rule holds by close order, no from-window
                # needed)
                wm_arr = wm_arr.copy()
                for i, (s, _ses) in enumerate(due):
                    if s in self._sticky:
                        wm_arr[i] = self._sticky[s]
                    elif wm_arr[i] >= 0:
                        self._sticky[s] = int(wm_arr[i])
        for s, ses in due:
            self.session_horizon[s] = max(
                self.session_horizon.get(s, -(1 << 62)), ses["last"] + cfg.session_gap
            )
        return self._rewrite_parts(
            [(ses["tables"], int(wm_tok)) for (_s, ses), wm_tok in zip(due, wm_arr)]
        )

    def _rewrite_parts(
        self, parts: list[tuple[list[pa.Table], int | np.ndarray]]
    ) -> list[pa.Table]:
        """The one rewrite of a finalize round.  ``parts``: ``(tables,
        wm)`` per due window or session, in emit order; ``wm`` is the
        part's token, or a token per row.  The parts concatenate (zero
        copy) and the kernel runs once per ``_FUSED_REWRITE_ROWS`` rows
        with a per-row wm vector.  Exact because process_batch_flat is
        row-local: a row's output depends only on its own tokens and wm
        token, so where the group boundaries fall cannot change it.
        Counts the rows into ``n_emitted``; returns the output tables in
        part order."""
        tables, wm_parts = [], []
        for part_tables, wm in parts:
            n = sum(t.num_rows for t in part_tables)
            if n:
                tables.extend(part_tables)
                wm_parts.append(np.broadcast_to(np.asarray(wm, dtype=np.int64), n))
        if not tables:
            return []
        rows = pa.concat_tables(tables)
        wm_row = np.concatenate(wm_parts)
        self.n_emitted += rows.num_rows
        cap = _FUSED_REWRITE_ROWS
        return [
            self._rewrite_rows(rows.slice(a, cap), wm_row[a : a + cap])
            for a in range(0, rows.num_rows, cap)
        ]

    def _rewrite_rows(self, rows: pa.Table, wm_row: np.ndarray) -> pa.Table:
        cfg = self.cfg
        fb = flatten_list_column(rows["tokens"])
        res = process_batch_flat(fb, wm_row, cfg)
        off32 = pa.array(fb.offsets.astype(np.int32), pa.int32())
        return pa.table(
            {
                "doc_id": rows["doc_id"],
                "tokens": pa.ListArray.from_arrays(off32, pa.array(res.values, pa.int32())),
                "n_tok": rows["n_tok"],
                "source": rows["source"],
                "event_ts": rows["event_ts"],
                "wm_token": pa.array(res.wm_row, pa.int32()),
                "coverage_pct": pa.array(res.coverage_pct, pa.float64()),
                "radius": pa.array(res.radius, pa.int32()),
                "n_passes": pa.array(res.n_passes, pa.int32()),
            }
        )

    # -- salted protocol (multi-consumer salted engine) -------------------
    #
    # When a hot source is salted across actors, no single actor sees the
    # whole (source, window) histogram or all of a source's session rows.
    # The actor then only BUFFERS rows and returns its per-batch deltas:
    # histogram partials per (source, window), or micro-session fragments
    # (source, start, last, hist) — session boundaries are associative
    # interval data too, since the gap relation is transitive.  The
    # engine's ``_SaltedAggregator`` merges the deltas globally, runs
    # detection, and fans the agreed wm tokens back out through
    # ``finalize_windows`` / ``finalize_sessions_salted``.  This is the
    # salt-and-merge design of SURVEY §4.2.

    def ingest_partial(self, batch: pa.Table, watermark: int):
        """Salted ingest: buffer + return deltas, no local finalize.
        Returns (sources, keys, hist_matrix, n_late): keys are windows, or
        (start, last) spans in the session kind."""
        cfg = self.cfg
        watermark = self._clamp_wm(watermark)
        if cfg.window_kind == "session":
            return self._session_partial(batch)
        batch, ts, src, govern = self._split_late(batch, watermark)
        out_src: list[str] = []
        out_win: list[int] = []
        hists: list[np.ndarray] = []
        if batch.num_rows:
            fb = flatten_list_column(batch["tokens"])
            for win, valid in self._contributing(ts):
                for s, w, h in self._combo_histograms(fb, ts.size, src, win, valid):
                    out_src.append(s)
                    out_win.append(w)
                    hists.append(h)
            self._buffer_by_governing(batch, src, govern)
        Hm = np.stack(hists) if hists else np.zeros((0, cfg.gray_mod), dtype=np.int64)
        return out_src, out_win, Hm, self.n_late

    def _session_partial(self, batch: pa.Table):
        """Session kind of :meth:`ingest_partial`: buffer rows + return the
        batch's micro-session fragments.  Rows at or below a source's
        closed horizon (recorded by ``finalize_sessions_salted``) are late —
        the same rule as the unsalted session path."""
        cfg = self.cfg
        out_src: list[str] = []
        spans: list[tuple[int, int]] = []
        hists: list[np.ndarray] = []
        batch, frags, late_idx = self._session_fragments(batch)
        for s, sub, tk, seg_starts, seg_ends, H in frags:
            for k, (a, b) in enumerate(zip(seg_starts, seg_ends)):
                out_src.append(s)
                spans.append((int(tk[a]), int(tk[b - 1])))
                hists.append(H[k])
            self._salted_rows.setdefault(s, []).append(sub)
        if late_idx:
            self._note_late(batch.take(pa.array(late_idx)))
        Hm = np.stack(hists) if hists else np.zeros((0, cfg.gray_mod), dtype=np.int64)
        return out_src, spans, Hm, self.n_late

    def finalize_sessions_salted(
        self, items: list[tuple[str, int, int, int]]
    ) -> list[pa.Table]:
        """Rewrite + emit + evict this actor's buffered rows of each closed
        session ``(source, lo, hi, wm_token)`` (rows with lo <= ts <= hi),
        and record each source's closed horizon ``hi + session_gap``.  A
        source's buffer concatenates and filters once per call: its closed
        sessions are disjoint intervals, so one ``searchsorted`` over their
        sorted starts gives every row its session (and token) or none."""
        gap = self.cfg.session_gap
        closed: dict[str, list[tuple[int, int, int]]] = {}
        for s, lo, hi, wm_tok in items:
            closed.setdefault(s, []).append((lo, hi, wm_tok))
        parts = []
        for s in sorted(closed):
            lo, hi, tok = np.array(sorted(closed[s]), dtype=np.int64).T
            self.session_horizon[s] = max(
                self.session_horizon.get(s, -(1 << 62)), int(hi.max()) + gap
            )
            tables = self._salted_rows.get(s)
            if not tables:
                continue
            t = pa.concat_tables(tables)
            ts = np.asarray(t["event_ts"], dtype=np.int64)
            ses = np.searchsorted(lo, ts, side="right") - 1
            m = (ses >= 0) & (ts <= hi[np.maximum(ses, 0)])
            rest = t.filter(pa.array(~m))
            if rest.num_rows:
                self._salted_rows[s] = [rest]
            else:
                del self._salted_rows[s]
            if m.any():
                parts.append(([t.filter(pa.array(m))], tok[ses[m]]))
        return self._divert(self._rewrite_parts(parts))

    def finalize_windows(self, wm_items: list[tuple[str, int, int]]) -> list[pa.Table]:
        """Rewrite + emit + evict the given (source, window, wm_token) keys
        (only those this actor buffered) in one fused rewrite
        (:meth:`_rewrite_parts`); every key is marked finalized, so a
        straggler row for it goes to the late side output."""
        parts = []
        for s, w, wm_tok in wm_items:
            key = (s, w)
            self.finalized.add(key)
            tables = self.buffers.pop(key, None)
            if tables:
                parts.append((tables, wm_tok))
        return self._divert(self._rewrite_parts(parts))

    def buffered_keys(self) -> list[tuple[str, int]]:
        return sorted(self.buffers)

    # -- multi-consumer protocol (partitioned log ingestion) --------------

    def ingest_keep(self, batch: pa.Table, watermark: int) -> int:
        """Like :meth:`ingest`, but emitted windows accumulate in an actor
        outbox instead of riding the ack (consumers from several input
        partitions feed one actor; the driver drains the outbox).  Returns
        the number of rows emitted so far."""
        emitted, _ = self.ingest(batch, watermark)
        self._outbox.extend(emitted)
        return self.n_emitted

    def take_outbox(self) -> list[pa.Table]:
        out = self._outbox
        self._outbox = []
        return out

    def flush(self) -> list[pa.Table]:
        """End of stream: finalize every remaining window."""
        if self.cfg.window_kind == "session":
            out = self._finalize_sessions(1 << 62)
        else:
            out = self._finalize_upto(1 << 62)
        return self._divert(out)

    def late_buffer_rows(self) -> int:
        """Rows currently held in the actor's late STAGE buffer (sink
        mode) — tests assert this stays O(stage threshold), not O(stream)."""
        return self._late_buf_rows + sum(t.num_rows for t in self._late_mem)

    def state_stats(self) -> dict:
        live_sessions = sum(len(v) for v in self.sessions.values())
        return {
            "live_windows": len(self.buffers) + live_sessions,
            "live_hists": len(self.hists),
            "buffered_rows": sum(t.num_rows for lst in self.buffers.values() for t in lst)
            + sum(t.num_rows for v in self.sessions.values() for s in v for t in s["tables"])
            + sum(t.num_rows for lst in self._salted_rows.values() for t in lst),
            "n_late": self.n_late,
            "n_emitted": self.n_emitted,
        }

    _CKPT_FIELDS = (
        "hists", "buffers", "finalized", "_sticky", "_hist_horizon",
        "sessions", "session_horizon", "n_emitted", "_salted_rows", "_outbox",
    )
