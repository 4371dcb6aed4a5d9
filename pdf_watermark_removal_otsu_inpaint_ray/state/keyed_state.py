"""Keyed windowed state actor — the engine's incremental state store (T1/T2).

Each actor owns a hash slice of the ``source`` key space and maintains, per
live (source, window):

* the 256-bin token histogram (associative partial, A1 — merged
  incrementally as batches arrive, never recomputed), and
* the buffered row batches of the window (Arrow tables).

When the global event-time watermark passes a window's end, the actor derives
the watermark token (Otsu rule, watermark_detector.py:172-189), rewrites the
buffered rows with the fused inpaint kernel, emits them, and **evicts** the
state — watermark-driven eviction per SURVEY.md §2.9.  Rows whose governing
window already finalized are routed to the late-data side output (counted,
never silently dropped).

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


def merge_session_intervals(frags: list[dict], gap: int) -> list[dict]:
    """Sort-by-start interval merge under the transitive session-gap
    relation ``next.start <= cur.last + gap`` — the ONE definition of
    session equivalence.  Actor-local session state, the salted driver's
    fragment merge, and the finalize closure test all route through this
    boundary rule; keeping a single copy means it can never desynchronize.
    Merges ``hist`` additively and extends ``tables`` when both sides
    carry them.  Mutates and returns the merged list."""
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
class KeyedStateActor(Resettable):
    def __init__(
        self,
        cfg: EngineConfig,
        sink_dir: str | None = None,
        sink_partitions: int = 8,
        sink_stage_rows: int = 32768,
        sink_done: frozenset[int] = frozenset(),
        late_done: frozenset[int] = frozenset(),
        sink_epoch: int = 0,
    ):
        """``sink_dir``: when set, finalized windows flow DIRECTLY into the
        exactly-once sink's staged layout from this actor (buffered to
        ``sink_stage_rows`` to bound file counts) — the driver only commits
        manifests at end of stream, token data never rides the acks.  Late
        rows likewise stage to ``<sink_dir>/_late`` (same atomic-rename
        protocol), so actor late-buffer memory stays O(stage buffer), never
        O(stream): the SURVEY §2.9 side output is a SINK, not actor state.
        ``late_done``: committed partitions of the late layout (resume)."""
        self.cfg = cfg
        self.sink_dir = sink_dir
        self.sink_partitions = sink_partitions
        self.sink_stage_rows = sink_stage_rows
        self._sink_done = sink_done
        self._late_done = late_done
        # staging epoch of the producing run (sinks/exactly_once.begin_epoch):
        # lets finalize discard a crashed earlier attempt's staged rows
        self.sink_epoch = sink_epoch
        self._sink_buf: list[pa.Table] = []
        self._sink_rows = 0
        self._late_buf: list[pa.Table] = []
        self._late_buf_rows = 0
        self._late_mem: list[pa.Table] = []
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
        self.n_late = 0
        self.n_emitted = 0
        # salted-session row buffer (source -> tables) and the multi-consumer
        # outbox — plain actor state like everything above (review finding:
        # these were lazily getattr-created at each call site)
        self._salted_rows: dict[str, list[pa.Table]] = {}
        self._outbox: list[pa.Table] = []
        # Actor-local watermark is MONOTONIC: parallel consumers can deliver
        # ingest(wm=12) then ingest(wm=4); judging lateness against a stale
        # caller watermark would re-open an already-finalized window and
        # re-emit it from a straggler-only histogram.  All ingest paths clamp
        # to max(self.wm, caller_wm) first.
        self.wm = -(1 << 62)

    def _clamp_wm(self, watermark: int) -> int:
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

    # -- sink-direct emission --------------------------------------------

    def _divert(self, tables: list[pa.Table]) -> list[pa.Table]:
        """In sink mode, stage emitted windows locally instead of returning
        them (rewritten tokens never travel back through the driver)."""
        if self.sink_dir is None or not tables:
            return tables
        for t in tables:
            if t.num_rows:
                self._sink_buf.append(t)
                self._sink_rows += t.num_rows
        if self._sink_rows >= self.sink_stage_rows:
            self._flush_sink()
        return []

    def _flush_sink(self) -> None:
        if not self._sink_buf:
            return
        from ..sinks.exactly_once import stage_table

        table = pa.concat_tables(self._sink_buf)
        self._sink_buf, self._sink_rows = [], 0
        stage_table(self.sink_dir, table, self.sink_partitions, self._sink_done,
                    self.sink_epoch)

    def sink_flush(self) -> int:
        """End-of-stream: push any buffered emissions to the staged layout."""
        self._flush_sink()
        self._flush_late()
        return self.n_emitted

    # -- late-data side output --------------------------------------------

    def _note_late(self, late_batch: pa.Table) -> None:
        """Count + route a late batch: to the ``<sink_dir>/_late`` staged
        layout in sink mode (bounded actor buffer), to actor memory only in
        driver-collected mode (small runs/tests)."""
        self.n_late += late_batch.num_rows
        if self.sink_dir is None:
            self._late_mem.append(late_batch)
            return
        self._late_buf.append(late_batch)
        self._late_buf_rows += late_batch.num_rows
        if self._late_buf_rows >= self.sink_stage_rows:
            self._flush_late()

    def _flush_late(self) -> None:
        if not self._late_buf:
            return
        from ..sinks.exactly_once import late_dir, stage_table

        table = pa.concat_tables(self._late_buf)
        self._late_buf, self._late_buf_rows = [], 0
        stage_table(late_dir(self.sink_dir), table, self.sink_partitions, self._late_done,
                    self.sink_epoch)

    # -- ingest -----------------------------------------------------------

    def ingest(self, batch: pa.Table, watermark: int) -> tuple[list[pa.Table], int]:
        """Absorb a micro-batch, then finalize every window the watermark
        passed.  Returns (emitted output tables, late rows so far)."""
        cfg = self.cfg
        watermark = self._clamp_wm(watermark)
        if cfg.window_kind == "session":
            emitted, n_late = self._ingest_session(batch, watermark)
            return self._divert(emitted), n_late
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        src = np.asarray(batch["source"])
        govern = self._governing(ts)

        # late routing: governing window already finalized (the monotonic
        # watermark implies every finalized window has end <= watermark, but
        # consult self.finalized too so a window finalized by an external
        # coordinator can never re-open)
        win_end = self._window_ends_vec(govern)
        late = win_end <= watermark
        late |= self._finalized_mask(src, govern)
        late_batch = batch.filter(pa.array(late)) if late.any() else None
        keep = ~late
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            ts, src, govern = ts[keep], src[keep], govern[keep]
        if batch.num_rows:
            self._accumulate(batch, ts, src, govern)
        emitted = self._finalize_upto(watermark)
        if late_batch is not None and late_batch.num_rows:
            self._note_late(late_batch)
        return self._divert(emitted), self.n_late

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
        returns the deltas to the coordinating driver)."""
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
        cfg = self.cfg
        out = []
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
        due = [k for k in self.buffers if _window_end(k[1], cfg) <= watermark]
        for key in sorted(due):
            out.append(self._emit_window(key))
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

    def _emit_window(self, key: tuple[str, int]) -> pa.Table:
        cfg = self.cfg
        rows = pa.concat_tables(self.buffers.pop(key))
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
        out = self._rewrite_rows(rows, np.full(rows.num_rows, wm_tok, dtype=np.int64))
        # evict this window's hist; further sliding-hist eviction is
        # watermark-gated in _finalize_upto (a hist with window end past the
        # watermark may still receive on-time rows)
        self.finalized.add(key)
        self.hists.pop(key, None)
        self.n_emitted += out.num_rows
        return out

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
        batch, frags, late_idx = self._session_fragments(
            batch, lambda s: self.session_horizon.get(s, -(1 << 62))
        )
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

    def _session_fragments(self, batch: pa.Table, horizon_of):
        """Shared session-fragmenting core (unsalted ingest + salted
        partial): lexsort by (source, ts, doc), per-source lateness filter
        against ``horizon_of(source)``, gap-split into micro-sessions
        (np.diff), bulk histograms per segment.  Returns
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
                late_loc = tloc <= horizon_of(s)
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
        """Emit every closed session in ONE fused rewrite: due sessions'
        histograms stack into a single vectorized detection
        (detect_wm_many == detect_wm_token per row), their buffered tables
        concat once, and process_batch_flat runs once with a per-row wm
        vector — per-session kernel overhead does not scale with the number
        of (typically small) sessions."""
        cfg = self.cfg
        due: list[tuple[str, dict]] = []
        for s in sorted(self.sessions):
            keep = []
            for ses in self.sessions[s]:
                if ses["last"] + cfg.session_gap <= watermark:
                    due.append((s, ses))
                else:
                    keep.append(ses)
            self.sessions[s] = keep
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
        tables, wm_rows = [], []
        for (s, ses), wm_tok in zip(due, wm_arr):
            t = pa.concat_tables(ses["tables"])
            tables.append(t)
            wm_rows.append(np.full(t.num_rows, int(wm_tok), dtype=np.int64))
            self.session_horizon[s] = max(
                self.session_horizon.get(s, -(1 << 62)), ses["last"] + cfg.session_gap
            )
        rows = pa.concat_tables(tables)
        res = self._rewrite_rows(rows, np.concatenate(wm_rows))
        self.n_emitted += rows.num_rows
        return [res]

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

    # -- coordinated (salted) protocol -----------------------------------
    #
    # When a hot source is salted across actors, no single actor sees the
    # whole (source, window) histogram.  In coordinated mode the actor only
    # BUFFERS rows and returns its per-batch histogram *deltas*; the driver
    # (which already barriers each micro-batch) merges the associative
    # deltas globally, runs detection, and calls finalize_windows with the
    # agreed wm tokens.  This is the salt-and-merge design of SURVEY §4.2.

    def ingest_partial(self, batch: pa.Table, watermark: int):
        """Coordinated-mode ingest: buffer + return hist deltas, no local
        finalize.  Returns (sources, windows, hist_matrix, n_late)."""
        cfg = self.cfg
        watermark = self._clamp_wm(watermark)
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        src = np.asarray(batch["source"])
        govern = self._governing(ts)
        win_end = self._window_ends_vec(govern)
        late = win_end <= watermark
        late |= self._finalized_mask(src, govern)
        if late.any():
            self._note_late(batch.filter(pa.array(late)))
            keep = ~late
            batch = batch.filter(pa.array(keep))
            ts, src, govern = ts[keep], src[keep], govern[keep]
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

    # -- coordinated SESSION protocol (salted session windows) ------------
    #
    # With a hot source salted across actors, no single actor sees all of a
    # source's rows, so the session gap-merge cannot run actor-locally.
    # Session BOUNDARIES are associative interval data, exactly like the
    # histogram partials: each actor returns its batch's micro-session
    # fragments (source, start, last, hist); the driver gap-merges the
    # fragments globally (the merge relation is transitive, so merging
    # merged fragments equals merging rows), decides closure against the
    # watermark, and broadcasts (source, lo, hi, wm_token) items back.

    def ingest_session_partial(self, batch: pa.Table, horizons: dict):
        """Buffer rows + return per-batch session fragments.  ``horizons``:
        driver's per-source late horizon (last CLOSED session's last+gap) —
        the same lateness rule as the unsalted session path.
        Returns (sources, starts, lasts, hist_matrix, n_late)."""
        cfg = self.cfg
        out_src: list[str] = []
        out_start: list[int] = []
        out_last: list[int] = []
        hists: list[np.ndarray] = []
        batch, frags, late_idx = self._session_fragments(
            batch, lambda s: horizons.get(s, -(1 << 62))
        )
        for s, sub, tk, seg_starts, seg_ends, H in frags:
            for k, (a, b) in enumerate(zip(seg_starts, seg_ends)):
                out_src.append(s)
                out_start.append(int(tk[a]))
                out_last.append(int(tk[b - 1]))
                hists.append(H[k])
            self._salted_rows.setdefault(s, []).append(sub)
        if late_idx:
            self._note_late(batch.take(pa.array(late_idx)))
        Hm = np.stack(hists) if hists else np.zeros((0, cfg.gray_mod), dtype=np.int64)
        return (
            out_src,
            np.asarray(out_start, np.int64),
            np.asarray(out_last, np.int64),
            Hm,
            self.n_late,
        )

    def finalize_sessions_salted(
        self, items: list[tuple[str, int, int, int]]
    ) -> list[pa.Table]:
        """Rewrite + emit + evict this actor's buffered rows of each closed
        session ``(source, lo, hi, wm_token)`` (rows with lo <= ts <= hi)."""
        out = []
        for s, lo, hi, wm_tok in items:
            tables = self._salted_rows.get(s)
            if not tables:
                continue
            t = pa.concat_tables(tables)
            ts = np.asarray(t["event_ts"], dtype=np.int64)
            m = (ts >= lo) & (ts <= hi)
            rest = t.filter(pa.array(~m))
            self._salted_rows[s] = [rest] if rest.num_rows else []
            if not m.any():
                continue
            rows = t.filter(pa.array(m))
            out.append(
                self._rewrite_rows(rows, np.full(rows.num_rows, int(wm_tok), dtype=np.int64))
            )
            self.n_emitted += rows.num_rows
        return self._divert(out)

    def salted_session_buffered(self) -> int:
        return sum(t.num_rows for lst in self._salted_rows.values() for t in lst)

    def finalize_windows(self, wm_items: list[tuple[str, int, int]]) -> list[pa.Table]:
        """Rewrite + emit + evict the given (source, window, wm_token) keys
        (only those this actor buffered)."""
        out = []
        for s, w, wm_tok in wm_items:
            key = (s, w)
            self.finalized.add(key)
            tables = self.buffers.pop(key, None)
            if not tables:
                continue
            rows = pa.concat_tables(tables)
            out.append(
                self._rewrite_rows(rows, np.full(rows.num_rows, wm_tok, dtype=np.int64))
            )
            self.n_emitted += rows.num_rows
        return self._divert(out)

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
            self.sessions.clear()
        else:
            out = self._finalize_upto(1 << 62)
        return self._divert(out)

    def late_rows(self) -> pa.Table | None:
        """Driver-collected late rows (None in sink mode, where late rows
        live in the ``<sink_dir>/_late`` layout — ``read_late(out_dir)``)."""
        return pa.concat_tables(self._late_mem) if self._late_mem else None

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
            + self.salted_session_buffered(),
            "n_late": self.n_late,
            "n_emitted": self.n_emitted,
        }

    # -- checkpoint / restore (pipelines/checkpoint.py) ----------------------

    _CKPT_FIELDS = (
        "hists", "buffers", "finalized", "_sticky", "_hist_horizon",
        "sessions", "session_horizon", "n_late", "n_emitted", "wm",
        "_salted_rows", "_outbox", "_late_mem",
    )

    def checkpoint_state(self) -> bytes:
        """Snapshot ALL mutable state.  Stage buffers flush to durable
        staged files FIRST, so the checkpoint's staged-file manifest plus
        this blob is the complete run state (nothing lives only in actor
        memory when the snapshot publishes)."""
        import pickle

        self._flush_sink()
        self._flush_late()
        return pickle.dumps({k: getattr(self, k) for k in self._CKPT_FIELDS})

    def restore_state(self, blob: bytes) -> None:
        import pickle

        for k, v in pickle.loads(blob).items():
            setattr(self, k, v)
