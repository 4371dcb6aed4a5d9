"""Keyed windowed state: the decide step of the inpaint engines and the
state actor that buffers, rewrites and emits their rows (T1/T2).

The decide step is written once, in :class:`_WindowDecisions`: merge
histogram deltas per (source, window), or micro-session fragments per
source; when the event-time watermark passes a window's end (a session's
last row plus the gap), decide its watermark token (Otsu rule,
watermark_detector.py:172-189, with the fixed override and the sticky
first-detection-wins rule) and evict its state — watermark-driven eviction
per SURVEY.md §2.9.  It runs in two placements:

* in-process in :class:`KeyedStateActor`, when each source's rows all meet
  one actor (the single-consumer ``run_streaming``): ``ingest`` buffers a
  micro-batch, merges its own deltas and finalizes what is due, with no
  hop;
* in the multi-consumer engine's ``_SaltedAggregator`` actor
  (``run_streaming_salted_partitioned``), where a hot source is salted
  across actors: the actors buffer and return their deltas
  (``ingest_partial``), and the aggregator merges them and fans the
  decided tokens back out.

Either way the actor applies the decisions through ``finalize_windows`` or
``finalize_sessions_salted``, which rewrite a whole round in one
:meth:`KeyedStateActor._rewrite_parts`: one kernel call per
``_FUSED_REWRITE_ROWS`` rows with a per-row token vector, not one call per
(typically small) window.  Rows whose governing window already finalized
are routed to the late-data side output (counted, never silently dropped).
Window assignment, the per-(source, window) histogram deltas and the
rewritten-row table are the batch tier's (``stages.detect``
``assign_windows_batch`` / ``contributing_windows`` / ``window_partials``,
``stages.inpaint.rewritten_table``), so both tiers run one copy of each.
The rewritten rows leave the actor through the shared state-actor base
(:class:`.staging._StagedEmitterBase`): staged in sink mode, else held
until the driver's one end-of-stream ``take_held``; that base also owns
the late side output and checkpoint/restore.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..config import EngineConfig
from ..stages.detect import (
    assign_windows_batch,
    contributing_windows,
    detect_wm_many,
    factorize_key_pairs,
    window_partials,
)
from ..stages.inpaint import rewritten_table
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
    session equivalence, used by :meth:`_WindowDecisions._merge`.  Merges
    ``hist`` additively.  Mutates and returns the merged list."""
    frags.sort(key=lambda x: x["start"])
    out = [frags[0]]
    for ses in frags[1:]:
        cur = out[-1]
        if ses["start"] <= cur["last"] + gap:
            cur["last"] = max(cur["last"], ses["last"])
            cur["hist"] = cur["hist"] + ses["hist"]
        else:
            out.append(ses)
    return out


def _window_end(window_id, cfg: EngineConfig):
    """End of window ``window_id`` (an int or an int64 array of ids)."""
    if cfg.window_kind == "tumbling":
        return (window_id + 1) * cfg.window_size
    if cfg.window_kind == "sliding":
        return window_id * cfg.window_slide + cfg.window_size
    if cfg.window_kind == "global":
        # one all-stream window: finalizes only at flush
        return np.broadcast_to(np.int64(1 << 62), np.shape(window_id))
    raise ValueError(f"streaming window kind {cfg.window_kind}")


class _WindowDecisions:
    """The decide step of the inpaint engines, written once (module
    docstring): ``KeyedStateActor`` runs it in-process, the salted engine's
    ``_SaltedAggregator`` over every actor's deltas.  Deltas are
    ``ingest_partial``'s ``(sources, keys, hist_matrix, n_late)``; a
    decision is a ``(source, window, wm_token)`` item, or ``(source, lo,
    hi, wm_token)`` per closed session."""

    def _init_decisions(self, cfg: EngineConfig) -> None:
        self.cfg = cfg
        self.hists: dict[tuple[str, int], np.ndarray] = {}
        # source -> open sessions {start, last, hist}, ascending start
        self.sessions: dict[str, list[dict]] = {}
        # source -> (token, first detecting window or session start):
        # golden.apply_sticky fixes the token from that window ONWARD only,
        # never retroactively (watermark_detector.py:562-568,188)
        self.sticky: dict[str, tuple[int, int]] = {}
        # detection-epoch horizon: histograms of windows with end <= horizon
        # were already consulted and evicted
        self.horizon = -(1 << 62)

    def _merge(self, deltas) -> None:
        """Merge ``ingest_partial`` deltas.  A straggler contribution to a
        window past the horizon is dropped: its detection epoch has
        passed, and a recreated partial could later pin a garbage sticky
        token."""
        cfg = self.cfg
        for srcs, keys, Hm, _n_late in deltas:
            if cfg.window_kind == "session":
                for s, (start, last), h in zip(srcs, keys, Hm):
                    self.sessions.setdefault(s, []).append(
                        {"start": start, "last": last, "hist": h.copy()}
                    )
                for s in set(srcs):
                    self.sessions[s] = merge_session_intervals(self.sessions[s], cfg.session_gap)
                continue
            for s, w, h in zip(srcs, keys, Hm):
                if _window_end(w, cfg) <= self.horizon:
                    continue
                if (s, w) in self.hists:
                    self.hists[(s, w)] += h
                else:
                    self.hists[(s, w)] = h.copy()

    def _due(self, watermark: int, buffered=()) -> list[tuple]:
        """Decide + evict everything due at ``watermark``, in ascending
        window (session start) order per source: every window with end <=
        ``watermark`` that has a histogram or is a ``buffered`` key (a
        buffered window with no histogram had all its contributions
        dropped by the horizon guard), or every session with ``last +
        session_gap <= watermark``.  A source whose sessions all closed
        leaves ``sessions``.  Advances the horizon even when nothing is
        due."""
        cfg = self.cfg
        self.horizon = max(self.horizon, watermark)
        if cfg.window_kind == "session":
            due, still_open = [], {}
            for s in sorted(self.sessions):
                for ses in self.sessions[s]:
                    if ses["last"] + cfg.session_gap <= watermark:
                        due.append((s, ses))
                    else:
                        still_open.setdefault(s, []).append(ses)
            self.sessions = still_open
            toks = self._tokens(
                [(s, ses["start"]) for s, ses in due], [ses["hist"] for _, ses in due]
            )
            return [(s, ses["start"], ses["last"], t) for (s, ses), t in zip(due, toks)]
        keys = sorted(
            {k for k in self.hists if _window_end(k[1], cfg) <= watermark}.union(
                k for k in buffered if _window_end(k[1], cfg) <= watermark
            )
        )
        toks = self._tokens(keys, [self.hists.pop(k, None) for k in keys])
        return [(s, w, t) for (s, w), t in zip(keys, toks)]

    def _tokens(self, keys: list[tuple[str, int]], hists: list) -> list[int]:
        """The wm token of each ``(source, window or session start)`` key,
        given in ascending order per source: the fixed override (M15), else
        one vectorized detection over the round (``detect_wm_many`` ==
        ``golden.detect_wm_token`` per row; a missing hist counts as empty,
        which detects -1), then in sticky mode each source's first
        detecting key fixes the token for itself and every later key."""
        cfg = self.cfg
        if cfg.fixed_wm_token >= 0:
            return [cfg.fixed_wm_token] * len(keys)
        if not keys:
            return []
        empty = np.zeros(cfg.gray_mod, np.int64)
        toks = detect_wm_many(
            np.stack([empty if h is None else h for h in hists]), cfg
        )[0].tolist()
        if cfg.detection_mode == "sticky":
            for i, (s, w) in enumerate(keys):
                st = self.sticky.get(s)
                if st is None:
                    if toks[i] >= 0:
                        self.sticky[s] = (toks[i], w)
                elif w >= st[1]:
                    toks[i] = st[0]
        return toks


@ray.remote
class KeyedStateActor(_WindowDecisions, _StagedEmitterBase, Resettable):
    def __init__(self, cfg: EngineConfig, **sink):
        """``sink``: ``_StagedEmitterBase._init_staging``'s arguments — with
        a ``sink_dir``, finalized windows and late rows stage from this
        actor, so the driver only commits manifests."""
        self._init_decisions(cfg)
        self._init_staging(**sink)
        # buffered rows per governing (source, window), or per source in the
        # session kind
        self.buffers: dict[tuple[str, int], list[pa.Table]] = {}
        self._salted_rows: dict[str, list[pa.Table]] = {}
        self.finalized: set[tuple[str, int]] = set()
        # latest closed session's (last + gap) per source: rows at/below it
        # are late
        self.session_horizon: dict[str, int] = {}
        self.n_emitted = 0

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

    # -- ingest -----------------------------------------------------------

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        """Absorb a micro-batch, then finalize every window (session) the
        watermark passed: the salted engine's protocol with this actor as
        its own aggregator."""
        self._merge([self.ingest_partial(batch, watermark)])
        self._finalize_due(self.wm)

    def _finalize_due(self, watermark: int) -> None:
        if self.cfg.window_kind == "session":
            self.finalize_sessions_salted(self._due(watermark))
        else:
            self.finalize_windows(self._due(watermark, self.buffers))

    def _split_late(self, batch: pa.Table, watermark: int):
        """Route the rows whose governing window already finalized to the
        late side output; return the rest as ``(batch, ts, src, govern)``.
        The monotonic watermark implies every finalized window has end <=
        watermark, but ``self.finalized`` is consulted too so a window
        finalized by the salted aggregator can never re-open."""
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        src = np.asarray(batch["source"])
        govern = assign_windows_batch(ts, self.cfg)
        late = _window_end(govern, self.cfg) <= watermark
        late |= self._finalized_mask(src, govern)
        if late.any():
            self._note_late(batch.filter(pa.array(late)))
            keep = ~late
            batch = batch.filter(pa.array(keep))
            ts, src, govern = ts[keep], src[keep], govern[keep]
        return batch, ts, src, govern

    def _finalized_mask(self, src: np.ndarray, govern: np.ndarray) -> np.ndarray:
        """Per-row membership of (source, governing window) in
        ``self.finalized`` — evaluated once per UNIQUE pair and broadcast
        back (a batch has a handful of distinct pairs, not one per row)."""
        if not self.finalized or src.size == 0:
            return np.zeros(src.size, dtype=bool)
        s_u, w_min, w_span, c_u, c_inv = factorize_key_pairs(src, govern)
        fin_u = np.array(
            [(str(s_u[c // w_span]), int(c % w_span + w_min)) in self.finalized for c in c_u],
            dtype=bool,
        )
        return fin_u[c_inv]

    def _buffer_by_window(self, batch, src, govern) -> None:
        """Buffer each row under its governing (source, window) key —
        vectorized grouped take (one stable argsort over the factorized
        key, one ``batch.take`` per UNIQUE pair; stable order keeps each
        key's rows in arrival order, byte-identical to the per-row form)."""
        s_u, w_min, w_span, c_u, c_inv = factorize_key_pairs(src, govern)
        order = np.argsort(c_inv, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(c_inv))])
        for k, c in enumerate(c_u):
            key = (str(s_u[c // w_span]), int(c % w_span + w_min))
            idx = pa.array(order[bounds[k] : bounds[k + 1]])
            self.buffers.setdefault(key, []).append(batch.take(idx))

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
        out = []
        for a in range(0, rows.num_rows, _FUSED_REWRITE_ROWS):
            part = rows.slice(a, _FUSED_REWRITE_ROWS)
            fb = flatten_list_column(part["tokens"])
            res = process_batch_flat(fb, wm_row[a : a + _FUSED_REWRITE_ROWS], self.cfg)
            out.append(rewritten_table(part, fb, res))
        return out

    # -- the delta protocol ----------------------------------------------
    #
    # When a hot source is salted across actors, no single actor sees the
    # whole (source, window) histogram or all of a source's session rows.
    # The actor then only BUFFERS rows and returns its per-batch deltas:
    # histogram partials per (source, window), or micro-session fragments
    # (source, start, last, hist) — session boundaries are associative
    # interval data too, since the gap relation is transitive.  The
    # engine's ``_SaltedAggregator`` merges the deltas globally, decides,
    # and fans the agreed wm tokens back out through ``finalize_windows`` /
    # ``finalize_sessions_salted`` — the salt-and-merge design of SURVEY
    # §4.2.  Unsalted, :meth:`ingest` runs the same three steps in-process.

    def ingest_partial(self, batch: pa.Table, watermark: int):
        """Buffer a micro-batch and return its deltas, no finalize.
        Returns (sources, keys, hist_matrix, n_late): keys are windows, or
        (start, last) spans in the session kind."""
        cfg = self.cfg
        watermark = self._clamp_wm(watermark)
        if cfg.window_kind == "session":
            return self._session_partial(batch)
        batch, ts, src, govern = self._split_late(batch, watermark)
        if not batch.num_rows:
            return [], [], np.zeros((0, cfg.gray_mod), dtype=np.int64), self.n_late
        fb = flatten_list_column(batch["tokens"])
        out_src, out_win, Hm = window_partials(fb, src, contributing_windows(ts, cfg), cfg)
        self._buffer_by_window(batch, src, govern)
        return out_src, out_win, Hm, self.n_late

    def _session_partial(self, batch: pa.Table):
        """Session kind of :meth:`ingest_partial`: lexsort by (source, ts,
        doc); rows at or below a source's closed ``session_horizon``
        (recorded by ``finalize_sessions_salted``) are late; the rest
        buffer per source in ``_salted_rows`` and gap-split into
        micro-sessions (np.diff), with bulk histograms per segment."""
        cfg = self.cfg
        out_src: list[str] = []
        spans: list[tuple[int, int]] = []
        hists: list[np.ndarray] = []
        if batch.num_rows:
            ts0 = np.asarray(batch["event_ts"], dtype=np.int64)
            src0 = np.asarray(batch["source"])
            doc0 = np.asarray(batch["doc_id"])
            order = np.lexsort((doc0, ts0, src0))  # by source, then ts, then doc
            batch = batch.take(pa.array(order))
            ts, src = ts0[order], src0[order]
            starts = np.nonzero(np.concatenate([[True], src[1:] != src[:-1]]))[0]
            ends = np.append(starts[1:], src.size)
            late_idx: list[int] = []
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
                self._salted_rows.setdefault(s, []).append(sub)
                tk = tloc[keep]
                seg_break = np.concatenate([[True], np.diff(tk) > cfg.session_gap])
                seg_id = (np.cumsum(seg_break) - 1).astype(np.int64)
                H = batch_histograms(
                    flatten_list_column(sub["tokens"]), seg_id, int(seg_id[-1]) + 1, cfg
                )
                seg_starts = np.nonzero(seg_break)[0]
                seg_ends = np.append(seg_starts[1:], tk.size)
                for k, (a, b) in enumerate(zip(seg_starts, seg_ends)):
                    out_src.append(s)
                    spans.append((int(tk[a]), int(tk[b - 1])))
                    hists.append(H[k])
            if late_idx:
                self._note_late(batch.take(pa.array(late_idx)))
        Hm = np.stack(hists) if hists else np.zeros((0, cfg.gray_mod), dtype=np.int64)
        return out_src, spans, Hm, self.n_late

    def finalize_sessions_salted(self, items: list[tuple[str, int, int, int]]) -> None:
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
        self._divert(self._rewrite_parts(parts))

    def finalize_windows(self, wm_items: list[tuple[str, int, int]]) -> None:
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
        self._divert(self._rewrite_parts(parts))

    def buffered_keys(self) -> list[tuple[str, int]]:
        return sorted(self.buffers)

    def flush(self) -> None:
        """End of stream: finalize every remaining window or session."""
        self._finalize_due(1 << 62)

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
            + sum(t.num_rows for lst in self._salted_rows.values() for t in lst),
            "n_late": self.n_late,
            "n_emitted": self.n_emitted,
        }

    _CKPT_FIELDS = (
        "hists", "buffers", "finalized", "sticky", "horizon",
        "sessions", "session_horizon", "n_emitted", "_salted_rows",
    )
