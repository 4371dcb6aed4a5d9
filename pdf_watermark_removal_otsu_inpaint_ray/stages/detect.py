"""Phase-1 detection: windowed histogram aggregation → watermark table.

Scale shape (SURVEY.md §4.2, A1): histograms are **pre-aggregated inside each
map_batches task** (one 256-bin int64 vector per (source, window) per batch —
one ``np.add.at`` over the flattened batch), so the shuffle that follows moves
only tiny partial rows, never token data.  The merged per-key histograms and
the derived watermark table are O(#sources × #live-windows) — small by
construction — and are broadcast back to phase 2 via a single ``ray.put``.

Reference semantics: ``detect_watermark_color`` (watermark_detector.py:147-191)
computed per event-time window per source; sticky mode mirrors the reference's
first-detection-wins instance state (watermark_detector.py:562-568,188).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import EngineConfig, scaled_parts
from ..golden import detect_wm_token
from .kernels import batch_histograms, flatten_list_column

WmKey = tuple[str, int]

# sentinel window id for "no governing window" (session-map drift misses):
# int64 min, NOT -1 — session window ids are session-START timestamps, so a
# stream with negative event_ts can own window -1 legitimately
NO_WINDOW = int(np.iinfo(np.int64).min)


def assign_windows_batch(ts: np.ndarray, cfg: EngineConfig) -> np.ndarray:
    """Governing window id per row (tumbling/sliding/global — batch-local).

    Session windows need per-source global ordering: build a
    :func:`session_window_mapping` once (small — bounded by distinct
    (source, event_ts) pairs) and assign via :func:`lookup_session_windows`.
    """
    if cfg.window_kind == "tumbling":
        return ts // cfg.window_size
    if cfg.window_kind == "sliding":
        return ts // cfg.window_slide
    if cfg.window_kind == "global":
        return np.zeros_like(ts)
    raise ValueError(f"window kind {cfg.window_kind} is not batch-assignable")


SessionMap = dict[str, tuple[np.ndarray, np.ndarray]]


def session_window_mapping(ds, cfg: EngineConfig) -> SessionMap:
    """Batch-path session windows, phase 0: one distributed pass computes
    ``source -> (ts_sorted_unique, window_id)`` (window id = the session's
    first event_ts, golden.assign_session_windows semantics).  The mapping
    is bounded by distinct (source, event_ts) pairs — event-time-range ×
    sources, NOT data volume — so it broadcasts like the wm table."""
    import pandas as pd

    from ..golden import assign_session_windows

    def per_source(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.unique(g["event_ts"].to_numpy().astype(np.int64))
        win = assign_session_windows(ts, cfg.session_gap)
        return pd.DataFrame(
            {"source": g["source"].iloc[0], "event_ts": ts, "window_id": win}
        )

    # pre-shrink to distinct (source, ts) pairs inside map_batches so the
    # groupby shuffles pair rows, not data rows
    def distinct_pairs(b: pa.Table) -> pa.Table:
        src = np.asarray(b["source"])
        ts = np.asarray(b["event_ts"], dtype=np.int64)
        key = pd.MultiIndex.from_arrays([src, ts])
        mask = ~key.duplicated()
        return pa.table(
            {
                "source": pa.array(src[mask], pa.string()),
                "event_ts": pa.array(ts[mask], pa.int64()),
            }
        )

    rows = (
        ds.select_columns(["source", "event_ts"])
        .map_batches(distinct_pairs, batch_format="pyarrow")
        .groupby("source")
        .map_groups(per_source, batch_format="pandas")
    )
    out: SessionMap = {}
    for b in rows.iter_batches(batch_format="pyarrow"):
        t = pa.table(b) if not isinstance(b, pa.Table) else b
        src = np.asarray(t["source"])
        ts = np.asarray(t["event_ts"], dtype=np.int64)
        win = np.asarray(t["window_id"], dtype=np.int64)
        for s in np.unique(src):
            m = src == s
            prev = out.get(str(s))
            if prev is None:
                out[str(s)] = (ts[m], win[m])
            else:  # group split across output blocks: merge + re-sort
                mt = np.concatenate([prev[0], ts[m]])
                mw = np.concatenate([prev[1], win[m]])
                o = np.argsort(mt)
                out[str(s)] = (mt[o], mw[o])
    return out


def lookup_session_windows(session_map: SessionMap, src: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Vectorized per-row window id from the broadcast session mapping.

    Exact (source, ts) matches resolve to their session (the normal case —
    phase 0 maps the same dataset phase 2 rewrites).  Drift between the
    mapped and looked-up datasets degrades gracefully instead of crashing
    or mis-assigning (review finding): an in-range ts absent from the map
    takes the last mapped ts at or below it (inside a session's interval
    that IS its session); a ts beyond the source's mapped range, or a
    source the map has never seen, gets :data:`NO_WINDOW` — the wm table
    has no such key, so those rows fall back to no-detection rather than
    being rewritten under a wrong session's watermark."""
    out = np.full(ts.size, NO_WINDOW, dtype=np.int64)
    for s in np.unique(src):
        m = src == s
        entry = session_map.get(str(s))
        if entry is None:
            continue
        t_sorted, win = entry
        tm = ts[m]
        idx = np.searchsorted(t_sorted, tm, side="right") - 1
        ok = (idx >= 0) & (tm <= t_sorted[-1])
        out[m] = np.where(ok, win[np.clip(idx, 0, win.size - 1)], NO_WINDOW)
    return out


def factorize_key_pairs(
    src: np.ndarray, wins: np.ndarray
) -> tuple[np.ndarray, int, int, np.ndarray, np.ndarray]:
    """Dense factorization of (source, window) key pairs, shared by the
    partial builder, the partial merger, and the phase-2 wm lookup (review
    finding: three near-identical copies).  Returns
    ``(s_u, w_min, w_span, c_u, c_inv)`` where ``combo = source_index *
    w_span + (window - w_min)``; decode a combo id ``c`` with
    ``s_u[c // w_span]`` and ``c % w_span + w_min``.  ``w_span`` is the
    OBSERVED window range of this call, so ``s_count * w_span`` stays far
    inside int64 for any real key space."""
    s_u, s_inv = np.unique(src, return_inverse=True)
    wins = np.asarray(wins, dtype=np.int64)
    w_min = int(wins.min())
    w_span = int(wins.max()) - w_min + 1
    combo = s_inv.astype(np.int64) * w_span + (wins - w_min)
    c_u, c_inv = np.unique(combo, return_inverse=True)
    return s_u, w_min, w_span, c_u, c_inv


def contributing_windows(ts: np.ndarray, cfg: EngineConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every window each row's histogram feeds (tumbling/sliding/global),
    as ``(window, valid)`` per shift: one shift for tumbling and global
    windows, ceil(size / slide) for sliding ones, where a row feeds every
    window covering its event_ts (golden.contributing_windows)."""
    if cfg.window_kind != "sliding":
        return [(assign_windows_batch(ts, cfg), np.ones(ts.size, dtype=bool))]
    out = []
    for j in range(-(-cfg.window_size // cfg.window_slide)):
        w = ts // cfg.window_slide - j
        out.append((w, (w >= 0) & (ts - w * cfg.window_slide < cfg.window_size)))
    return out


def window_partials(
    fb, src: np.ndarray, shifts, cfg: EngineConfig
) -> tuple[list[str], list[int], np.ndarray]:
    """Per-(source, window) histogram partials of a flattened batch: one
    factorization and one :func:`batch_histograms` per ``(window, valid)``
    shift.  Returns ``(sources, windows, hists int64[K, gray_mod])``, one
    row per key of each shift."""
    out_src: list[str] = []
    out_win: list[int] = []
    hists = [np.zeros((0, cfg.gray_mod), dtype=np.int64)]
    for win, valid in shifts:
        v = np.nonzero(valid)[0]
        if v.size == 0:
            continue
        s_u, w_min, w_span, c_u, c_inv = factorize_key_pairs(src[v], win[v])
        key_row = np.full(src.size, -1, dtype=np.int64)
        key_row[v] = c_inv
        hists.append(batch_histograms(fb, key_row, c_u.size, cfg))
        out_src.extend(str(s) for s in s_u[c_u // w_span])
        out_win.extend((c_u % w_span + w_min).tolist())
    return out_src, out_win, np.concatenate(hists)


def _partials_table(srcs, wins, hists: np.ndarray, gray_mod: int) -> pa.Table:
    """(source, window_id, hist:list<int64>[gray_mod]) partial rows."""
    offs = np.arange(0, (len(srcs) + 1) * gray_mod, gray_mod, dtype=np.int32)
    return pa.table(
        {
            "source": pa.array([str(s) for s in srcs], pa.string()),
            "window_id": pa.array(np.asarray(wins, dtype=np.int64), pa.int64()),
            "hist": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()), pa.array(hists.reshape(-1), pa.int64())
            ),
        }
    )


class HistogramPartials:
    """Stateless map_batches body of phase 1: batch → per-(source, window)
    partial hists (:func:`window_partials` over the batch's
    :func:`contributing_windows`, or over the broadcast session mapping's
    windows)."""

    def __init__(self, cfg: EngineConfig, session_map: "SessionMap | None" = None):
        self.cfg = cfg
        self.session_map = session_map

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        src = np.asarray(batch["source"])
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        if cfg.window_kind == "session":
            w = lookup_session_windows(self.session_map, src, ts)
            # drift rows with no governing session contribute to no hist
            # (and NO_WINDOW = int64 min would overflow the factorization)
            shifts = [(w, w != NO_WINDOW)]
        else:
            shifts = contributing_windows(ts, cfg)
        out = window_partials(flatten_list_column(batch["tokens"]), src, shifts, cfg)
        return _partials_table(*out, cfg.gray_mod)


def detect_wm_many(hists: np.ndarray, cfg: EngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`golden.detect_wm_token` over K histograms at once.

    ``hists``: int64[K, gray_mod] → (wm int64[K] with -1 for none,
    coverage_pct float64[K]).  Same top-10 / gray-band / coverage rule and
    tie-break (count desc, gray desc) as the scalar oracle.
    """
    K, gm = hists.shape
    total = hists.sum(axis=1)
    order = np.argsort(hists, axis=1, kind="stable")[:, ::-1][:, : cfg.wm_topk]
    cnt = np.take_along_axis(hists, order, axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = cnt / np.maximum(total[:, None], 1) * 100.0
    ok = (
        (order >= cfg.wm_gray_lo)
        & (order <= cfg.wm_gray_hi)
        & (cov >= cfg.wm_cov_lo)
        & (cov <= cfg.wm_cov_hi)
        & (total[:, None] > 0)
    )
    first = np.argmax(ok, axis=1)
    any_ok = ok.any(axis=1)
    wm = np.where(any_ok, np.take_along_axis(order, first[:, None], axis=1)[:, 0], -1)
    covp = np.where(any_ok, np.take_along_axis(cov, first[:, None], axis=1)[:, 0], 0.0)
    return wm.astype(np.int64), covp


def _merge_hist_rows(
    srcs: np.ndarray, wins: np.ndarray, hists: np.ndarray, gray_mod: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized associative merge of (source, window, hist) partial rows:
    factorize the key pairs, one ``np.add.at``.  Returns (src_u_per_row,
    win_per_row, merged_hists) with one row per distinct key."""
    s_u, w_min, w_span, c_u, c_inv = factorize_key_pairs(
        np.asarray(srcs, dtype=object), wins
    )
    merged = np.zeros((c_u.size, gray_mod), dtype=np.int64)
    np.add.at(merged, c_inv, hists)
    return s_u[c_u // w_span], c_u % w_span + w_min, merged


def _tree_merge_partials(partials, cfg: EngineConfig, num_parts: int | None = None):
    """Distributed partial-merge round: coarse-partition the partial rows by
    hash(source, window) and merge each partition with the same vectorized
    factorized ``np.add.at`` — every (source, window) lands in exactly one
    partition, so the driver then receives EXACTLY one row per key (volume
    bounded by key cardinality, independent of input block count)."""
    num_parts = scaled_parts(64, num_parts)
    from ..sinks.exactly_once import hash_partition_ids

    def add_pk(b: pa.Table) -> pa.Table:
        hs = hash_partition_ids(b["source"].combine_chunks(), 1 << 30)
        pk = (hs * 31 + np.asarray(b["window_id"], np.int64)) % num_parts
        return b.append_column("pk", pa.array(pk, pa.int64()))

    gm = cfg.gray_mod

    def merge_part(g: pa.Table) -> pa.Table:
        srcs = np.asarray(g["source"].to_pylist(), dtype=object)
        wins = np.asarray(g["window_id"], np.int64)
        hists = flatten_list_column(g["hist"]).values.reshape(g.num_rows, gm).astype(np.int64)
        return _partials_table(*_merge_hist_rows(srcs, wins, hists, gm), gm)

    return (
        partials.map_batches(add_pk, batch_format="pyarrow")
        .groupby("pk")
        .map_groups(merge_part, batch_format="pyarrow")
    )


def compute_wm_table(
    ds,
    cfg: EngineConfig,
    batch_size: int = 4096,
    session_map: "SessionMap | None" = None,
    tree_merge: bool | None = None,
    tree_merge_threshold: int = 4096,
) -> dict[WmKey, tuple[int, float]]:
    """Run phase 1 on a sequence Dataset → {(source, window): (wm, cov%)}.

    ``ds`` must carry (tokens, source, event_ts).  Partials are already
    merged per batch inside :class:`HistogramPartials`; the driver reduce
    is INCREMENTAL — each streamed partial block is factorize-merged
    (``_merge_hist_rows``) into the running per-key dict, so driver memory
    is O(distinct keys), never O(partial rows).

    For session windows a ``session_map`` is built here when the caller
    did not supply one (review finding: the bare public phase-1 call
    crashed — only run_flagship pre-built the map).

    ``tree_merge``: at adversarial (source × window) cardinality, set True
    to insert a distributed partial-merging round (:func:`_tree_merge_partials`
    — histograms are associative) so the driver receives exactly ONE row
    per key instead of one per (key × input block).  ``None`` auto-enables
    it only for genuinely huge scans (input file count above
    ``tree_merge_threshold`` — at that scan width one extra merge round is
    noise relative to the read, and the per-file partial fan-in to the
    driver is the real risk).  Key CARDINALITY is not knowable before the
    scan, so callers with known adversarial (source × window) spaces should
    pass ``tree_merge=True`` explicitly; the default stays off for the
    bounded key spaces of the flagship pipelines.
    """
    if cfg.window_kind == "session" and session_map is None:
        session_map = session_window_mapping(ds, cfg)
    partials = ds.map_batches(
        HistogramPartials(cfg, session_map), batch_format="pyarrow", batch_size=batch_size
    )
    if tree_merge is None:
        # metadata-only estimate (works on lazy parquet reads; num_blocks()
        # raises before execution): one partial row set per input file at
        # minimum, so a very wide scan implies wide driver fan-in
        try:
            n_files = len(ds.input_files())
        except Exception:
            n_files = 0
        tree_merge = n_files > tree_merge_threshold
    if tree_merge:
        partials = _tree_merge_partials(partials, cfg)

    acc: dict[WmKey, np.ndarray] = {}
    for batch in partials.iter_batches(batch_format="pyarrow"):
        batch = pa.table(batch) if not isinstance(batch, pa.Table) else batch
        if batch.num_rows == 0:
            continue
        srcs = np.asarray(batch["source"].to_pylist(), dtype=object)
        wins = np.asarray(batch["window_id"], dtype=np.int64)
        fbh = flatten_list_column(batch["hist"])
        hists = fbh.values.reshape(batch.num_rows, cfg.gray_mod).astype(np.int64)
        o_src, o_win, merged = _merge_hist_rows(srcs, wins, hists, cfg.gray_mod)
        for k in range(merged.shape[0]):
            key = (str(o_src[k]), int(o_win[k]))
            prev = acc.get(key)
            if prev is None:
                acc[key] = merged[k].copy()
            else:
                prev += merged[k]
    if not acc:
        return {}
    keys = sorted(acc)
    wm_arr, cov_arr = detect_wm_many(np.stack([acc[k] for k in keys]), cfg)
    wm: dict[WmKey, tuple[int, float]] = {
        key: (int(wm_arr[i]), float(cov_arr[i])) for i, key in enumerate(keys)
    }
    if cfg.detection_mode == "sticky":
        apply_sticky(wm)
    return wm


def apply_sticky(wm: dict[WmKey, tuple[int, float]]) -> None:
    """First detection (ascending window) wins per source, in place."""
    by_src: dict[str, list[int]] = {}
    for s, w in wm:
        by_src.setdefault(s, []).append(w)
    for s, ws in by_src.items():
        fixed = None
        for w in sorted(ws):
            if fixed is None and wm[(s, w)][0] >= 0:
                fixed = wm[(s, w)]
            if fixed is not None:
                wm[(s, w)] = fixed


def wm_table_to_arrow(wm: dict[WmKey, tuple[int, float]]) -> pa.Table:
    items = sorted(wm.items())
    return pa.table(
        {
            "source": pa.array([k[0] for k, _ in items], pa.string()),
            "window_id": pa.array([k[1] for k, _ in items], pa.int64()),
            "wm_token": pa.array([v[0] for _, v in items], pa.int32()),
            "coverage_pct": pa.array([v[1] for _, v in items], pa.float64()),
        }
    )
