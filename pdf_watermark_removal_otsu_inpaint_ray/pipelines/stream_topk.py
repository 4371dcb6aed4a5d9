"""Streaming windowed top-k pipeline: continuous per-window leaderboards.

Single-read arrival-order consumption (the log contract of
:mod:`.streaming`); rows route to a :class:`TopkStateActor` pool by KEY
hash (a key's window count completes inside one actor — the partitioning
assumption the local-top-k/global-merge split relies on).  Each actor
emits its LOCAL top-k rows when the watermark closes a window; the driver
merges the k x actors candidate rows per window and trims to the global
top-k with ranks — output-scale driver traffic by construction (this
operator's OUTPUT is k rows per window, so no sink-direct mode is needed;
late rows are counted + returned, the keyed_state contract).

Determinism: window counts are complete at close (watermark ≤ min frontier
− lateness), ties rank (count DESC, key ASC) — the result is a pure
function of the log for any micro-batch size, actor count, or arrival
interleaving within the lateness bound.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.topk_state import TopkStateActor
from ..state.watermark_tracker import WatermarkTracker
from .streaming import StreamingResult, _drive, _key_route, _Resume


def run_streaming_topk(
    source,
    *,
    window_size: int,
    k: int = 5,
    key_col: str = "user_id",
    ts_col: str = "event_ts",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    slide: int | None = None,
) -> StreamingResult:
    """Run the streaming windowed top-k over a Parquet path / Dataset.
    Ray must already be initialised by the caller.  Returns a
    StreamingResult whose ``output`` is ``(window_id, key, cnt, rnk)``
    with ``rnk`` 1..k per window (count DESC, key ASC).  ``slide`` < 
    window_size runs SLIDING windows (each row joins its ws/slide
    overlapping windows inside the actor; window_id = start // slide)."""

    def shape(cand: list) -> pa.Table:
        if not cand:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    key_col: pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                    "rnk": pa.array([], pa.int64()),
                }
            )
        # global trim of the k x actors x windows candidate rows
        t = pa.concat_tables(cand)
        w = np.asarray(t["window_id"], np.int64)
        kk = np.asarray(t[key_col], np.int64)
        c = np.asarray(t["cnt"], np.int64)
        o = np.lexsort((kk, -c, w))
        w, kk, c = w[o], kk[o], c[o]
        first = np.concatenate(([True], w[1:] != w[:-1]))
        idx = np.arange(w.size, dtype=np.int64)
        start = np.maximum.accumulate(np.where(first, idx, 0))
        rnk = idx - start + 1
        keep = rnk <= k
        return pa.table(
            {
                "window_id": pa.array(w[keep], pa.int64()),
                key_col: pa.array(kk[keep], pa.int64()),
                "cnt": pa.array(c[keep], pa.int64()),
                "rnk": pa.array(rnk[keep], pa.int64()),
            }
        )

    actors = [
        TopkStateActor.remote(key_col=key_col, ts_col=ts_col, window_size=window_size, k=k, slide=slide)
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(key_col, n_actors), _Resume(), shape,
        micro_batch_rows=micro_batch_rows, ts_col=ts_col,
    )


def run_streaming_distinct(
    source,
    *,
    window_size: int,
    key_col: str = "user_id",
    ts_col: str = "event_ts",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
) -> StreamingResult:
    """Streaming EXACT count(DISTINCT key) per tumbling window — the same
    key-routed state pool (keys are disjoint across actors, so the global
    distinct count of a window is the SUM of per-actor cell counts at
    close).  Returns ``(window_id, n_distinct)``; per-window driver traffic
    is one int64 row per actor."""

    def shape(cand: list) -> pa.Table:
        if not cand:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    "n_distinct": pa.array([], pa.int64()),
                }
            )
        t = pa.concat_tables(cand)
        w = np.asarray(t["window_id"], np.int64)
        c = np.asarray(t["n_distinct"], np.int64)
        wu, inv = np.unique(w, return_inverse=True)
        sums = np.bincount(inv, weights=c, minlength=wu.size).astype(np.int64)
        return pa.table(
            {
                "window_id": pa.array(wu, pa.int64()),
                "n_distinct": pa.array(sums, pa.int64()),
            }
        )

    actors = [
        TopkStateActor.remote(key_col=key_col, ts_col=ts_col, window_size=window_size, k=1, emit="distinct")
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(key_col, n_actors), _Resume(), shape,
        micro_batch_rows=micro_batch_rows, ts_col=ts_col,
    )


def run_streaming_quantiles(
    source,
    *,
    window_size: int,
    probs: tuple[float, ...] = (0.5, 0.9),
    key_col: str = "bin",
    ts_col: str = "event_ts",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    slide: int | None = None,
) -> StreamingResult:
    """Streaming EXACT per-window quantiles of a bounded-domain integer
    value (``key_col`` is the value BIN) — the additive-histogram trick:
    rows route by bin hash, each actor keeps sparse (window, bin) -> count
    state (the topk state array, emit="hist"), a closed window emits its
    local sparse histogram, and the driver folds actors x bins cells into
    ``quantile_disc`` answers (index ceil(q*n) - 1 over the bin-sorted
    cumulative counts — DuckDB's discrete-quantile rule) plus the window
    row count.  Per-window driver traffic is the number of DISTINCT bins
    (bounded by the value domain), never the row count — the same partial
    shape as the flagship's 256-bin A1 histograms, lifted to event time
    with watermark-driven close.  ``slide`` < window_size runs SLIDING
    windows (each row joins its ws/slide overlapping windows inside the
    actor — the same state-expansion the sliding top-k documents;
    window_id = start // slide)."""
    import math

    pcols = [f"p{int(round(q * 100))}" for q in probs]

    def shape(cand: list) -> pa.Table:
        if not cand:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    **{pc_: pa.array([], pa.int64()) for pc_ in pcols},
                    "n": pa.array([], pa.int64()),
                }
            )
        # fold the actors x windows x bins sparse cells: one lexsort by
        # (window, bin) — cells are already unique across actors (bin-hash
        # routing), so the cumulative count per window reads directly off
        # the sorted runs
        t = pa.concat_tables(cand)
        w = np.asarray(t["window_id"], np.int64)
        b = np.asarray(t[key_col], np.int64)
        c = np.asarray(t["cnt"], np.int64)
        o = np.lexsort((b, w))
        w, b, c = w[o], b[o], c[o]
        first = np.concatenate(([True], w[1:] != w[:-1]))
        wu = w[first]
        starts = np.nonzero(first)[0]
        ends = np.concatenate((starts[1:], [w.size]))
        cs = np.cumsum(c)
        base = np.concatenate(([0], cs))[starts]
        totals = cs[ends - 1] - base
        cols: dict[str, list[int]] = {pc_: [] for pc_ in pcols}
        for s, e, nb, tot in zip(starts, ends, base, totals):
            run = cs[s:e] - nb
            for q, pc_ in zip(probs, pcols):
                target = math.ceil(q * tot)
                cols[pc_].append(int(b[s + np.searchsorted(run, target)]))
        return pa.table(
            {
                "window_id": pa.array(wu, pa.int64()),
                **{pc_: pa.array(cols[pc_], pa.int64()) for pc_ in pcols},
                "n": pa.array(totals.astype(np.int64), pa.int64()),
            }
        )

    actors = [
        TopkStateActor.remote(key_col=key_col, ts_col=ts_col, window_size=window_size, k=1, emit="hist", slide=slide)
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(key_col, n_actors), _Resume(), shape,
        micro_batch_rows=micro_batch_rows, ts_col=ts_col,
    )
