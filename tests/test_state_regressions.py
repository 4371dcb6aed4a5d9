"""Regression tests for keyed-state watermark semantics (round-2 fixes):

1. sliding-mode hist eviction must be watermark-gated — a still-open window
   (end > watermark) can legally receive on-time rows, so its histogram must
   survive earlier finalizations;
2. the actor watermark is monotonic — a stale (smaller) caller watermark from
   a parallel consumer must not re-open an already-finalized window;
3. session state is per live source — a source whose sessions all closed
   keeps no key, so a stream of ever-new sources does not grow it.
"""

import pickle

import numpy as np
import pyarrow as pa
import ray

from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.state.keyed_state import KeyedStateActor


def _rows(items):
    """items: list of (doc_id, tokens, ts)."""
    return pa.table(
        {
            "doc_id": pa.array([i[0] for i in items], pa.string()),
            "tokens": pa.array([list(i[1]) for i in items], pa.list_(pa.int32())),
            "n_tok": pa.array([len(i[1]) for i in items], pa.int32()),
            "source": pa.array(["s"] * len(items), pa.string()),
            "event_ts": pa.array([i[2] for i in items], pa.int64()),
        }
    )


def _empty():
    return _rows([])


def test_sliding_open_window_hist_survives_finalize(ray_session):
    """ADVICE repro: size=10/slide=1; rows at ts=3,10; finalize at wm=13;
    an on-time row at ts=7 (window end 17 > 13) must then be detected from a
    histogram that still includes the ts=10 row's contribution."""
    cfg = DEFAULT_CONFIG.with_(
        window_kind="sliding", window_size=10, window_slide=1, allowed_lateness=0
    )
    actor = KeyedStateActor.remote(cfg)
    # ts=7 row: gray-50 content + a 5-run of gray-110 (inpaintable near wm)
    row_a = [50] * 100 + [110] * 5
    # ts=10 row: 20 tokens of gray 120 -> combined window-7 hist detects 120
    # (cov 16%); without it the ts=7 row alone detects 110 instead.
    row_b = [120] * 20
    ray.get(actor.ingest.remote(_rows([("d3", [50] * 10, 3), ("d10", row_b, 10)]), -(1 << 62)))
    ray.get(actor.ingest.remote(_empty(), 13))  # finalizes windows with end <= 13
    ray.get(actor.ingest.remote(_rows([("d7", row_a, 7)]), 13))  # on-time
    ray.get(actor.take_held.remote())  # what the calls above emitted
    ray.get(actor.ingest.remote(_empty(), 13))
    emitted, _ = ray.get(actor.take_held.remote())
    assert ray.get(actor.state_stats.remote())["n_late"] == 0
    ray.get(actor.flush.remote())
    flushed, _ = ray.get(actor.take_held.remote())
    out = pa.concat_tables(
        [t for t in emitted + flushed if t.num_rows], promote_options="none"
    )
    by_id = dict(zip(out["doc_id"].to_pylist(), out["wm_token"].to_pylist()))
    # window 7 = [7,17) contains ts=7 and ts=10: hist {50:100, 110:5, 120:20}
    # -> first qualifying bin by count desc is 120 (cov 16.0%), not 110
    assert by_id["d7"] == 120


def test_watermark_is_monotonic_across_consumers(ray_session):
    """A stale watermark (parallel consumer raced behind) must not re-open a
    finalized window: the straggler row goes to the late side output and the
    window is never re-emitted with a straggler-only histogram."""
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=10, allowed_lateness=0)
    actor = KeyedStateActor.remote(cfg)
    ray.get(actor.ingest.remote(_rows([("d5", [120] * 50 + [200] * 300, 5)]), 5))
    ray.get(actor.take_held.remote())  # what the call above emitted
    ray.get(actor.ingest.remote(_empty(), 12))
    emitted1, _ = ray.get(actor.take_held.remote())
    assert sum(t.num_rows for t in emitted1) == 1  # window 0 finalized at wm=12
    # straggler for window 0 arrives with a STALE watermark of 4
    ray.get(actor.ingest.remote(_rows([("d6", [120] * 10, 6)]), 4))
    emitted2, late = ray.get(actor.take_held.remote())
    assert ray.get(actor.state_stats.remote())["n_late"] == 1
    ray.get(actor.flush.remote())
    flushed, _ = ray.get(actor.take_held.remote())
    total = sum(t.num_rows for t in emitted1 + emitted2 + flushed)
    assert total == 1  # window 0 emitted exactly once; no duplicate emission
    assert late and pa.concat_tables(late)["doc_id"].to_pylist() == ["d6"]


def _source_batch(i: int, n_sources: int) -> pa.Table:
    """Batch ``i`` of a rotating-source stream: one row for each of
    ``n_sources`` sources seen in no other batch, at ts 100*i + j."""
    srcs = [f"s{i}_{j}" for j in range(n_sources)]
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}_{j}" for j in range(n_sources)], pa.string()),
            "tokens": pa.array([[50] * 20] * n_sources, pa.list_(pa.int32())),
            "n_tok": pa.array([20] * n_sources, pa.int32()),
            "source": pa.array(srcs, pa.string()),
            "event_ts": pa.array([100 * i + j for j in range(n_sources)], pa.int64()),
        }
    )


def test_session_state_keeps_only_live_sources(ray_session):
    """40 batches of 50 new sources each, every batch ingested under a
    watermark that closes all sessions of the batch before it: only the
    last batch's sources still have an open session, and only they may
    hold a key in the session state (unsalted ``sessions`` and the salted
    path's ``_salted_rows``)."""
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=10, allowed_lateness=0)
    n_batches, n_sources = 40, 50
    batches = [_source_batch(i, n_sources) for i in range(n_batches)]
    live = {f"s{n_batches - 1}_{j}" for j in range(n_sources)}

    actor = KeyedStateActor.remote(cfg)
    for i, b in enumerate(batches):
        ray.get(actor.ingest.remote(b, 100 * i - 1))
        assert ray.get(actor.state_stats.remote())["n_late"] == 0
    state = pickle.loads(ray.get(actor.checkpoint_state.remote()))
    assert set(state["sessions"]) == live
    assert all(state["sessions"].values())

    salted = KeyedStateActor.remote(cfg)
    for i, b in enumerate(batches):
        ray.get(salted.ingest_partial.remote(b, 100 * i - 1))
    closed = [
        (s, ts, ts, -1)
        for b in batches[:-1]
        for s, ts in zip(b["source"].to_pylist(), b["event_ts"].to_pylist())
    ]
    ray.get(salted.finalize_sessions_salted.remote(closed))
    state = pickle.loads(ray.get(salted.checkpoint_state.remote()))
    assert set(state["_salted_rows"]) == live
