"""Streaming per-session aggregates (state/sessionstats_state.py +
run_streaming_session_stats): batch-twin equality under disorder and
any layout, eager watermark close, open-session state bound, sink mode
kill-and-replay."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
    run_streaming_session_stats,
)

GAP = 200


def _stream(n=700, n_keys=8, disorder=7, seed=3):
    rng = np.random.default_rng(seed)
    seq = np.arange(n, dtype=np.int64)
    key = rng.integers(0, n_keys, n).astype(np.int64)
    base = np.sort(rng.integers(0, 40000, n)).astype(np.int64)
    ts = base + rng.integers(0, disorder, n)
    return pa.table(
        {
            "user_id": pa.array(key), "ts_us": pa.array(ts),
            "event_id": pa.array(seq),
        }
    )


def _batch_twin(tbl: pa.Table):
    from pdf_watermark_removal_otsu_inpaint_ray.functions.packing import (
        grouped_session_stats,
    )

    out = grouped_session_stats(
        ray.data.from_arrow(tbl), group="user_id", order="ts_us",
        tiebreak="event_id", gap=GAP,
    ).to_pandas()
    return {
        (int(r["user_id"]), int(r["session_id"])): (
            int(r["n_events"]), int(r["start_us"]), int(r["end_us"]),
            int(r["duration_us"]),
        )
        for _, r in out.iterrows()
    }


def _as_dict(output: pa.Table):
    return {
        (r["user_id"], r["session_id"]): (
            r["n_events"], r["start_us"], r["end_us"], r["duration_us"]
        )
        for r in output.to_pylist()
    }


def test_streaming_session_stats_matches_batch_any_layout(ray_session):
    tbl = _stream()
    want = _batch_twin(tbl)
    for n_actors, mb in ((1, 64), (3, 512), (4, 29)):
        res = run_streaming_session_stats(
            ray.data.from_arrow(tbl), gap=GAP,
            allowed_lateness=16, n_actors=n_actors, micro_batch_rows=mb,
        )
        assert res.n_late == 0
        assert _as_dict(res.output) == want, (n_actors, mb)


def test_streaming_session_stats_eager_close_and_state_bound(ray_session):
    """Sessions close as the watermark passes end + gap, long before the
    flush: open-session state stays at ≤ one per key throughout, and on
    a long stream most emissions happen live."""
    tbl = _stream(n=2000, n_keys=5, seed=9)
    res = run_streaming_session_stats(
        ray.data.from_arrow(tbl), gap=GAP, allowed_lateness=8,
        n_actors=2, micro_batch_rows=64,
    )
    for s in res.actor_stats:
        assert s["open_sessions"] == 0  # all closed by flush
        assert s["state_keys"] <= 5
    assert _as_dict(res.output) == _batch_twin(tbl)


def test_streaming_session_stats_late_routing(ray_session):
    tbl = _stream(disorder=2000, seed=11)
    res = run_streaming_session_stats(
        ray.data.from_arrow(tbl), gap=GAP, allowed_lateness=2,
        n_actors=2, micro_batch_rows=16,
    )
    assert res.n_late > 0
    assert res.late is not None and res.late.num_rows == res.n_late
    # conservation: processed + late == stream
    assert sum(s["n_rows"] for s in res.actor_stats) + res.n_late == tbl.num_rows


def test_streaming_session_stats_sink_and_resume(ray_session, tmp_path):
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _stream(seed=17)
    want = _batch_twin(tbl)
    kw = dict(gap=GAP, allowed_lateness=16, n_actors=3, micro_batch_rows=32)
    clean = str(tmp_path / "ss_clean")
    res = run_streaming_session_stats(
        ray.data.from_arrow(tbl), out_dir=clean, **kw
    )
    assert res.output is None
    gdf = read_output(clean).to_pandas()
    got = {
        (int(r["user_id"]), int(r["session_id"])): (
            int(r["n_events"]), int(r["start_us"]), int(r["end_us"]),
            int(r["duration_us"]),
        )
        for _, r in gdf.iterrows()
    }
    assert got == want
    ck = str(tmp_path / "ss_ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_session_stats(
            ray.data.from_arrow(tbl), out_dir=ck,
            checkpoint_every=3, _stop_after_batches=9, **kw
        )
    run_streaming_session_stats(
        ray.data.from_arrow(tbl), out_dir=ck, checkpoint_every=3, **kw
    )
    a = read_output(clean).to_pandas().sort_values(
        ["user_id", "session_id"], ignore_index=True
    )
    b = read_output(ck).to_pandas().sort_values(
        ["user_id", "session_id"], ignore_index=True
    )
    assert a.equals(b)


def test_session_actor_continuation_run_keeps_leading_rows(ray_session):
    """Actor-level regression for the segmentation bug the suite caught:
    a sweep whose first row CONTINUES the open session must keep the
    run's leading rows (the unanchored-segment bug silently dropped
    them) and merge counts across sweeps."""
    from pdf_watermark_removal_otsu_inpaint_ray.state.sessionstats_state import (
        SessionStatsActor,
    )

    ts = [100, 150, 220, 280, 300, 360, 900, 2000]
    rows = pa.table(
        {
            "user_id": pa.array([1] * len(ts), pa.int64()),
            "ts_us": pa.array(ts, pa.int64()),
            "event_id": pa.array(list(range(len(ts))), pa.int64()),
        }
    )
    a = SessionStatsActor.remote(gap=GAP)
    out = []
    # micro-batches with advancing watermark: the second batch's first
    # row (220) continues the open session from the first batch
    for lo, hi, wm in ((0, 2, 160), (2, 6, 370), (6, 8, 2100)):
        ray.get(a.ingest.remote(rows.slice(lo, hi - lo), wm))
        out.extend(ray.get(a.take_held.remote())[0])
    ray.get(a.flush.remote())
    out.extend(ray.get(a.take_held.remote())[0])
    got = pa.concat_tables(out).to_pandas().sort_values("session_id")
    rows_out = list(
        map(tuple, got[["session_id", "n_events", "start_us", "end_us"]].to_numpy())
    )
    # one 6-event session 100..360, then 900 alone, then 2000 alone
    assert rows_out == [(1, 6, 100, 360), (2, 1, 900, 900), (3, 1, 2000, 2000)]
