"""Streaming CEP funnel (state/funnel_state.py + pipelines/stream_cep.py)
and streaming changelog materialization (state/upsert_state.py +
pipelines/stream_upsert.py): batch-twin equality, layout invariance,
late routing, state bounds, sink mode, checkpoint kill-and-replay."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from pdf_watermark_removal_otsu_inpaint_ray.functions.cep import funnel
from pdf_watermark_removal_otsu_inpaint_ray.functions.packing import grouped_latest
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
    run_streaming_funnel,
)
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_upsert import (
    run_streaming_latest,
)

STEPS = ("signup", "view", "purchase")
TYPES = ("signup", "view", "purchase", "click", "refund")


def _event_stream(n_users=60, per_user=12, disorder=7, seed=7):
    """Keyed event log: per-user event sequences with a bounded arrival
    disorder (each row's arrival position jitters by <= `disorder`)."""
    rng = np.random.default_rng(seed)
    n = n_users * per_user
    users = rng.integers(0, n_users, n).astype(np.int64)
    ts = rng.integers(0, 500, n).astype(np.int64)
    typ = rng.choice(TYPES, n, p=(0.15, 0.35, 0.1, 0.3, 0.1))
    val = rng.integers(-1000, 1000, n).astype(np.int64)
    arrival = np.argsort(ts + rng.integers(0, disorder + 1, n), kind="stable")
    return pa.table(
        {
            "user_id": pa.array(users[arrival], pa.int64()),
            "ts_us": pa.array(ts[arrival], pa.int64()),
            "event_id": pa.array(np.arange(n, dtype=np.int64)[arrival], pa.int64()),
            "event_type": pa.array(typ[arrival]),
            "value_c": pa.array(val[arrival], pa.int64()),
        }
    )


def _batch_funnel(tbl: pa.Table):
    out = funnel(
        ray.data.from_arrow(tbl),
        group="user_id",
        order="ts_us",
        tiebreak="event_id",
        type_col="event_type",
        steps=STEPS,
    ).to_pandas()
    return out.sort_values("user_id", ignore_index=True)[
        ["user_id", *(f"ts_{s}" for s in STEPS), "stage"]
    ]


def _batch_latest(tbl: pa.Table):
    out = grouped_latest(
        ray.data.from_arrow(tbl),
        group="user_id",
        order="ts_us",
        tiebreak="event_id",
    ).to_pandas()
    cols = sorted(out.columns)
    return out.sort_values("user_id", ignore_index=True)[cols]


# -- funnel -------------------------------------------------------------


def test_funnel_matches_batch_twin(ray_session):
    tbl = _event_stream()
    res = run_streaming_funnel(
        ray.data.from_arrow(tbl),
        steps=STEPS,
        allowed_lateness=16,
        n_actors=3,
        micro_batch_rows=64,
    )
    assert res.n_late == 0
    got = res.output.to_pandas()[["user_id", *(f"ts_{s}" for s in STEPS), "stage"]]
    assert got.equals(_batch_funnel(tbl))
    # every non-late row was finalized through the chain
    assert sum(s["n_rows"] for s in res.actor_stats) == tbl.num_rows


def test_funnel_layout_invariance(ray_session):
    tbl = _event_stream(40, 10)
    want = _batch_funnel(tbl)
    for n_actors, mb in ((1, 1024), (4, 37)):
        res = run_streaming_funnel(
            ray.data.from_arrow(tbl),
            steps=STEPS,
            allowed_lateness=16,
            n_actors=n_actors,
            micro_batch_rows=mb,
        )
        got = res.output.to_pandas()[
            ["user_id", *(f"ts_{s}" for s in STEPS), "stage"]
        ]
        assert got.equals(want)


def test_funnel_strict_order_semantics(ray_session):
    # view BEFORE the signup must not count; purchase at the SAME ts as
    # the view must not count (strictly-after semantics)
    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1, 1], pa.int64()),
            "ts_us": pa.array([5, 10, 20, 20, 30], pa.int64()),
            "event_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "event_type": pa.array(
                ["view", "signup", "view", "purchase", "purchase"]
            ),
        }
    )
    res = run_streaming_funnel(
        ray.data.from_arrow(tbl), steps=STEPS, n_actors=1, micro_batch_rows=2
    )
    row = res.output.to_pandas().iloc[0]
    assert (row.ts_signup, row.ts_view, row.ts_purchase, row.stage) == (
        10, 20, 30, 3,
    )
    assert res.output.to_pandas().equals(
        _batch_funnel(tbl)
    )


def test_funnel_late_routing(ray_session):
    tbl = _event_stream(40, 10, disorder=30)
    res = run_streaming_funnel(
        ray.data.from_arrow(tbl),
        steps=STEPS,
        allowed_lateness=0,
        n_actors=2,
        micro_batch_rows=16,
    )
    assert res.n_late > 0
    assert res.late is not None and res.late.num_rows == res.n_late
    # conservation: every row is either finalized through the chain or late
    assert (
        sum(s["n_rows"] + s["n_late"] for s in res.actor_stats) == tbl.num_rows
    )
    # state is keys + undecided rows, never the whole log
    for s in res.actor_stats:
        assert s["pending_rows"] == 0  # flushed


def test_funnel_sink_mode_equals_driver_mode(ray_session, tmp_path):
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _event_stream(50, 8)
    driver = run_streaming_funnel(
        ray.data.from_arrow(tbl), steps=STEPS, allowed_lateness=16, n_actors=2
    )
    out_dir = str(tmp_path / "sink")
    sink = run_streaming_funnel(
        ray.data.from_arrow(tbl),
        steps=STEPS,
        allowed_lateness=16,
        n_actors=2,
        out_dir=out_dir,
    )
    assert sink.output is None
    got = (
        read_output(out_dir)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )
    cols = [c for c in ("user_id", *(f"ts_{s}" for s in STEPS), "stage")]
    want = driver.output.to_pandas()[cols]
    assert got[cols].equals(want)


def test_funnel_checkpoint_kill_and_replay(ray_session, tmp_path):
    """Kill after a checkpoint, resume, byte-identical commit (key ids,
    threshold matrix, and undecided pending rows ride the snapshot)."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.checkpoint import (
        latest_checkpoint,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _event_stream(60, 10)
    path = str(tmp_path / "log.parquet")
    pq.write_table(tbl, path)
    kw = dict(
        steps=STEPS, allowed_lateness=16, n_actors=2, micro_batch_rows=64
    )

    clean_dir = str(tmp_path / "clean")
    run_streaming_funnel(path, out_dir=clean_dir, **kw)
    want = (
        read_output(clean_dir)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )

    ck_dir = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_funnel(
            path, out_dir=ck_dir, checkpoint_every=2, _stop_after_batches=5, **kw
        )
    assert latest_checkpoint(ck_dir) is not None
    run_streaming_funnel(path, out_dir=ck_dir, checkpoint_every=2, **kw)
    got = (
        read_output(ck_dir).to_pandas().sort_values("user_id", ignore_index=True)
    )
    assert got.equals(want)
    assert latest_checkpoint(ck_dir) is None


# -- changelog materialization ------------------------------------------


def test_latest_matches_batch_twin(ray_session):
    tbl = _event_stream()
    res = run_streaming_latest(
        ray.data.from_arrow(tbl), n_actors=3, micro_batch_rows=64
    )
    got = res.output.to_pandas()
    got = got.sort_values("user_id", ignore_index=True)[sorted(got.columns)]
    assert got.equals(_batch_latest(tbl))


def test_latest_layout_invariance(ray_session):
    tbl = _event_stream(40, 10)
    want = _batch_latest(tbl)
    for n_actors, mb, cr in ((1, 1024, 65536), (4, 37, 128), (2, 8, 16)):
        res = run_streaming_latest(
            ray.data.from_arrow(tbl),
            n_actors=n_actors,
            micro_batch_rows=mb,
            compact_rows=cr,
        )
        got = res.output.to_pandas()
        got = got.sort_values("user_id", ignore_index=True)[sorted(got.columns)]
        assert got.equals(want)


def test_latest_state_bounded(ray_session):
    # 20 live keys under a 10k-row changelog: state must be O(keys)
    n, keys = 10_000, 20
    rng = np.random.default_rng(3)
    tbl = pa.table(
        {
            "user_id": pa.array(rng.integers(0, keys, n), pa.int64()),
            "ts_us": pa.array(rng.integers(0, 1 << 30, n), pa.int64()),
            "event_id": pa.array(np.arange(n), pa.int64()),
            "event_type": pa.array(["upd"] * n),
        }
    )
    res = run_streaming_latest(
        ray.data.from_arrow(tbl), n_actors=2, micro_batch_rows=256,
        compact_rows=512,
    )
    assert res.output.num_rows == keys
    for s in res.actor_stats:
        # live state rows = this actor's key share; deltas below threshold
        assert s["state_keys"] <= keys
        assert s["delta_rows"] < 512
    assert res.output.to_pandas().sort_values(
        "user_id", ignore_index=True
    )[sorted(res.output.column_names)].equals(_batch_latest(tbl))


def test_latest_sink_mode_equals_driver_mode(ray_session, tmp_path):
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _event_stream(50, 8)
    driver = run_streaming_latest(ray.data.from_arrow(tbl), n_actors=2)
    out_dir = str(tmp_path / "sink")
    sink = run_streaming_latest(
        ray.data.from_arrow(tbl), n_actors=2, out_dir=out_dir
    )
    assert sink.output is None
    got = (
        read_output(out_dir)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )
    cols = sorted(c for c in got.columns if c not in ("part", "doc_id"))
    want = driver.output.to_pandas()
    want = want.sort_values("user_id", ignore_index=True)[cols]
    assert got[cols].equals(want)


# -- within (per-step timeout) ------------------------------------------


def test_funnel_within_matches_batch_twin(ray_session):
    tbl = _event_stream(50, 12)
    W = 40  # tight band on the 0..500 ts space: many keys time out
    want = funnel(
        ray.data.from_arrow(tbl),
        group="user_id",
        order="ts_us",
        tiebreak="event_id",
        type_col="event_type",
        steps=STEPS,
        within=W,
    ).to_pandas().sort_values("user_id", ignore_index=True)[
        ["user_id", *(f"ts_{s}" for s in STEPS), "stage"]
    ]
    res = run_streaming_funnel(
        ray.data.from_arrow(tbl),
        steps=STEPS,
        within=W,
        allowed_lateness=16,
        n_actors=3,
        micro_batch_rows=64,
    )
    got = res.output.to_pandas()[["user_id", *(f"ts_{s}" for s in STEPS), "stage"]]
    assert got.equals(want)
    # the band must actually bite vs the unbounded funnel on this stream
    unbounded = run_streaming_funnel(
        ray.data.from_arrow(tbl), steps=STEPS, allowed_lateness=16, n_actors=3
    )
    assert got.stage.sum() < unbounded.output.to_pandas().stage.sum()


def test_funnel_within_timeout_semantics(ray_session):
    # view lands outside signup+W -> never matches; purchase inside its
    # band but the chain is stuck at stage 1 (no restart semantics)
    tbl = pa.table(
        {
            "user_id": pa.array([7, 7, 7], pa.int64()),
            "ts_us": pa.array([10, 100, 120], pa.int64()),
            "event_id": pa.array([0, 1, 2], pa.int64()),
            "event_type": pa.array(["signup", "view", "purchase"]),
        }
    )
    res = run_streaming_funnel(
        ray.data.from_arrow(tbl), steps=STEPS, within=50, n_actors=1
    )
    row = res.output.to_pandas().iloc[0]
    assert (row.ts_signup, row.ts_view, row.ts_purchase, row.stage) == (
        10, -1, -1, 1,
    )


def test_latest_checkpoint_kill_and_replay(ray_session, tmp_path):
    """Kill after a checkpoint, resume, byte-identical materialized state
    (live state + delta buffer ride the actor snapshots)."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.checkpoint import (
        latest_checkpoint,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _event_stream(60, 10)
    path = str(tmp_path / "log.parquet")
    pq.write_table(tbl, path)
    kw = dict(n_actors=2, micro_batch_rows=64, compact_rows=128)

    clean_dir = str(tmp_path / "clean")
    run_streaming_latest(path, out_dir=clean_dir, **kw)
    want = (
        read_output(clean_dir)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )

    ck_dir = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_latest(
            path, out_dir=ck_dir, checkpoint_every=2, _stop_after_batches=5, **kw
        )
    assert latest_checkpoint(ck_dir) is not None
    run_streaming_latest(path, out_dir=ck_dir, checkpoint_every=2, **kw)
    got = (
        read_output(ck_dir).to_pandas().sort_values("user_id", ignore_index=True)
    )
    assert got.equals(want)
    assert latest_checkpoint(ck_dir) is None


# -- streaming rate limit -----------------------------------------------


def _rl_stream(n=800, keys=30, W=100, disorder=6, seed=5):
    rng = np.random.default_rng(seed)
    key = rng.integers(0, keys, n).astype(np.int64)
    ts = rng.integers(0, 1000, n).astype(np.int64)
    arr = np.argsort(ts + rng.integers(0, disorder, n), kind="stable")
    return pa.table(
        {
            "user_id": pa.array(key[arr], pa.int64()),
            "ts_us": pa.array(ts[arr], pa.int64()),
            "event_id": pa.array(np.arange(n, dtype=np.int64)[arr], pa.int64()),
        }
    )


def _batch_rate_limit(tbl, W=100, k=2):
    from pdf_watermark_removal_otsu_inpaint_ray.functions.cep import rate_limit

    out = rate_limit(
        ray.data.from_arrow(tbl),
        group="user_id",
        order="ts_us",
        tiebreak="event_id",
        window_us=W,
        k=k,
    ).to_pandas()
    return out.sort_values("event_id", ignore_index=True)[
        ["user_id", "window_id", "ts_us", "event_id", "rn"]
    ]


def test_rate_limit_matches_batch_twin_and_layouts(ray_session):
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
        run_streaming_rate_limit,
    )

    tbl = _rl_stream()
    want = _batch_rate_limit(tbl)
    for na, mb in ((1, 1024), (4, 17)):
        res = run_streaming_rate_limit(
            ray.data.from_arrow(tbl), window_us=100, k=2,
            allowed_lateness=8, n_actors=na, micro_batch_rows=mb,
        )
        assert res.n_late == 0
        got = res.output.to_pandas().sort_values(
            "event_id", ignore_index=True
        )[["user_id", "window_id", "ts_us", "event_id", "rn"]]
        assert got.equals(want), (na, mb)
    # conservation + closed-window eviction
    assert sum(
        s["n_kept"] + s["n_capped"] for s in res.actor_stats
    ) == tbl.num_rows
    for s in res.actor_stats:
        assert s["state_windows"] == 0  # all windows closed at flush


def test_rate_limit_cross_sweep_rank_continuity(ray_session):
    # 5 same-key same-window rows arriving across many tiny batches:
    # ranks must continue across sweeps (3rd+ rows capped, never re-ranked)
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
        run_streaming_rate_limit,
    )

    tbl = pa.table(
        {
            "user_id": pa.array([7] * 5, pa.int64()),
            "ts_us": pa.array([10, 20, 30, 40, 50], pa.int64()),
            "event_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        }
    )
    res = run_streaming_rate_limit(
        ray.data.from_arrow(tbl), window_us=1000, k=2,
        allowed_lateness=0, n_actors=1, micro_batch_rows=1,
    )
    got = res.output.to_pandas()
    assert got.event_id.tolist() == [0, 1]
    assert got.rn.tolist() == [1, 2]
    assert res.actor_stats[0]["n_capped"] == 3


def test_rate_limit_late_routing(ray_session):
    """Under-laternessed disorder: late rows are counted and routed, never
    ranked; every row is kept, capped or late."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
        run_streaming_rate_limit,
    )

    tbl = _rl_stream(400, disorder=60)
    res = run_streaming_rate_limit(
        ray.data.from_arrow(tbl), window_us=100, k=2,
        allowed_lateness=0, n_actors=2, micro_batch_rows=16,
    )
    assert res.n_late > 0
    assert res.late is not None and res.late.num_rows == res.n_late
    assert (
        sum(s["n_kept"] + s["n_capped"] for s in res.actor_stats) + res.n_late
        == tbl.num_rows
    )
    late_ids = set(res.late["event_id"].to_pylist())
    assert late_ids.isdisjoint(res.output["event_id"].to_pylist())


def test_rate_limit_checkpoint_kill_and_replay(ray_session, tmp_path):
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.checkpoint import (
        latest_checkpoint,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
        run_streaming_rate_limit,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _rl_stream(600)
    path = str(tmp_path / "log.parquet")
    pq.write_table(tbl, path)
    kw = dict(window_us=100, k=2, allowed_lateness=8, n_actors=2,
              micro_batch_rows=32)

    clean_dir = str(tmp_path / "clean")
    run_streaming_rate_limit(path, out_dir=clean_dir, **kw)
    want = (
        read_output(clean_dir)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )

    ck_dir = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_rate_limit(
            path, out_dir=ck_dir, checkpoint_every=3, _stop_after_batches=8, **kw
        )
    assert latest_checkpoint(ck_dir) is not None
    run_streaming_rate_limit(path, out_dir=ck_dir, checkpoint_every=3, **kw)
    got = (
        read_output(ck_dir).to_pandas().sort_values("event_id", ignore_index=True)
    )
    assert got.equals(want)
    assert latest_checkpoint(ck_dir) is None
