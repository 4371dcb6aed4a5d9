"""Streaming per-key interval-union coverage (state/coverage_state.py +
pipelines/stream_coverage.py): equality with the batch twin for any
layout, touching-interval break semantics, state bounds, checkpoint
kill-and-replay."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_coverage import (
    run_streaming_coverage,
)

HOLD = 100


def _stream(n=900, n_keys=11, seed=3):
    """Arrival order deliberately NOT time order (the monoid needs none):
    interleaved keys, shuffled timestamps, duplicate (key, ts) rows."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n).astype(np.int64)
    t = rng.integers(0, 4000, n).astype(np.int64)
    # plant exact duplicates and exact-touch gaps (gap == HOLD must break)
    k[:6] = 7
    t[:6] = [50, 50, 150, 150 + HOLD, 1000, 1000]
    return pa.table({"user_id": pa.array(k), "ts_us": pa.array(t)})


def _batch_twin(tbl: pa.Table):
    from pdf_watermark_removal_otsu_inpaint_ray.functions.packing import (
        grouped_interval_coverage,
    )

    out = (
        grouped_interval_coverage(
            ray.data.from_arrow(tbl), group="user_id", order="ts_us", hold=HOLD
        )
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )
    return list(map(tuple, out.to_numpy()))


def test_streaming_coverage_matches_batch_twin_any_layout(ray_session):
    tbl = _stream()
    want = _batch_twin(tbl)
    for n_actors, mb, compact in ((1, 64, 50), (3, 512, 65536), (4, 97, 10)):
        res = run_streaming_coverage(
            ray.data.from_arrow(tbl),
            hold=HOLD,
            n_actors=n_actors,
            micro_batch_rows=mb,
            compact_rows=compact,
        )
        got = list(map(tuple, res.output.to_pandas().to_numpy()))
        assert got == want, (n_actors, mb, compact)
        assert res.n_late == 0


def test_streaming_coverage_touch_and_dup_semantics(ray_session):
    """gap == hold breaks (strict half-open union); duplicates are
    idempotent; a key with one event covers exactly hold."""
    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "ts_us": pa.array([0, HOLD, 0, 5, 5, 42], pa.int64()),
        }
    )
    res = run_streaming_coverage(
        ray.data.from_arrow(tbl), hold=HOLD, n_actors=2, micro_batch_rows=2
    )
    got = {
        int(r["user_id"]): (int(r["covered_us"]), int(r["n_islands"]))
        for r in res.output.to_pylist()
    }
    assert got == {1: (2 * HOLD, 2), 2: (HOLD, 1), 3: (HOLD, 1)}


def test_streaming_coverage_state_bounded(ray_session):
    """Dense repeated arrivals collapse: state islands stay at the merged
    island count, not the row count, even with a tiny compact threshold."""
    n = 2000
    k = np.zeros(n, np.int64)
    t = (np.arange(n, dtype=np.int64) % 40) * 10  # 40 points, all merging
    tbl = pa.table({"user_id": pa.array(k), "ts_us": pa.array(t)})
    res = run_streaming_coverage(
        ray.data.from_arrow(tbl),
        hold=HOLD,
        n_actors=2,
        micro_batch_rows=128,
        compact_rows=64,
    )
    assert res.output.num_rows == 1
    assert res.output["n_islands"][0].as_py() == 1
    stats = {s["state_islands"] for s in res.actor_stats if s["n_rows"]}
    assert stats == {1}


def test_streaming_coverage_checkpoint_kill_and_replay(ray_session, tmp_path):
    tbl = _stream(seed=11)
    want = _batch_twin(tbl)
    ck = str(tmp_path / "cov_ck")
    kw = dict(hold=HOLD, n_actors=3, micro_batch_rows=128, compact_rows=50)
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_coverage(
            ray.data.from_arrow(tbl),
            ckpt_dir=ck, checkpoint_every=2, _stop_after_batches=5, **kw
        )
    res = run_streaming_coverage(
        ray.data.from_arrow(tbl), ckpt_dir=ck, checkpoint_every=2, **kw
    )
    got = list(map(tuple, res.output.to_pandas().to_numpy()))
    assert got == want
    # restored n_rows rides the snapshot, so exact equality proves the
    # resume skipped the replayed prefix (re-ingesting it would double
    # count: checkpointed rows + full replay > num_rows)
    assert sum(s["n_rows"] for s in res.actor_stats) == tbl.num_rows


def test_streaming_coverage_config_mismatch_rejected(ray_session, tmp_path):
    tbl = _stream(seed=12)
    ck = str(tmp_path / "cov_ck2")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_coverage(
            ray.data.from_arrow(tbl), hold=HOLD, n_actors=2,
            micro_batch_rows=128, ckpt_dir=ck, checkpoint_every=1,
            _stop_after_batches=3,
        )
    with pytest.raises(RuntimeError, match="different coverage config"):
        run_streaming_coverage(
            ray.data.from_arrow(tbl), hold=HOLD + 1, n_actors=2,
            micro_batch_rows=128, ckpt_dir=ck,
        )
    with pytest.raises(RuntimeError, match="desynchronize"):
        run_streaming_coverage(
            ray.data.from_arrow(tbl), hold=HOLD, n_actors=3,
            micro_batch_rows=128, ckpt_dir=ck,
        )


def test_streaming_coverage_resume_rejects_changed_source(ray_session, tmp_path):
    """A checkpoint fingerprints its source: resuming over a log whose
    file changed would skip a prefix the restored state never absorbed."""
    import pyarrow.parquet as pq

    path = str(tmp_path / "log.parquet")
    pq.write_table(_stream(seed=13), path)
    ck = str(tmp_path / "cov_ck3")
    kw = dict(hold=HOLD, n_actors=2, micro_batch_rows=128, ckpt_dir=ck)
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_coverage(
            path, checkpoint_every=2, _stop_after_batches=5, **kw
        )
    pq.write_table(_stream(n=1200, seed=14), path)
    with pytest.raises(RuntimeError, match="different source"):
        run_streaming_coverage(path, **kw)
