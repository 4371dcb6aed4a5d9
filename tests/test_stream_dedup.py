"""Streaming duplicate suppression (state/dedup_state.py +
pipelines/stream_dedup.py): event-time determinism vs the serial twin,
TTL chain semantics, late routing, layout invariance, sink mode."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_dedup import (
    run_streaming_dedup,
)
from pdf_watermark_removal_otsu_inpaint_ray.state.dedup_state import (
    serial_dedup_mask,
)


def _replay_stream(n_docs=400):
    """At-least-once source: each doc retried 1-3 times at ts offsets
    (0, 5, 17); arrival order = seq order, disorder bounded by 17."""
    seq, ids, ts = [], [], []
    for d in range(n_docs):
        for k, off in enumerate((0, 5, 17)[: 1 + d % 3]):
            seq.append(d * 4 + k)
            ids.append(1_000_003 * (d % 97) + d // 97)  # some id collisions
            ts.append(d // 4 + off)
    return pa.table(
        {
            "doc_id": pa.array(seq, pa.int64()),
            "dedup_id": pa.array(ids, pa.int64()),
            "event_ts": pa.array(ts, pa.int64()),
        }
    )


def _serial_kept(tbl: pa.Table, horizon):
    keep = serial_dedup_mask(
        np.asarray(tbl["dedup_id"], np.int64),
        np.asarray(tbl["event_ts"], np.int64),
        np.asarray(tbl["doc_id"], np.int64),
        horizon,
    )
    return sorted(np.asarray(tbl["doc_id"], np.int64)[keep].tolist())


@pytest.mark.parametrize("horizon", [None, 8])
def test_dedup_matches_serial_twin(ray_session, horizon, tmp_path):
    tbl = _replay_stream()
    path = str(tmp_path / "stream.parquet")
    pq.write_table(tbl, path)
    res = run_streaming_dedup(
        path, horizon=horizon, allowed_lateness=24,
        n_actors=3, micro_batch_rows=64,
    )
    assert res.n_late == 0
    got = sorted(np.asarray(res.output["doc_id"], np.int64).tolist())
    assert got == _serial_kept(tbl, horizon)
    stats = res.actor_stats
    assert sum(s["n_kept"] for s in stats) == len(got)
    assert sum(s["n_kept"] + s["n_dup"] for s in stats) == tbl.num_rows


def test_dedup_layout_invariance(ray_session, tmp_path):
    tbl = _replay_stream(200)
    path = str(tmp_path / "s.parquet")
    pq.write_table(tbl, path)
    outs = []
    for n_actors, mb in ((1, 512), (4, 37)):
        res = run_streaming_dedup(
            path, horizon=8, allowed_lateness=24,
            n_actors=n_actors, micro_batch_rows=mb,
        )
        outs.append(sorted(np.asarray(res.output["doc_id"], np.int64).tolist()))
    assert outs[0] == outs[1] == _serial_kept(tbl, 8)


def test_dedup_ttl_chain(ray_session, tmp_path):
    # one identity at ts 0, 5, 17, 20 with horizon 8:
    # keep@0, dup@5 (<=8), keep@17 (>0+8, chain restarts), dup@20 (<=17+8)
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "dedup_id": pa.array([42, 42, 42, 42], pa.int64()),
            "event_ts": pa.array([0, 5, 17, 20], pa.int64()),
        }
    )
    path = str(tmp_path / "c.parquet")
    pq.write_table(tbl, path)
    res = run_streaming_dedup(path, horizon=8, n_actors=1)
    assert np.asarray(res.output["doc_id"], np.int64).tolist() == [0, 2]
    assert res.actor_stats[0]["n_dup"] == 2


def test_dedup_state_eviction_bounded(ray_session, tmp_path):
    # ts advances steadily; with a finite horizon the identity state must
    # stay bounded by the ids active inside one horizon, not by the stream
    n = 2000
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "dedup_id": pa.array(np.arange(n), pa.int64()),  # all distinct
            "event_ts": pa.array(np.arange(n) // 2, pa.int64()),
        }
    )
    path = str(tmp_path / "e.parquet")
    pq.write_table(tbl, path)
    res = run_streaming_dedup(
        path, horizon=16, allowed_lateness=4, n_actors=1,
        micro_batch_rows=128,
    )
    assert res.output.num_rows == n  # all distinct → all kept
    # horizon 16 x 2 rows/ts + slack: far below the 2000 ids ever seen
    assert res.actor_stats[0]["state_ids"] <= 200


def test_dedup_late_routing(ray_session, tmp_path):
    tbl = _replay_stream(200)
    path = str(tmp_path / "l.parquet")
    pq.write_table(tbl, path)
    res = run_streaming_dedup(
        path, horizon=None, allowed_lateness=0,
        n_actors=2, micro_batch_rows=32,
    )
    assert res.n_late > 0
    assert res.late is not None and res.late.num_rows == res.n_late
    stats_total = sum(
        s["n_kept"] + s["n_dup"] + s["n_late"] for s in res.actor_stats
    )
    assert stats_total == tbl.num_rows
    # a late row is never also emitted
    emitted = set(np.asarray(res.output["doc_id"], np.int64).tolist())
    late_ids = set(np.asarray(res.late["doc_id"], np.int64).tolist())
    assert not (emitted & late_ids)


def test_dedup_sink_mode_equals_driver_mode(ray_session, tmp_path):
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _replay_stream(300)
    path = str(tmp_path / "sk.parquet")
    pq.write_table(tbl, path)
    driver = run_streaming_dedup(
        path, horizon=8, allowed_lateness=24, n_actors=2
    )
    out_dir = str(tmp_path / "sink")
    sink = run_streaming_dedup(
        path, horizon=8, allowed_lateness=24, n_actors=2, out_dir=out_dir
    )
    assert sink.output is None
    got = (
        read_output(out_dir)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    cols = sorted(c for c in got.columns if c != "part")
    want = driver.output.select(cols).to_pandas()
    assert got[cols].equals(want)


def test_dedup_checkpoint_kill_and_replay(ray_session, tmp_path):
    """Checkpointed sink-mode streaming dedup: kill after a checkpoint,
    resume, byte-identical commit (identity state + pending undecided
    rows ride the snapshot, so no duplicate is re-admitted and no kept
    row is lost)."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.checkpoint import (
        latest_checkpoint,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _replay_stream(400)
    path = str(tmp_path / "log.parquet")
    pq.write_table(tbl, path)
    kw = dict(horizon=8, allowed_lateness=24, n_actors=2, micro_batch_rows=64)

    clean_dir = str(tmp_path / "clean")
    run_streaming_dedup(path, out_dir=clean_dir, **kw)
    want = (
        read_output(clean_dir).to_pandas().sort_values("doc_id", ignore_index=True)
    )

    ck_dir = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_dedup(
            path, out_dir=ck_dir, checkpoint_every=3, _stop_after_batches=7, **kw
        )
    assert latest_checkpoint(ck_dir) is not None
    run_streaming_dedup(path, out_dir=ck_dir, checkpoint_every=3, **kw)
    got = read_output(ck_dir).to_pandas().sort_values("doc_id", ignore_index=True)
    assert got.equals(want)
    assert latest_checkpoint(ck_dir) is None


def test_dedup_resume_adopts_pinned_partition_count(ray_session, tmp_path):
    """A checkpoint resume with no partition count adopts the count pinned
    in the sink (7 here, not the cluster-scaled default) and commits the
    same 7-partition layout as an uninterrupted run."""
    import json
    import os

    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        committed_partitions,
        read_output,
    )

    def layout(d):
        with open(os.path.join(d, "_manifests", "_layout.json")) as f:
            return json.load(f)["num_partitions"]

    tbl = _replay_stream(400)
    path = str(tmp_path / "log.parquet")
    pq.write_table(tbl, path)
    kw = dict(horizon=8, allowed_lateness=24, n_actors=2, micro_batch_rows=64)

    clean_dir = str(tmp_path / "clean")
    run_streaming_dedup(path, out_dir=clean_dir, num_partitions=7, **kw)

    ck_dir = str(tmp_path / "ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_dedup(
            path, out_dir=ck_dir, num_partitions=7, checkpoint_every=3,
            _stop_after_batches=10, **kw,
        )
    assert layout(ck_dir) == 7  # rows were staged before the crash
    run_streaming_dedup(path, out_dir=ck_dir, checkpoint_every=3, **kw)
    assert layout(ck_dir) == 7
    assert committed_partitions(ck_dir) == committed_partitions(clean_dir)
    got = read_output(ck_dir).to_pandas().sort_values("doc_id", ignore_index=True)
    want = read_output(clean_dir).to_pandas().sort_values("doc_id", ignore_index=True)
    assert got.equals(want)
