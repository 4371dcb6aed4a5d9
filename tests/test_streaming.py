"""Incremental streaming engine: golden equality when nothing is late,
late-data side output, watermark-driven state eviction, sink integration
(FIXTURES.md fixture 6)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
    run_streaming,
    run_streaming_salted_partitioned,
)


def _log(table: pa.Table, d, chunk: int = 100) -> str:
    """``table`` as a log of ``chunk``-row files under ``d`` (same rows,
    same arrival order), the input shape of the multi-consumer engines."""
    os.makedirs(d, exist_ok=True)
    for i, s in enumerate(range(0, table.num_rows, chunk)):
        pq.write_table(table.slice(s, chunk), os.path.join(d, f"chunk-{i:04d}.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("stream") / "seq.parquet"
    # disorder 8 < allowed_lateness 16 -> no late rows possible
    synth.write_stream(str(p), 700, n_sources=3, n_tok_lo=48, n_tok_hi=160, disorder=8)
    return str(p)


@pytest.mark.parametrize(
    "cfg",
    [
        DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16),
        DEFAULT_CONFIG.with_(window_kind="sliding", window_size=32, window_slide=16, allowed_lateness=16),
        DEFAULT_CONFIG.with_(window_kind="session", session_gap=8, allowed_lateness=16),
        DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16,
                             detection_mode="sticky"),
    ],
    ids=["tumbling", "sliding", "session", "sticky"],
)
def test_streaming_matches_golden_when_nothing_late(ray_session, stream_path, cfg):
    table = pq.read_table(stream_path)
    expected = golden.golden_pipeline(table, cfg).sort_by("doc_id")
    res = run_streaming(stream_path, cfg, n_actors=3, micro_batch_rows=128)
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()


def test_salted_streaming_sticky_mode(ray_session, tmp_path):
    p = str(tmp_path / "sticky.parquet")
    synth.write_stream(p, 400, n_sources=2, n_tok_lo=48, n_tok_hi=128, disorder=8)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=32, allowed_lateness=16,
        detection_mode="sticky",
    )
    table = pq.read_table(p)
    expected = golden.golden_pipeline(table, cfg).sort_by("doc_id")
    res, _ = run_streaming_salted_partitioned(
        _log(table, tmp_path / "log"), cfg, n_actors=3, salt_buckets=2, n_partitions=2,
        micro_batch_rows=64,
    )
    got = res.output.sort_by("doc_id")
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()


def test_partitioned_streaming_matches_golden(ray_session, tmp_path):
    """Multi-consumer partitioned-log ingestion (the salted engine at its
    default salting): per-partition watermarks merged by the tracker,
    golden-equal output, per-partition metrics."""
    import os


    d = tmp_path / "parts"
    d.mkdir()
    # 6 time-ordered file chunks (chunk-deterministic generator)
    for s in range(0, 600, 100):
        t = synth.generate_stream(100, start_row=s, n_sources=3, n_tok_lo=48, n_tok_hi=128, disorder=8)
        import pyarrow.parquet as pq_

        pq_.write_table(t, str(d / f"chunk-{s:06d}.parquet"))
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)
    full = pa.concat_tables(
        [pq.read_table(str(d / f)) for f in sorted(os.listdir(d))]
    )
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    res, metrics = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, n_partitions=3, micro_batch_rows=64
    )
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert len(metrics) == 3
    assert sum(m["rows"] for m in metrics) == 600
    assert all(m["rows_per_sec"] > 0 for m in metrics)


def test_late_rows_routed_not_dropped(ray_session, tmp_path):
    # heavy disorder + zero lateness -> some rows arrive after their window closed
    p = str(tmp_path / "late.parquet")
    synth.write_stream(p, 600, n_sources=2, n_tok_lo=48, n_tok_hi=96, disorder=64)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16, allowed_lateness=0)
    res = run_streaming(p, cfg, n_actors=2, micro_batch_rows=64)
    assert res.n_late > 0
    assert res.late is not None and res.late.num_rows == res.n_late
    inp = pq.read_table(p)
    got_ids = sorted(res.output["doc_id"].to_pylist() + res.late["doc_id"].to_pylist())
    assert got_ids == sorted(inp["doc_id"].to_pylist())  # partition, no loss
    # late rows pass through with original tokens
    late_ids = set(res.late["doc_id"].to_pylist())
    orig = {i: t for i, t in zip(inp["doc_id"].to_pylist(), inp["tokens"].to_pylist())}
    for i, t in zip(res.late["doc_id"].to_pylist(), res.late["tokens"].to_pylist()):
        assert t == orig[i], i
    assert late_ids.isdisjoint(set(res.output["doc_id"].to_pylist()))


def test_state_evicted_after_watermark(ray_session, stream_path):
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)
    res = run_streaming(stream_path, cfg, n_actors=3, micro_batch_rows=128)
    for s in res.actor_stats:
        assert s["live_windows"] == 0
        assert s["buffered_rows"] == 0
        assert s["live_hists"] == 0


def test_partitioned_sink_mode_golden_and_replay(ray_session, tmp_path):
    """Multi-consumer streaming in sink-direct mode: rewritten rows
    never ride the driver (output is None), the committed layout equals the
    golden pipeline, and a kill-and-replay resume is byte-identical to an
    uninterrupted run."""
    import os

    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        committed_partitions,
        read_output,
        write_exactly_once,
    )

    d = tmp_path / "parts"
    d.mkdir()
    for s in range(0, 600, 100):
        t = synth.generate_stream(100, start_row=s, n_sources=3, n_tok_lo=48, n_tok_hi=128, disorder=8)
        pq.write_table(t, str(d / f"chunk-{s:06d}.parquet"))
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)

    clean = str(tmp_path / "clean")
    res, metrics = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, n_partitions=3, micro_batch_rows=64,
        out_dir=clean, num_partitions=6,
    )
    assert res.output is None and res.out_dir == clean
    assert res.commit_report is not None and res.commit_report.num_rows > 0
    assert len(metrics) == 3 and sum(m["rows"] for m in metrics) == 600

    def collect(out):
        return pa.concat_tables(
            [pa.table(b) for b in read_output(out).iter_batches(batch_format="pyarrow")]
        ).sort_by("doc_id")

    full = pa.concat_tables([pq.read_table(str(d / f)) for f in sorted(os.listdir(d))])
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    got = collect(clean)
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()

    # crashed attempt: same result rows, sink dies before partition 1
    crash = str(tmp_path / "crash")
    res_mem, _ = run_streaming_salted_partitioned(str(d), cfg, n_actors=3, n_partitions=3, micro_batch_rows=64)
    with pytest.raises(Exception):
        write_exactly_once(
            ray.data.from_arrow(res_mem.output), crash, num_partitions=6,
            fail_partitions=frozenset({1}),
        )
    assert 1 not in committed_partitions(crash)
    # resume through the multi-consumer sink path: replay drops committed parts
    run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, n_partitions=3, micro_batch_rows=64,
        out_dir=crash, num_partitions=6,
    )
    assert committed_partitions(crash) == set(range(6))
    assert collect(crash).equals(collect(clean))


def test_late_rows_staged_to_side_output_in_sink_mode(ray_session, tmp_path):
    """SURVEY §2.9 late side output as a SINK: with a sink dir, late rows
    land committed under <out_dir>/_late (counted, not dropped, not held in
    actor memory), and main + late partitions the input exactly."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_late,
        read_output,
    )

    p = str(tmp_path / "late.parquet")
    synth.write_stream(p, 600, n_sources=2, n_tok_lo=48, n_tok_hi=96, disorder=64)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16, allowed_lateness=0)
    out_dir = str(tmp_path / "out")
    res = run_streaming(p, cfg, n_actors=2, micro_batch_rows=64, out_dir=out_dir)
    assert res.n_late > 0
    assert res.late is None  # not driver-collected in sink mode
    assert res.late_report is not None and res.late_report.num_rows > 0
    late = pa.concat_tables(
        [pa.table(b) for b in read_late(out_dir).iter_batches(batch_format="pyarrow")]
    )
    assert late.num_rows == res.n_late
    main = pa.concat_tables(
        [pa.table(b) for b in read_output(out_dir).iter_batches(batch_format="pyarrow")]
    )
    inp = pq.read_table(p)
    got_ids = sorted(main["doc_id"].to_pylist() + late["doc_id"].to_pylist())
    assert got_ids == sorted(inp["doc_id"].to_pylist())
    # late rows pass through with original tokens
    orig = {i: t for i, t in zip(inp["doc_id"].to_pylist(), inp["tokens"].to_pylist())}
    for i, t in zip(late["doc_id"].to_pylist(), late["tokens"].to_pylist()):
        assert t == orig[i], i


def test_late_actor_buffer_stays_bounded(ray_session, tmp_path):
    """The actor's late buffer is O(stage threshold), never O(stream): with
    a tiny stage threshold, repeated late batches spill to the staged layout
    instead of accumulating in actor memory."""
    import os

    from pdf_watermark_removal_otsu_inpaint_ray.state.keyed_state import KeyedStateActor

    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16, allowed_lateness=0)
    out_dir = str(tmp_path / "out")
    os.makedirs(out_dir, exist_ok=True)
    actor = KeyedStateActor.remote(cfg, sink_dir=out_dir, sink_stage_rows=50)
    t = synth.generate_stream(40, n_sources=1, n_tok_lo=8, n_tok_hi=16, disorder=0)
    # watermark far in the future -> every row is late
    import ray as _ray

    for _ in range(10):
        _ray.get(actor.ingest.remote(t, 1 << 40))
    assert _ray.get(actor.late_buffer_rows.remote()) < 100  # < 2x threshold
    staged = os.path.join(out_dir, "_late", "_staged")
    assert os.path.isdir(staged) and len(os.listdir(staged)) > 0
    assert _ray.get(actor.state_stats.remote())["n_late"] == 400


def test_streaming_with_exactly_once_sink(ray_session, stream_path, tmp_path):
    """Sink mode: finalized windows are staged DIRECTLY by the state actors
    (result.output is None — no driver-side concat of the rewritten stream);
    reading back the committed partitions equals the golden pipeline."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output

    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)
    out_dir = str(tmp_path / "out")
    res = run_streaming(stream_path, cfg, n_actors=2, micro_batch_rows=128, out_dir=out_dir)
    assert res.output is None and res.out_dir == out_dir
    assert res.commit_report is not None and res.commit_report.num_rows > 0
    got = pa.concat_tables(
        [pa.table(b) for b in read_output(out_dir).iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    expected = golden.golden_pipeline(pq.read_table(stream_path), cfg).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()


def test_salted_session_windows_match_golden(ray_session, tmp_path):
    """Session windows under hot-key salting: the salted aggregator
    gap-merges the actors' session fragments (associative interval merge);
    output equals the per-source golden gap-merge, state is fully evicted,
    and the sink-direct run commits the same rows."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output

    p = str(tmp_path / "hot.parquet")
    synth.write_stream(p, 500, n_sources=1, disorder=6, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=5, allowed_lateness=16)
    table = pq.read_table(p)
    expected = golden.golden_pipeline(table, cfg).sort_by("doc_id")
    src = _log(table, tmp_path / "log")
    res, _ = run_streaming_salted_partitioned(
        src, cfg, n_actors=4, salt_buckets=4, n_partitions=3, micro_batch_rows=64
    )
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
    assert sum(1 for s in res.actor_stats if s["n_emitted"] > 0) >= 2  # truly salted
    for s in res.actor_stats:
        assert s["buffered_rows"] == 0  # state evicted

    out_dir = str(tmp_path / "sink")
    res2, _ = run_streaming_salted_partitioned(
        src, cfg, n_actors=4, salt_buckets=4, n_partitions=3, micro_batch_rows=64,
        out_dir=out_dir,
    )
    assert res2.output is None
    got2 = pa.concat_tables(
        [pa.table(b) for b in read_output(out_dir).iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    assert got2["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got2["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_salted_session_late_rows_counted(ray_session, tmp_path):
    """Salted session path: rows behind a source's closed-session horizon
    are routed to the late output (counted, not dropped, not emitted).  The
    log ends with a chunk of rows carrying the stream's first timestamps,
    long after their sessions closed; with one consumer the aggregator's
    close of those sessions provably reaches every actor first (the
    consumer awaits each batch's ``add``, which runs after the
    ``maybe_finalize`` sent before it), so they are late."""
    table = synth.generate_stream(800, n_sources=4, disorder=4, rows_per_ts=1)
    head = table.slice(0, 60)
    tail = head.set_column(
        head.schema.get_field_index("doc_id"), "doc_id",
        pa.array([f"late-{d}" for d in head["doc_id"].to_pylist()]),
    )
    inp = pa.concat_tables([table, tail])
    src = _log(inp, tmp_path / "log", chunk=80)
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=2, allowed_lateness=8)
    for n_partitions in (1, 2):
        res, _ = run_streaming_salted_partitioned(
            src, cfg, n_actors=3, salt_buckets=2, n_partitions=n_partitions,
            micro_batch_rows=16,
        )
        if n_partitions == 1:
            assert res.n_late > 0
        late_ids = res.late["doc_id"].to_pylist() if res.n_late else []
        assert len(late_ids) == res.n_late
        assert all(d.startswith("late-") for d in late_ids)
        got_ids = res.output["doc_id"].to_pylist() + late_ids
        assert sorted(got_ids) == sorted(inp["doc_id"].to_pylist())  # once each
        assert all(s["buffered_rows"] == 0 for s in res.actor_stats)



def test_partitioned_metrics_include_wm_lag(ray_session, tmp_path):
    """Per-partition metrics carry the north star's watermark-lag numbers
    (partition event-time frontier minus global watermark at observation)."""

    d = tmp_path / "parts"
    d.mkdir()
    for s in range(0, 1200, 100):
        pq.write_table(
            synth.generate_stream(100, start_row=s, n_sources=3, disorder=8),
            str(d / f"c{s:06d}.parquet"),
        )
    # small micro-batches so the in-flight window forces ack-gated tracker
    # updates mid-stream (a live global watermark becomes observable)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)
    _res, metrics = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=2, n_partitions=2, micro_batch_rows=16
    )
    assert all("wm_lag_max" in m and "wm_lag_avg" in m for m in metrics)
    observed = [m for m in metrics if m["wm_lag_max"] is not None]
    assert observed, metrics  # at least one partition observed a live watermark
    for m in observed:
        assert m["wm_lag_max"] >= 0  # frontier never behind the global min-watermark


def test_salted_sticky_gap_window_not_retroactive(ray_session, tmp_path):
    """Review finding: with sliding windows whose slide EXCEEDS their size,
    a row in the inter-window gap buffers under its governing window but
    contributes to no histogram; if that window precedes the source's first
    DETECTING window, the salted leftover flush must emit it with its own
    failed detection (-1) — never the later sticky token retroactively
    (matching the unsalted `key[1] >= st[1]` guard and golden.apply_sticky)."""
    cfg = DEFAULT_CONFIG.with_(
        window_kind="sliding", window_size=16, window_slide=32,
        allowed_lateness=4, detection_mode="sticky",
    )
    wm_tok = 170  # candidate band, outside the skip-text-protect range
    bg = 252      # > background_threshold -> protected background

    def row(i, ts, with_wm):
        g = np.full(128, bg, dtype=np.int32)
        g[8:20] = 40  # a content run (text-protected)
        if with_wm:
            g[40:56] = wm_tok  # 16/128 = 12.5% coverage, inside [1, 20]%
        return (f"s0-doc{i:04d}", g.tolist(), 128, "s0", ts)

    rows = [row(0, 20, True)]  # gap row: governing window 0 covers [0,16)
    rows += [row(1 + k, 32 + 2 * k, True) for k in range(8)]  # window 1 detects
    table = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "tokens": pa.array([r[1] for r in rows], pa.list_(pa.int32())),
            "n_tok": pa.array([r[2] for r in rows], pa.int32()),
            "source": pa.array([r[3] for r in rows], pa.string()),
            "event_ts": pa.array([r[4] for r in rows], pa.int64()),
        }
    )
    p = str(tmp_path / "gap.parquet")
    pq.write_table(table, p)

    expected = golden.golden_pipeline(table, cfg).sort_by("doc_id")
    exp_by_id = dict(zip(expected["doc_id"].to_pylist(), expected["wm_token"].to_pylist()))
    # the construction really exercises the scenario: window 1 detects, the
    # gap row's window 0 does not
    assert exp_by_id["s0-doc0001"] == wm_tok
    assert exp_by_id["s0-doc0000"] == -1

    for runner in (
        lambda: run_streaming(p, cfg, n_actors=3, micro_batch_rows=4),
        lambda: run_streaming_salted_partitioned(
            _log(table, tmp_path / "log", chunk=3), cfg, n_actors=3, salt_buckets=2,
            n_partitions=2, micro_batch_rows=4,
        )[0],
    ):
        res = runner()
        got = res.output.sort_by("doc_id")
        assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
        assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
        assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_run_metrics_persist_with_manifests(ray_session, tmp_path):
    """North-star metrics contract: a sink-mode run writes its per-actor
    state stats (and, multi-consumer, per-partition throughput + watermark
    lag) beside the lineage manifests."""
    import json
    import os

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG

    import pyarrow.parquet as pq_

    stream = str(tmp_path / "s")
    os.makedirs(stream)
    for start, name in ((0, "a"), (1500, "b")):
        t = synth.generate_stream(1500, start_row=start, n_sources=4, disorder=4)
        pq_.write_table(t, f"{stream}/{name}.parquet")
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=64, allowed_lateness=16)
    out = str(tmp_path / "out")
    _res, metrics = run_streaming_salted_partitioned(
        stream, cfg, n_actors=2, n_partitions=2, micro_batch_rows=256,
        out_dir=out, num_partitions=4,
    )
    with open(os.path.join(out, "_manifests", "run_metrics.json")) as f:
        m = json.load(f)
    assert len(m["actor_stats"]) == 2
    assert len(m["consumer_metrics"]) == 2
    for cm in m["consumer_metrics"]:
        assert "rows_per_sec" in cm and "wm_lag_max" in cm
    assert m["n_late"] == sum(s["n_late"] for s in m["actor_stats"])
