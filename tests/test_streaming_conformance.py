"""Randomized cross-variant conformance: for random (window kind, sizes,
disorder <= lateness, source counts) configurations, every streaming
variant — single-consumer, partitioned-log, hot-key-salted multi-consumer
— must reproduce the batch golden byte-for-byte.  Complements the
fixed-config golden tests with sampled coverage of the config space."""

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG


def _salted(p, cfg, *, n_partitions=2, chunk=100, **kw):
    """The salted multi-consumer engine over the stream at ``p``, re-cut
    into a log of ``chunk``-row files (same rows, same arrival order) read
    by ``n_partitions`` consumers."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
        run_streaming_salted_partitioned,
    )

    t = pq.read_table(p)
    d = os.path.splitext(p)[0] + "_log"
    os.makedirs(d, exist_ok=True)
    for i, s in enumerate(range(0, t.num_rows, chunk)):
        pq.write_table(t.slice(s, chunk), os.path.join(d, f"chunk-{i:04d}.parquet"))
    res, metrics = run_streaming_salted_partitioned(d, cfg, n_partitions=n_partitions, **kw)
    assert len(metrics) == n_partitions
    return res

CASES = [
    # (seed, kind, n_sources, disorder, kwargs)
    (1, "tumbling", 1, 3, dict(window_size=16)),
    (2, "tumbling", 5, 12, dict(window_size=48)),
    (3, "sliding", 3, 6, dict(window_size=32, window_slide=8)),
    (4, "sliding", 2, 10, dict(window_size=24, window_slide=12)),
    (5, "session", 4, 5, dict(session_gap=3)),
    (6, "session", 1, 9, dict(session_gap=11)),
    # sticky detection (first window wins per source) must also conform in
    # every variant — the single-consumer engine keeps it actor-local,
    # salted mode keeps it in the aggregator
    (7, "tumbling", 4, 6, dict(window_size=24, detection_mode="sticky")),
    (8, "session", 3, 4, dict(session_gap=5, detection_mode="sticky")),
    (9, "global", 3, 6, dict()),
    (10, "global", 3, 6, dict(detection_mode="sticky")),
]


@pytest.mark.parametrize("seed,kind,n_sources,disorder,kw", CASES)
def test_streaming_variants_conform_to_golden(ray_session, tmp_path, seed, kind, n_sources, disorder, kw):
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
        run_streaming,
        run_streaming_salted_partitioned,
    )

    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 500))
    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, n, n_sources=n_sources, n_tok_lo=32, n_tok_hi=96,
                       disorder=disorder, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind=kind, allowed_lateness=disorder + 2, **kw)
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")

    def check(res, label):
        assert res.n_late == 0, (label, res.n_late)
        got = res.output.sort_by("doc_id")
        assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist(), label
        assert got["tokens"].to_pylist() == expected["tokens"].to_pylist(), label
        assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist(), label

    check(run_streaming(p, cfg, n_actors=3, micro_batch_rows=int(rng.integers(40, 150))),
          "single")
    check(_salted(p, cfg, n_partitions=2 + seed % 2, n_actors=3, salt_buckets=2,
                  micro_batch_rows=int(rng.integers(40, 150))),
          "salted")
    # one salt bucket: every row of a source meets the same state actor,
    # and the aggregator still decides every window kind
    res, _m = run_streaming_salted_partitioned(
        p, cfg, n_actors=3, salt_buckets=1, n_partitions=1,
        micro_batch_rows=int(rng.integers(40, 150)),
    )
    check(res, "salted, one bucket")


def test_partitioned_session_windows_multi_consumer(ray_session, tmp_path):
    """Session windows under PARALLEL partitioned-log consumers: the
    aggregator gap-merges each source's fragments across actors, the
    min-watermark gates session closure across consumer skew —
    golden-equal."""
    import os

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
        run_streaming_salted_partitioned,
    )

    d = tmp_path / "parts"
    d.mkdir()
    for s in range(0, 600, 100):
        pq.write_table(
            synth.generate_stream(100, start_row=s, n_sources=3, disorder=6, rows_per_ts=1),
            str(d / f"c{s:06d}.parquet"),
        )
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=4, allowed_lateness=10)
    full = pa.concat_tables([pq.read_table(str(d / f)) for f in sorted(os.listdir(d))])
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    res, metrics = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, n_partitions=3, micro_batch_rows=48
    )
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
    assert len(metrics) == 3


def test_salted_sessions_maximal_skew(ray_session, tmp_path):
    """Maximal skew for session windows: ONE source carries the whole
    stream, salted over 4 actors and read by 3 consumers.  The aggregator
    gap-merges the actors' fragments into the golden sessions, at least two
    actors emit rows of the one source, and no row stays buffered."""
    p = str(tmp_path / "hot.parquet")
    synth.write_stream(p, 600, n_sources=1, disorder=6, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=1, allowed_lateness=8)
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")
    res = _salted(p, cfg, n_partitions=3, n_actors=4, salt_buckets=4, micro_batch_rows=48)
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
    assert sum(1 for s in res.actor_stats if s["n_emitted"] > 0) >= 2
    assert all(s["buffered_rows"] == 0 for s in res.actor_stats)


def _mk_rows(specs):
    """specs: list of (doc_id, ts, tokens list) -> stream table."""
    return pa.table(
        {
            "doc_id": pa.array([s[0] for s in specs], pa.string()),
            "tokens": pa.array([s[2] for s in specs], pa.list_(pa.int32())),
            "n_tok": pa.array([len(s[2]) for s in specs], pa.int32()),
            "source": pa.array(["s"] * len(specs), pa.string()),
            "event_ts": pa.array([s[1] for s in specs], pa.int64()),
        }
    )


def test_sticky_sliding_detects_on_contributing_windows(ray_session, tmp_path):
    """Regression (review finding): in sticky+sliding mode a window that
    only ever CONTRIBUTED rows (never governed any) can carry the source's
    FIRST detection; streaming must scan all due window hists ascending,
    not just buffered ones, to fix the same sticky token as golden."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

    rows = []
    for i, ts in enumerate(range(24, 32)):  # governing w3; contribute to w0..w3
        rows.append((f"a{i:02d}", ts, [120] * 10 + [30] * 90))
    for i, ts in enumerate(range(48, 56)):  # governing w6
        rows.append((f"b{i:02d}", ts, [200] * 15 + [30] * 85))
    t = _mk_rows(rows)
    p = str(tmp_path / "s.parquet")
    pq.write_table(t, p)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="sliding", window_size=32, window_slide=8,
        allowed_lateness=4, detection_mode="sticky",
    )
    expected = golden.golden_pipeline(t, cfg).sort_by("doc_id")
    res = run_streaming(p, cfg, n_actors=1, micro_batch_rows=4)
    got = res.output.sort_by("doc_id")
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


@pytest.mark.parametrize("kind,kw", [
    ("tumbling", dict(window_size=24)),
    ("session", dict(session_gap=4)),
])
def test_fixed_wm_token_streaming_matches_golden(ray_session, tmp_path, kind, kw):
    """Regression (review finding): cfg.fixed_wm_token must skip detection
    in EVERY streaming variant, exactly like golden/flagship (M15)."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 300, n_sources=2, disorder=4, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind=kind, allowed_lateness=8,
                               fixed_wm_token=150, **kw)
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")
    assert set(expected["wm_token"].to_pylist()) == {150}
    for runner, label in ((run_streaming, "single"), (_salted, "salted")):
        res = runner(p, cfg, n_actors=3, micro_batch_rows=64)
        got = res.output.sort_by("doc_id")
        assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist(), label
        assert got["tokens"].to_pylist() == expected["tokens"].to_pylist(), label


def test_sticky_sessions_streaming_matches_golden(ray_session, tmp_path):
    """Regression (review finding): sticky mode applies across SESSION
    windows (first detected session fixes the source's token), in both the
    unsalted actor path and the salted aggregator path."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 400, n_sources=3, disorder=4, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=5,
                               allowed_lateness=8, detection_mode="sticky")
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")
    for runner, label in ((run_streaming, "single"), (_salted, "salted")):
        res = runner(p, cfg, n_actors=3, micro_batch_rows=64)
        got = res.output.sort_by("doc_id")
        assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist(), label
        assert got["tokens"].to_pylist() == expected["tokens"].to_pylist(), label


def test_global_window_streaming_matches_golden(ray_session, tmp_path):
    """Regression (review finding): window_kind='global' (a documented
    config golden/flagship support) now runs in the streaming engine —
    one all-stream window per source, finalized at end-of-stream flush."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
        run_streaming,
        run_streaming_salted_partitioned,
    )

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 300, n_sources=3, disorder=6, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind="global", allowed_lateness=8)
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")
    res = run_streaming(p, cfg, n_actors=2, micro_batch_rows=64)
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
    res2, _m = run_streaming_salted_partitioned(p, cfg, n_actors=2, n_partitions=1,
                                                micro_batch_rows=64)
    got2 = res2.output.sort_by("doc_id")
    assert got2["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_sticky_first_detection_is_not_retroactive(ray_session, tmp_path):
    """Regression (review finding, confirmed repro): when a source's window
    0 FAILS detection and window 1 detects, and both finalize in the same
    watermark advance (e.g. at flush), golden.apply_sticky fixes the token
    from window 1 ONWARD only — window 0 must stay passthrough (-1), not be
    retroactively rewritten with window 1's token."""
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

    rows = []
    for i, ts in enumerate(range(0, 8)):  # window 0: all-dark, no qualifying bin
        rows.append((f"a{i:02d}", ts, [30] * 100))
    for i, ts in enumerate(range(8, 16)):  # window 1: 10% @ gray 150 -> detects
        rows.append((f"b{i:02d}", ts, [150] * 10 + [30] * 90))
    t = _mk_rows(rows)
    p = str(tmp_path / "s.parquet")
    pq.write_table(t, p)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=8, allowed_lateness=64,
        detection_mode="sticky",
    )
    expected = golden.golden_pipeline(t, cfg).sort_by("doc_id")
    # golden: window 0 rows passthrough (-1), window 1 rows carry 150
    exp_by_doc = dict(zip(expected["doc_id"].to_pylist(), expected["wm_token"].to_pylist()))
    assert exp_by_doc["a00"] == -1 and exp_by_doc["b00"] == 150
    for runner, label in (
        (run_streaming, "incremental"), (functools.partial(_salted, chunk=4), "salted"),
    ):
        res = runner(p, cfg, n_actors=2, micro_batch_rows=4)
        got = res.output.sort_by("doc_id")
        assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist(), label
        assert got["tokens"].to_pylist() == expected["tokens"].to_pylist(), label
