"""Multi-consumer salted streaming (pipelines/streaming.py::
run_streaming_salted_partitioned) — the scale path past the keyed
hot-source ceiling: parallel log consumers + salted state actors + a
_SaltedAggregator actor holding the global histogram merge.

Contract under test (same as every streaming tier): with
allowed_lateness >= disorder, output is byte-equal to the serial golden
pipeline for any layout / actor count / salt config; under heavier
disorder, row conservation (emitted + late == input, no duplicates).
Reference analog: the per-page sequential loop of
/root/reference/src/pdf_watermark_removal/cli.py recast as a skew-proof
parallel ingestion topology."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
    run_streaming_salted_partitioned,
)


def _chunked_stream(d, n, *, n_sources, chunk=100, disorder=8, **kw):
    d.mkdir(exist_ok=True)
    for s in range(0, n, chunk):
        t = synth.generate_stream(
            min(chunk, n - s), start_row=s, n_sources=n_sources,
            n_tok_lo=48, n_tok_hi=128, disorder=disorder, **kw,
        )
        pq.write_table(t, str(d / f"chunk-{s:06d}.parquet"))
    return pa.concat_tables(
        [pq.read_table(str(d / f)) for f in sorted(os.listdir(d))]
    )


def test_salted_mc_matches_golden_hot_source(ray_session, tmp_path):
    """Maximal skew (one source = the whole stream) across 3 consumers x
    4 actors: golden-equal output AND the hot source's work really spread
    over several actors — the property the keyed engines cannot have."""
    d = tmp_path / "mc_hot"
    full = _chunked_stream(d, 600, n_sources=1)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=32, allowed_lateness=16
    )
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    res, metrics = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=4, salt_buckets=4, n_partitions=3,
        micro_batch_rows=64,
    )
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()
    spread = sum(1 for s in res.actor_stats if s["n_emitted"] > 0)
    assert spread >= 2
    assert len(metrics) == 3 and sum(m["rows"] for m in metrics) == 600


@pytest.mark.parametrize(
    "kind,mode,na,sb,np_,mb",
    [
        ("tumbling", "windowed", 2, 2, 2, 100),
        ("tumbling", "sticky", 3, 2, 2, 64),
        ("sliding", "windowed", 3, 3, 3, 80),
    ],
)
def test_salted_mc_matches_golden_configs(
    ray_session, tmp_path, kind, mode, na, sb, np_, mb
):
    d = tmp_path / f"mc_{kind}_{mode}_{na}_{np_}"
    full = _chunked_stream(d, 500, n_sources=3)
    cfg = DEFAULT_CONFIG.with_(
        window_kind=kind, window_size=32, window_slide=16,
        allowed_lateness=16, detection_mode=mode,
    )
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    res, _ = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=na, salt_buckets=sb, n_partitions=np_,
        micro_batch_rows=mb,
    )
    assert res.n_late == 0
    got = res.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
    assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()


def test_salted_mc_conservation_under_disorder(ray_session, tmp_path):
    """Heavy disorder + short lateness: rows may route late or emit
    unrewritten via the leftover path (documented), but every input row
    appears exactly once across output + late."""
    d = tmp_path / "mc_late"
    full = _chunked_stream(d, 500, n_sources=2, disorder=64)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=16, allowed_lateness=0
    )
    res, _ = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, salt_buckets=2, n_partitions=2,
        micro_batch_rows=64,
    )
    out_ids = res.output["doc_id"].to_pylist()
    late_ids = res.late["doc_id"].to_pylist() if res.late is not None else []
    assert sorted(out_ids + late_ids) == sorted(full["doc_id"].to_pylist())
    assert len(set(out_ids) & set(late_ids)) == 0


def test_salted_mc_sink_mode(ray_session, tmp_path):
    """Sink-direct exactly-once output: committed rows equal the
    driver-collect run's rows (read back via read_output) and golden."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    d = tmp_path / "mc_sink_src"
    full = _chunked_stream(d, 400, n_sources=2)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=32, allowed_lateness=16
    )
    res_drv, _ = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, salt_buckets=2, n_partitions=2,
        micro_batch_rows=64,
    )
    out_dir = str(tmp_path / "mc_sink_out")
    res_sink, _ = run_streaming_salted_partitioned(
        str(d), cfg, n_actors=3, salt_buckets=2, n_partitions=2,
        micro_batch_rows=64, out_dir=out_dir,
    )
    assert res_sink.output is None and res_sink.commit_report is not None
    got = pa.concat_tables(
        list(read_output(out_dir).iter_batches(batch_format="pyarrow"))
    ).sort_by("doc_id")
    want = res_drv.output.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == want["tokens"].to_pylist()
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


@pytest.mark.parametrize(
    "kind,kw",
    [("session", dict(session_gap=2)), ("global", dict(detection_mode="sticky"))],
)
def test_salted_mc_session_and_global_golden(ray_session, tmp_path, kind, kw):
    """Session and global windows run on the salted engine with no
    window-kind check: 3 consumers, driver-collect and sink-direct output
    both byte-equal to golden."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    d = tmp_path / f"mc_{kind}"
    full = _chunked_stream(d, 500, n_sources=3, rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind=kind, allowed_lateness=16, **kw)
    expected = golden.golden_pipeline(full, cfg).sort_by("doc_id")
    out_dir = str(tmp_path / f"mc_{kind}_out")
    for sink in (None, out_dir):
        res, _ = run_streaming_salted_partitioned(
            str(d), cfg, n_actors=3, salt_buckets=2, n_partitions=3,
            micro_batch_rows=48, out_dir=sink,
        )
        assert res.n_late == 0
        got = res.output if sink is None else pa.concat_tables(
            list(read_output(sink).iter_batches(batch_format="pyarrow"))
        )
        got = got.sort_by("doc_id")
        assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
        assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()
        assert got["wm_token"].to_pylist() == expected["wm_token"].to_pylist()


def test_salted_mc_sink_replay_idempotent(ray_session, tmp_path):
    """Whole-run replay against the exactly-once sink (the documented
    recovery path): re-running the identical job into the same out_dir
    commits no duplicate rows — committed partitions are skipped and the
    second attempt's staged rows are judged by epoch."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    d = tmp_path / "mc_replay_src"
    full = _chunked_stream(d, 300, n_sources=2)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=32, allowed_lateness=16
    )
    out_dir = str(tmp_path / "mc_replay_out")
    for attempt in range(2):
        res, _ = run_streaming_salted_partitioned(
            str(d), cfg, n_actors=3, salt_buckets=2, n_partitions=2,
            micro_batch_rows=64, out_dir=out_dir,
        )
        got = sorted(
            x
            for b in read_output(out_dir).iter_batches(batch_format="pyarrow")
            for x in b["doc_id"].to_pylist()
        )
        assert got == sorted(full["doc_id"].to_pylist()), attempt


def test_salted_mc_query_caches_stream_under_shared_tmp(tmp_path, monkeypatch):
    """The multi-consumer query's chunked stream cache is read by consumer
    tasks on any node, so with PDFWM_RAY_SHARED_TMP set it lives under
    that shared root (the engine run itself is stubbed out here)."""
    from unittest import mock

    from pdf_watermark_removal_otsu_inpaint_ray import queries
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines import streaming

    monkeypatch.setenv("PDFWM_RAY_SHARED_TMP", str(tmp_path))
    seen = []

    def fake_engine(d, *_a, **_k):
        seen.append(d)
        return mock.Mock(output=None), []

    with mock.patch.object(queries, "_with_golden"), mock.patch.object(
        queries, "_rewrite_summary"
    ), mock.patch.object(streaming, "run_streaming_salted_partitioned", fake_engine):
        queries.q_streaming_salted_mc(os.environ["GRAFT_ORACLE_SF_DIR"])
    (d,) = seen
    assert os.path.dirname(d) == str(tmp_path)
    assert any(f.endswith(".parquet") for f in os.listdir(d))


def test_salted_mc_output_independent_of_salting(ray_session, tmp_path):
    """Routing never changes output: every source on one actor
    (``salt_buckets=1``) and the default salting spread over 3 actors
    emit the same rows, tokens and late count."""
    d = tmp_path / "mc_salting"
    _chunked_stream(d, 400, n_sources=4)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=32, allowed_lateness=16
    )
    runs = [
        run_streaming_salted_partitioned(
            str(d), cfg, n_actors=3, n_partitions=2, micro_batch_rows=64,
            **kw,
        )[0]
        for kw in (dict(salt_buckets=1), {})
    ]
    one, spread = (r.output.sort_by("doc_id") for r in runs)
    assert runs[0].n_late == runs[1].n_late == 0
    assert one.num_rows == 400 and one.equals(spread)
