"""Streaming + exactly-once sink resume: a streaming job that dies mid-write
replays the stream; the sink's committed partitions are skipped and the
final output is byte-identical to an uninterrupted run (the engine's
checkpoint-resume semantics: state rebuilds by replay, output commits are
the checkpoint)."""

import pyarrow as pa
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming
from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
    committed_partitions,
    read_output,
    write_exactly_once,
)


def _collect(out_dir):
    return pa.concat_tables(
        [pa.table(b) for b in read_output(out_dir).iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")


def test_streaming_kill_and_replay(ray_session, tmp_path):
    import ray.data

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 500, n_sources=3, n_tok_lo=48, n_tok_hi=128, disorder=8)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)

    clean = str(tmp_path / "clean")
    run_streaming(p, cfg, n_actors=2, micro_batch_rows=100, out_dir=clean, num_partitions=6)

    # crashed attempt: stream completes but the sink dies before partition 2
    crash = str(tmp_path / "crash")
    res = run_streaming(p, cfg, n_actors=2, micro_batch_rows=100)
    with pytest.raises(Exception):
        write_exactly_once(
            ray.data.from_arrow(res.output), crash, num_partitions=6,
            fail_partitions=frozenset({2}),
        )
    assert 2 not in committed_partitions(crash)

    # resume: replay the whole stream (state rebuilds), sink skips committed
    run_streaming(p, cfg, n_actors=2, micro_batch_rows=100, out_dir=crash, num_partitions=6)
    assert committed_partitions(crash) == set(range(6))
    assert _collect(crash).equals(_collect(clean))


def test_checkpoint_resume_replays_tail_only_byte_equal(ray_session, tmp_path):
    """Flink-style checkpoint/restore: a run crashing mid-stream resumes
    from the latest state snapshot — actor state restores, the staged log
    truncates to the snapshot manifest, the SAME staging epoch is adopted,
    and only the post-checkpoint micro-batches replay.  The committed
    layout is byte-identical to an uninterrupted run; zero rows turn late
    on resume (if the head replayed against the restored watermark, the
    pre-checkpoint rows would flood the late side output)."""
    import os

    import pytest

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output

    stream = str(tmp_path / "stream.parquet")
    synth.write_stream(stream, 6000, n_sources=4, disorder=4)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=64, allowed_lateness=16
    )

    def collect(d):
        t = pa.concat_tables(
            [pa.table(b) for b in read_output(d).iter_batches(batch_format="pyarrow")]
        ).sort_by("doc_id")
        return t.drop_columns(["part"]) if "part" in t.column_names else t

    kw = dict(n_actors=2, micro_batch_rows=256, num_partitions=6)
    clean = str(tmp_path / "clean")
    run_streaming(stream, cfg, **kw, out_dir=clean)
    golden = collect(clean)

    crash = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming(
            stream, cfg, **kw, out_dir=crash,
            checkpoint_every=5, _stop_after_batches=15,
        )
    assert os.path.isdir(os.path.join(crash, "_checkpoints", "ckpt-00000015"))

    # resuming with mismatched routing parameters must refuse
    with pytest.raises(RuntimeError, match="desynchronize"):
        run_streaming(
            stream, cfg, n_actors=3, micro_batch_rows=256, num_partitions=6,
            out_dir=crash, checkpoint_every=5,
        )

    res = run_streaming(stream, cfg, **kw, out_dir=crash, checkpoint_every=5)
    assert collect(crash).equals(golden)
    assert res.n_late == 0  # tail-only replay: the head never re-ingests
    # checkpoints are recovery state, not output: cleared on success
    assert not os.path.isdir(os.path.join(crash, "_checkpoints"))


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("sliding", dict(window_size=64, window_slide=32)),
        ("session", dict(session_gap=8)),
    ],
)
def test_checkpoint_resume_all_window_kinds(ray_session, tmp_path, kind, extra):
    """Checkpoint/restore across window kinds: sliding (multi-window
    buffers) and session (open gap-merge state with buffered tables) both
    snapshot and resume byte-equal — open sessions crossing the checkpoint
    are the hard case."""
    import os

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output

    stream = str(tmp_path / "stream.parquet")
    synth.write_stream(stream, 4000, n_sources=4, disorder=4)
    cfg = DEFAULT_CONFIG.with_(window_kind=kind, allowed_lateness=16, **extra)

    def collect(d):
        t = pa.concat_tables(
            [pa.table(b) for b in read_output(d).iter_batches(batch_format="pyarrow")]
        ).sort_by("doc_id")
        return t.drop_columns(["part"]) if "part" in t.column_names else t

    kw = dict(n_actors=2, micro_batch_rows=256, num_partitions=4)
    clean = str(tmp_path / "clean")
    run_streaming(stream, cfg, **kw, out_dir=clean)

    crash = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming(
            stream, cfg, **kw, out_dir=crash,
            checkpoint_every=4, _stop_after_batches=10,
        )
    res = run_streaming(stream, cfg, **kw, out_dir=crash, checkpoint_every=4)
    assert collect(crash).equals(collect(clean))
    assert not os.path.isdir(os.path.join(crash, "_checkpoints"))


def test_truncate_staged_removes_only_post_checkpoint_files(tmp_path):
    """Unit: the staged-log truncation deletes exactly the files a crashed
    continuation added after the snapshot (main AND late trees)."""
    import os

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.checkpoint import (
        staged_file_manifest,
        truncate_staged,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import late_dir

    out = str(tmp_path / "out")
    for base, part, name in (
        (out, 0, "a.parquet"),
        (out, 1, "b.parquet"),
        (late_dir(out), 0, "l.parquet"),
    ):
        d = os.path.join(base, "_staged", f"part={part:05d}")
        os.makedirs(d, exist_ok=True)
        open(os.path.join(d, name), "wb").close()
    manifest = staged_file_manifest(out)
    assert manifest["main"] and manifest["late"]

    # crashed continuation stages more files after the snapshot
    extras = [
        (out, 1, "post1.parquet"),
        (out, 2, "post2.parquet"),
        (late_dir(out), 0, "post3.parquet"),
    ]
    for base, part, name in extras:
        d = os.path.join(base, "_staged", f"part={part:05d}")
        os.makedirs(d, exist_ok=True)
        open(os.path.join(d, name), "wb").close()

    removed = truncate_staged(out, manifest)
    assert removed == 3
    assert staged_file_manifest(out) == manifest


def test_checkpoint_resume_refuses_changed_cfg_or_source(ray_session, tmp_path):
    """Review finding: restoring actor state under a different engine
    config or source would commit garbage silently — both fingerprints
    must be validated before any state restores."""
    import os

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

    stream = str(tmp_path / "stream.parquet")
    synth.write_stream(stream, 3000, n_sources=4, disorder=4)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="tumbling", window_size=64, allowed_lateness=16
    )
    out = str(tmp_path / "out")
    kw = dict(n_actors=2, micro_batch_rows=256, num_partitions=4)
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming(
            stream, cfg, **kw, out_dir=out,
            checkpoint_every=4, _stop_after_batches=8,
        )

    with pytest.raises(RuntimeError, match="different engine config"):
        run_streaming(
            stream, cfg.with_(window_size=32), **kw, out_dir=out,
        )

    other = str(tmp_path / "other.parquet")
    synth.write_stream(other, 2000, n_sources=4, disorder=4)
    with pytest.raises(RuntimeError, match="different source"):
        run_streaming(other, cfg, **kw, out_dir=out)

    # unchanged cfg+source resumes and completes
    res = run_streaming(stream, cfg, **kw, out_dir=out)
    assert res.output is None
    assert not os.path.isdir(os.path.join(out, "_checkpoints"))


def test_resume_adopts_pinned_partition_count(ray_session, tmp_path):
    """A library resume with no partition count adopts the count pinned in
    the sink (here 7, not the cluster-scaled default) instead of failing
    the layout guard: for the streaming engine's checkpoint resume, its
    fresh-run sink set-up, and ``write_exactly_once``."""
    import json
    import os

    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
        run_streaming_partitioned,
    )

    def layout(d):
        with open(os.path.join(d, "_manifests", "_layout.json")) as f:
            return json.load(f)["num_partitions"]

    stream = str(tmp_path / "s.parquet")
    synth.write_stream(stream, 2000, n_sources=3, n_tok_lo=48, n_tok_hi=128, disorder=8)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)
    kw = dict(n_actors=2, micro_batch_rows=100)
    clean = str(tmp_path / "clean")
    run_streaming(stream, cfg, **kw, out_dir=clean, num_partitions=7)

    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming(
            stream, cfg, **kw, out_dir=ckpt, num_partitions=7,
            checkpoint_every=4, _stop_after_batches=14,
        )
    assert layout(ckpt) == 7  # the checkpoints staged rows: the count is pinned
    run_streaming(stream, cfg, **kw, out_dir=ckpt, checkpoint_every=4)
    assert layout(ckpt) == 7 and committed_partitions(ckpt) <= set(range(7))
    assert _collect(ckpt).equals(_collect(clean))

    # a partitioned run whose earlier attempt committed part of the layout
    part = str(tmp_path / "part")
    res = run_streaming(stream, cfg, **kw)
    with pytest.raises(Exception):
        write_exactly_once(
            ray.data.from_arrow(res.output), part, num_partitions=7,
            fail_partitions=frozenset({3}),
        )
    run_streaming_partitioned(stream, cfg, n_actors=2, n_partitions=1, out_dir=part)
    assert layout(part) == 7 and committed_partitions(part) == set(range(7))
    assert _collect(part).equals(_collect(clean))

    sink = str(tmp_path / "batch")
    with pytest.raises(Exception):
        write_exactly_once(
            ray.data.from_arrow(res.output), sink, num_partitions=7,
            fail_partitions=frozenset({2}),
        )
    write_exactly_once(ray.data.from_arrow(res.output), sink)
    assert layout(sink) == 7 and committed_partitions(sink) == set(range(7))
    assert _collect(sink).equals(_collect(clean))
