"""Automatic detection mode (M3/M4) and per-source classifier auto-tuning
(A5/A6): golden semantics, kernel equality, distributed == single-process."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.functions import classifier
from pdf_watermark_removal_otsu_inpaint_ray.stages import kernels


def row(*segments):
    return np.concatenate([np.full(n, v, dtype=np.int32) for v, n in segments])


def test_auto_raw_mask_local_mean_rule():
    cfg = DEFAULT_CONFIG
    # uniform row: gray == mean -> (g+2)*w > sum holds -> everything raw-flagged,
    # then background/text protection and span filter shape the result
    t = row((200, 100))
    raw = golden.auto_raw_mask(t, cfg)
    assert raw.all()
    # a dark span is below its local mean -> M3 false there (sat channel: tokens
    # < 256 -> sat 0 < 30 -> M4 true everywhere; so test M3 in isolation)
    gray = golden.gray_of(t, cfg)
    n = t.size
    cs = np.concatenate([[0], np.cumsum(gray)])
    i = np.arange(n)
    lo, hi = np.maximum(i - 5, 0), np.minimum(i + 6, n)
    m3 = (gray + 2) * (hi - lo) > cs[hi] - cs[lo]
    assert m3.all()


def test_auto_mode_golden_pipeline_rewrites():
    cfg = DEFAULT_CONFIG.with_(detection_method="auto", window_kind="global")
    # gray-180 watermark band on gray-252 background: auto mode flags the
    # 141-250 band not protected as text/background
    t = row((252, 100), (180, 20), (252, 200))
    r = golden.process_row(t, -1, cfg)
    assert (r.tokens == 252).all()
    assert r.n_passes == 1
    # protected content stays
    t2 = row((252, 100), (20, 20), (252, 200))
    r2 = golden.process_row(t2, -1, cfg)
    assert (r2.tokens == t2).all()


def test_auto_kernel_matches_golden():
    rng = np.random.default_rng(21)
    cfg = DEFAULT_CONFIG.with_(detection_method="auto")
    rows = []
    for _ in range(30):
        n = int(rng.integers(0, 180))
        t = rng.integers(0, 600, size=n).astype(np.int32)
        rows.append(t)
    col = pa.array([r.tolist() for r in rows], pa.list_(pa.int32()))
    fb = kernels.flatten_list_column(col)
    flag = kernels.detect_mask_auto_flat(fb.values, fb, cfg)
    for i, r in enumerate(rows):
        s, e = fb.offsets[i], fb.offsets[i + 1]
        exp = golden.detect_mask_auto(r, cfg)
        assert (flag[s:e] == exp).all(), i
    res = kernels.process_batch_flat(fb, np.full(len(rows), -1, dtype=np.int64), cfg)
    for i, r in enumerate(rows):
        s, e = fb.offsets[i], fb.offsets[i + 1]
        g = golden.process_row(r, -1, cfg)
        assert (res.values[s:e] == g.tokens).all(), i


def test_auto_flagship_matches_golden(ray_session, tmp_path):
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    p = str(tmp_path / "auto.parquet")
    synth.write_stream(p, 300, n_sources=3, n_tok_lo=48, n_tok_hi=160)
    cfg = DEFAULT_CONFIG.with_(detection_method="auto", window_kind="global")
    table = pq.read_table(p)
    expected = golden.golden_pipeline(table, cfg).sort_by("doc_id")
    out = run_flagship(read_sequences(p), cfg, batch_size=64)
    got = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def _mk_table(rows):
    return pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(len(rows))], pa.string()),
            "tokens": pa.array([r[0].tolist() for r in rows], pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[0]) for r in rows], pa.int32()),
            "source": pa.array([r[1] for r in rows], pa.string()),
            "event_ts": pa.array(list(range(len(rows))), pa.int64()),
        }
    )


def make_electronic_rows(n=30):
    # few unique tokens, pure-black text, sharp edges, no noise
    rows = []
    for i in range(n):
        t = row((252, 100), (0, 20), (200, 30), (252, 100))
        rows.append((t, "elec"))
    return rows


def make_scanned_rows(n=30, seed=5):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        base = np.full(250, 245, dtype=np.int32)
        noise = rng.integers(-6, 7, size=250)
        t = np.clip(base + noise, 0, 255).astype(np.int32)
        t[40:60] = rng.integers(10, 90, size=20)  # smeared text grays
        rows.append((t, "scan"))
    return rows


def test_classifier_separates_electronic_and_scanned():
    table = _mk_table(make_electronic_rows() + make_scanned_rows())
    stats = classifier.batch_source_stats(table, DEFAULT_CONFIG)
    elec = classifier.classify_stats(stats["elec"])
    scan = classifier.classify_stats(stats["scan"])
    assert elec.metrics["noise_level"] > scan.metrics["noise_level"]
    assert elec.metrics["color_discreteness"] > scan.metrics["color_discreteness"]
    assert elec.confidence > 0
    # parameter mapping mirrors the reference table
    p = classifier.optimal_parameters("scanned")
    assert p["tolerance"] == 32 and p["kernel_size"] == 5 and p["passes"] == 2
    assert classifier.optimal_parameters("electronic")["tolerance"] == 18


def test_partials_merge_equals_single_pass():
    table = _mk_table(make_electronic_rows(20) + make_scanned_rows(20))
    whole = classifier.batch_source_stats(table, DEFAULT_CONFIG)
    # split into 5 batches, merge partials
    merged = {}
    for i in range(0, table.num_rows, 8):
        part = classifier.batch_source_stats(table.slice(i, 8), DEFAULT_CONFIG)
        for s, st in part.items():
            if s in merged:
                merged[s].merge(st)
            else:
                merged[s] = st
    for s in whole:
        a, b = classifier.classify_stats(whole[s]), classifier.classify_stats(merged[s])
        assert a.doc_type == b.doc_type
        for k in a.metrics:
            np.testing.assert_allclose(a.metrics[k], b.metrics[k], rtol=1e-9)


def test_auto_tuned_pipeline_matches_golden(ray_session, tmp_path):
    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.auto_tune import (
        golden_auto_tuned,
        run_auto_tuned,
    )

    p = str(tmp_path / "tune.parquet")
    synth.write_stream(p, 300, n_sources=4, n_tok_lo=48, n_tok_hi=160)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32)
    table = pq.read_table(p)
    expected = golden_auto_tuned(table, cfg).sort_by("doc_id")
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    out = run_auto_tuned(read_sequences(p), cfg, batch_size=64)
    got = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_source_stats_all_empty_tokens_batch():
    # a micro-batch where every row has an empty token list must not crash
    # the profiling pass (regression: _median3_flat indexed values[0] on an
    # empty flat array)
    table = pa.table(
        {
            "doc_id": pa.array(["a", "b"], pa.string()),
            "tokens": pa.array([[], []], pa.list_(pa.int64())),
            "source": pa.array(["s0", "s0"], pa.string()),
            "event_ts": pa.array([0, 1], pa.int64()),
        }
    )
    stats = classifier.batch_source_stats(table, DEFAULT_CONFIG)
    assert set(stats) == {"s0"}
    st = stats["s0"]
    assert st.res_n == 0 and st.lap_n == 0
    # merging the empty partial into a real one must be a no-op numerically
    real = classifier.batch_source_stats(
        _mk_table(make_electronic_rows(5)), DEFAULT_CONFIG
    )["elec"]
    before = classifier.classify_stats(real).metrics
    real.merge(st)
    after = classifier.classify_stats(real).metrics
    for k in before:
        np.testing.assert_allclose(before[k], after[k], rtol=1e-12)
