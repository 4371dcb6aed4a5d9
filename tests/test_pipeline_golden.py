"""Golden equality: the distributed flagship pipeline must produce the exact
row set and byte-identical ``tokens`` arrays as the single-process oracle
(the BASELINE.json input_hint invariant)."""

import numpy as np
import pyarrow as pa
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import compute_wm_table


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("stream") / "seq.parquet"
    synth.write_stream(str(p), 600, n_sources=4, n_tok_lo=64, n_tok_hi=300)
    return str(p)


def _sorted_table(t: pa.Table) -> pa.Table:
    return t.sort_by("doc_id")


def _assert_equal_outputs(ray_table: pa.Table, golden_table: pa.Table):
    a, b = _sorted_table(ray_table), _sorted_table(golden_table)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["tokens"].to_pylist() == b["tokens"].to_pylist()
    assert a["wm_token"].to_pylist() == b["wm_token"].to_pylist()
    assert a["n_passes"].to_pylist() == b["n_passes"].to_pylist()
    np.testing.assert_allclose(a["coverage_pct"].to_numpy(), b["coverage_pct"].to_numpy())


@pytest.mark.parametrize(
    "cfg",
    [
        DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32),
        DEFAULT_CONFIG.with_(window_kind="sliding", window_size=32, window_slide=16),
        DEFAULT_CONFIG.with_(window_kind="global"),
        DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, detection_mode="sticky"),
        DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, passes=3),
    ],
    ids=["tumbling", "sliding", "global", "sticky", "multipass"],
)
def test_flagship_matches_golden(ray_session, stream_path, cfg):
    import pyarrow.parquet as pq
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    table = pq.read_table(stream_path)
    expected = golden.golden_pipeline(table, cfg)

    ds = read_sequences(stream_path)
    out = run_flagship(ds, cfg, batch_size=128)
    got = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")]
    )
    assert got.num_rows == table.num_rows
    _assert_equal_outputs(got, expected)


def test_wm_table_matches_golden(ray_session, stream_path):
    import pyarrow.parquet as pq
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32)
    table = pq.read_table(stream_path)
    expected = golden.golden_wm_table(table, cfg)
    got = compute_wm_table(read_sequences(stream_path), cfg)
    assert got == expected


def test_motif_override_plumbed(ray_session, stream_path):
    """A doc in motif_docs gets max_span lifted to its n_tok."""
    import pyarrow.parquet as pq
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    cfg = DEFAULT_CONFIG.with_(window_kind="global", max_span=5)
    table = pq.read_table(stream_path)
    some_doc = table["doc_id"][0].as_py()
    expected = golden.golden_pipeline(table, cfg, motif_rows={some_doc})
    out = run_flagship(
        read_sequences(stream_path), cfg, motif_docs=frozenset({some_doc}),
        batch_size=128,
    )
    got = pa.concat_tables([pa.table(b) for b in out.iter_batches(batch_format="pyarrow")])
    _assert_equal_outputs(got, expected)


def test_session_flagship_matches_golden(ray_session, tmp_path):
    """Batch-path session windows (phase-0 mapping + broadcast lookup) equal
    the per-source gap-merge golden on a disordered synthetic stream."""
    import pyarrow.parquet as pq

    from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    p = str(tmp_path / "sess.parquet")
    synth.write_stream(p, 400, n_sources=4, n_tok_lo=48, n_tok_hi=128, disorder=6,
                       rows_per_ts=1)
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=5)
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")
    got = run_flagship(read_sequences(p), cfg, batch_size=64).to_pandas()
    got = got.sort_values("doc_id", ignore_index=True)
    assert got["doc_id"].tolist() == expected["doc_id"].to_pylist()
    assert got["tokens"].map(list).tolist() == expected["tokens"].to_pylist()
    assert got["wm_token"].tolist() == expected["wm_token"].to_pylist()


def test_tree_merge_partials_adversarial_cardinality(ray_session, tmp_path):
    """At adversarial (source × window) cardinality the distributed
    partial-merge round yields the identical wm table as the flat driver
    reduce, and the driver receives exactly one partial row per key."""
    import numpy as np
    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import (
        HistogramPartials,
        _tree_merge_partials,
        compute_wm_table,
    )

    p = str(tmp_path / "adv.parquet")
    synth.write_stream(p, 3000, n_sources=30, disorder=4)
    # window_size=4 -> thousands of (source, window) keys
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=4)
    wm_flat = compute_wm_table(ray.data.read_parquet(p), cfg, batch_size=256, tree_merge=False)
    wm_tree = compute_wm_table(ray.data.read_parquet(p), cfg, batch_size=256, tree_merge=True)
    assert len(wm_flat) > 500
    assert wm_flat == wm_tree

    # driver-side partial volume after the tree round == distinct keys
    partials = ray.data.read_parquet(p).map_batches(
        HistogramPartials(cfg), batch_format="pyarrow", batch_size=256
    )
    merged = _tree_merge_partials(partials, cfg)
    rows = sum(len(b) for b in merged.iter_batches(batch_format="pyarrow"))
    assert rows == len(wm_flat)


def test_bare_compute_wm_table_session_windows(ray_session, tmp_path):
    """Review finding: the public phase-1 entry (compute_wm_table without a
    session_map) crashed for session windows — it must auto-build the
    mapping and agree with the pre-built-map path."""
    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import (
        compute_wm_table,
        session_window_mapping,
    )

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 300, n_sources=3, disorder=4)
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=8)
    ds = ray.data.read_parquet(p)
    bare = compute_wm_table(ds, cfg)
    smap = session_window_mapping(ds, cfg)
    with_map = compute_wm_table(ds, cfg, session_map=smap)
    assert bare == with_map and len(bare) > 0


def test_session_lookup_drift_fallbacks(ray_session):
    """Review finding: a ts beyond the mapped range raised IndexError and an
    absent-but-in-range ts silently took the NEXT session.  Now: in-range
    gaps resolve to the governing (preceding) session, out-of-range and
    unknown-source rows get NO_WINDOW (-> no-detection default)."""
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import (
        NO_WINDOW,
        lookup_session_windows,
    )
    from pdf_watermark_removal_otsu_inpaint_ray.stages.inpaint import lookup_wm_rows

    smap = {"a": (np.array([0, 2, 10, 11], np.int64), np.array([0, 0, 10, 10], np.int64))}
    src = np.array(["a", "a", "a", "a", "b"], dtype=object)
    ts = np.array([1, 11, 12, -5, 3], np.int64)
    win = lookup_session_windows(smap, src, ts)
    #  ts=1: inside session [0,2] -> 0;  ts=11 exact -> 10;
    #  ts=12: beyond max -> NO_WINDOW;  ts=-5: below min -> NO_WINDOW;
    #  source b unknown -> NO_WINDOW
    assert win.tolist() == [0, 10, NO_WINDOW, NO_WINDOW, NO_WINDOW]
    # the sentinel must not enter the w_span factorization (int64 min)
    wm = {("a", 0): (150, 5.0), ("a", 10): (170, 5.0)}
    toks = lookup_wm_rows(wm, src, win, default=-1)
    assert toks.tolist() == [150, 170, -1, -1, -1]


def test_flagship_session_row_local_skips_phase0(ray_session, tmp_path):
    """Review finding: session windows + a row-local detector ran the whole
    phase-0 mapping pass whose result cannot affect the output.  The rewrite
    must still be golden-equal with session_map=None internally."""
    import pyarrow.parquet as pq

    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 200, n_sources=2, disorder=4)
    cfg = DEFAULT_CONFIG.with_(
        window_kind="session", session_gap=8, detection_method="auto"
    )
    expected = golden.golden_pipeline(pq.read_table(p), cfg).sort_by("doc_id")
    got = (
        run_flagship(ray.data.read_parquet(p), cfg)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert got["tokens"].map(list).tolist() == expected["tokens"].to_pylist()
