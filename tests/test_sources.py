"""Stream sources (sources/parquet.py): the file rule of a directory read.

``read_sequences`` and the streaming engines' path resolver read the same
files of a directory — only ``*.parquet`` — so a stray Parquet file with
another suffix beside the chunks (a cached golden table, say) can neither
break the batch flagship nor be read by one engine and not the other."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import _resolve_parquet_paths
from pdf_watermark_removal_otsu_inpaint_ray.sources.parquet import read_sequences
from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import compute_wm_table

CFG = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32)


def test_foreign_suffix_parquet_beside_chunks_is_ignored(ray_session, tmp_path):
    d = tmp_path / "in"
    d.mkdir()
    chunks = [
        synth.generate_stream(150, start_row=s, n_sources=3, n_tok_lo=48, n_tok_hi=128)
        for s in (0, 150)
    ]
    for i, t in enumerate(chunks):
        pq.write_table(t, str(d / f"chunk-{i:03d}.parquet"))
    table = pa.concat_tables(chunks)
    expected = golden.golden_pipeline(table, CFG).sort_by("doc_id")
    # a valid Parquet file of another schema and suffix beside the chunks
    pq.write_table(expected, str(d / "golden.arrow-parquet"))

    assert [os.path.basename(p) for p in _resolve_parquet_paths(str(d))] == [
        "chunk-000.parquet", "chunk-001.parquet",
    ]
    wm = compute_wm_table(read_sequences(str(d)), CFG)
    assert wm == golden.golden_wm_table(table, CFG)
    out = run_flagship(read_sequences(str(d)), CFG, wm=wm, batch_size=128)
    got = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_nested_partition_layout_still_read(ray_session, tmp_path):
    """``part=NNN/`` sub-directories stay readable; a stray file inside one
    is skipped there too."""
    d = tmp_path / "nested"
    t = synth.generate_stream(200, n_sources=2, n_tok_lo=48, n_tok_hi=96)
    for i in range(2):
        (d / f"part={i:03d}").mkdir(parents=True)
        pq.write_table(t.slice(i * 100, 100), str(d / f"part={i:03d}" / "data.parquet"))
    pq.write_table(pa.table({"x": [1, 2]}), str(d / "part=000" / "stale.parquet.tmp"))
    assert read_sequences(str(d)).count() == 200
