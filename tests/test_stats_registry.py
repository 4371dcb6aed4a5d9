"""Run metrics (A7) and the named-strategy registry (§2.10)."""

import pyarrow as pa

from pdf_watermark_removal_otsu_inpaint_ray import registry, stats, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG


def test_registry_builtins():
    assert registry.get_detector("color") is not None
    assert registry.get_detector("auto") is not None
    assert registry.get_inpainter("nearest") is not None
    cfg = registry.apply_preset("scanned", DEFAULT_CONFIG)
    assert cfg.tolerance == 32 and cfg.kernel_size == 5 and cfg.passes == 2
    cfg2 = registry.apply_preset("electronic-color", DEFAULT_CONFIG)
    assert cfg2.tolerance == 15 and cfg2.kernel_size == 2

    def my_detector(values, wm_pos, fb, cfg, max_span_pos=None):
        return values > 0

    registry.register_detector("custom", my_detector)
    assert registry.get_detector("custom") is my_detector


def test_category_counts():
    t = pa.table(
        {"category": pa.array(["website", "website", "email"], pa.string())}
    )
    assert stats.category_counts(t) == {"website": 2, "email": 1}


def test_summary_and_manifests(ray_session, tmp_path):
    import ray.data

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import write_exactly_once
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 300, n_sources=3, n_tok_lo=48, n_tok_hi=128)
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32)
    out = run_flagship(read_sequences(p), cfg, batch_size=64, concurrency=2)
    summary = stats.summarize_output(out)
    assert summary["totals"]["rows"] == 300
    assert summary["totals"]["sources"] == 3
    assert summary["totals"]["mean_coverage_pct"] > 0

    out_dir = str(tmp_path / "out")
    out2 = run_flagship(read_sequences(p), cfg, batch_size=64, concurrency=2)
    write_exactly_once(out2, out_dir, num_partitions=4)
    m = stats.manifest_metrics(out_dir)
    assert m["committed"] == 4 and m["total_rows"] == 300
    assert m["skew_ratio"] < 5


def test_events_customer_join_empty_build_side(ray_session, tmp_path):
    """Regression (review finding): an empty customer table must yield a
    correct EMPTY inner join, not an IndexError inside every map task."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray as _ray

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.windows import (
        events_customer_join,
    )

    cust = str(tmp_path / "customer.parquet")
    pq.write_table(
        pa.table({"c_custkey": pa.array([], pa.int64()),
                  "c_name": pa.array([], pa.string())}),
        cust,
    )
    ev = _ray.data.from_arrow(
        pa.table(
            {
                "event_id": pa.array([1, 2], pa.int64()),
                "user_id": pa.array([10, 20], pa.int64()),
            }
        )
    )
    out_ds = events_customer_join(ev, cust)
    assert out_ds.count() == 0
    # schema survives even though all blocks are empty
    assert out_ds.schema().names == ["event_id", "user_id", "c_name"]


def test_registry_index_in_sync():
    """REGISTRY.md is generated from the live registry (registry_index.py)
    — any query added/moved/re-oracled without regenerating the index, or
    any prose drift in the committed file, fails here (VERDICT r4 item 8:
    coverage claims must be machine-checked, not hand-maintained)."""
    import os

    from pdf_watermark_removal_otsu_inpaint_ray.registry_index import (
        REPO_ROOT, expected_registry,
    )

    with open(os.path.join(REPO_ROOT, "REGISTRY.md")) as f:
        got = f.read()
    assert got == expected_registry(), (
        "REGISTRY.md is stale — regenerate with "
        "`python -m pdf_watermark_removal_otsu_inpaint_ray.registry_index`"
    )


def test_registry_index_ignores_unpinned_records(tmp_path):
    """A correctness record that lands after the index was generated (here
    a planted CORRECTNESS_r99.json that would turn every query's last green
    round into c99) does not stale the index: the check reads only the
    records the committed header pins.  Editing the committed index still
    fails the check."""
    import json
    import os
    import shutil

    from pdf_watermark_removal_otsu_inpaint_ray.registry_index import (
        REPO_ROOT, expected_registry, pinned_records,
    )

    with open(os.path.join(REPO_ROOT, "REGISTRY.md")) as f:
        committed = f.read()
    for name in ["REGISTRY.md", *pinned_records(committed)]:
        shutil.copy(os.path.join(REPO_ROOT, name), tmp_path / name)
    from pdf_watermark_removal_otsu_inpaint_ray.queries import QUERIES

    foreign = {"queries": {q: {"rows_match": True, "hash_match": True} for q in QUERIES}}
    (tmp_path / "CORRECTNESS_r99.json").write_text(json.dumps(foreign))
    assert expected_registry(str(tmp_path)) == committed

    (tmp_path / "REGISTRY.md").write_text(committed.replace("| p5 |", "| p4 |", 1))
    assert expected_registry(str(tmp_path)) != (tmp_path / "REGISTRY.md").read_text()
