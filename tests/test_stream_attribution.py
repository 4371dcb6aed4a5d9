"""Streaming last-touch attribution (state/attribution_state.py +
pipelines/stream_cep.py::run_streaming_attribution): batch-twin equality
under disorder and any layout, carry across sweeps, late routing, sink
mode, checkpoint kill-and-replay."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from pdf_watermark_removal_otsu_inpaint_ray.pipelines.stream_cep import (
    run_streaming_attribution,
)

W = 150


def _stream(n=600, n_keys=9, disorder=7, seed=5):
    """Disordered keyed event stream: ts jitter bounded by ``disorder``
    (arrival order = seq order), click-heavy so carries matter."""
    rng = np.random.default_rng(seed)
    seq = np.arange(n, dtype=np.int64)
    key = rng.integers(0, n_keys, n).astype(np.int64)
    base = np.sort(rng.integers(0, 3000, n)).astype(np.int64)
    ts = base + rng.integers(0, disorder, n)
    typ = rng.choice(["click", "purchase", "view"], n, p=[0.4, 0.3, 0.3])
    return pa.table(
        {
            "user_id": pa.array(key), "ts_us": pa.array(ts),
            "event_id": pa.array(seq), "event_type": pa.array(typ),
        }
    )


def _batch_twin(tbl: pa.Table):
    from pdf_watermark_removal_otsu_inpaint_ray.functions.packing import (
        grouped_attribution,
    )

    out = grouped_attribution(
        ray.data.from_arrow(tbl), window=W
    ).to_pandas()
    return {
        int(r["conv_id"]): (
            None if pd.isna(r["touch_id"]) else int(r["touch_id"])
        )
        for _, r in out.iterrows()
    }


def _as_dict(output: pa.Table):
    return {
        int(r["conv_id"]): (
            None if r["touch_id"] is None else int(r["touch_id"])
        )
        for r in output.to_pylist()
    }


def test_streaming_attribution_matches_batch_any_layout(ray_session):
    tbl = _stream()
    want = _batch_twin(tbl)
    for n_actors, mb, lateness in ((1, 64, 16), (3, 512, 16), (4, 37, 32)):
        res = run_streaming_attribution(
            ray.data.from_arrow(tbl), window=W,
            allowed_lateness=lateness, n_actors=n_actors,
            micro_batch_rows=mb,
        )
        assert res.n_late == 0
        assert _as_dict(res.output) == want, (n_actors, mb)


def test_streaming_attribution_carry_across_sweeps(ray_session):
    """A conversion whose touch finalized many sweeps earlier must still
    attribute through the carried state (tiny micro-batches force the
    touch and conversion into different sweeps)."""
    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1], pa.int64()),
            "ts_us": pa.array([10, 20, 100, 140], pa.int64()),
            "event_id": pa.array([0, 1, 2, 3], pa.int64()),
            "event_type": pa.array(
                ["click", "view", "view", "purchase"], pa.string()
            ),
        }
    )
    res = run_streaming_attribution(
        ray.data.from_arrow(tbl), window=W, allowed_lateness=1,
        n_actors=1, micro_batch_rows=1,
    )
    assert _as_dict(res.output) == {3: 0}
    # outside the window: same shape, conversion too far from the click
    res2 = run_streaming_attribution(
        ray.data.from_arrow(tbl), window=50, allowed_lateness=1,
        n_actors=1, micro_batch_rows=1,
    )
    assert _as_dict(res2.output) == {3: None}


@pytest.mark.parametrize("rule", ["last", "first"])
def test_streaming_attribution_late_routing(ray_session, rule):
    """Under-laternessed disorder: late rows are counted + routed, never
    silently dropped; the on-time result stays deterministic."""
    tbl = _stream(disorder=400, seed=11)
    res = run_streaming_attribution(
        ray.data.from_arrow(tbl), rule=rule, window=W, allowed_lateness=2,
        n_actors=2, micro_batch_rows=16,
    )
    assert res.n_late > 0
    assert res.late is not None and res.late.num_rows == res.n_late
    n_conv = int(
        pa.compute.sum(
            pa.compute.equal(tbl["event_type"], "purchase").cast(pa.int8())
        ).as_py()
    )
    late_conv = int(
        pa.compute.sum(
            pa.compute.equal(res.late["event_type"], "purchase").cast(pa.int8())
        ).as_py()
    )
    # conservation: every purchase either attributed or routed late
    assert res.output.num_rows + late_conv == n_conv


@pytest.mark.parametrize("rule", ["last", "first"])
def test_streaming_attribution_sink_and_resume(ray_session, tmp_path, rule):
    """Sink mode equals the batch twin of ``rule``, and a run killed after
    a checkpoint resumes to the same committed bytes as a clean run."""
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import (
        read_output,
    )

    tbl = _stream(seed=17)
    want = (_batch_twin if rule == "last" else _batch_first_twin)(tbl)
    kw = dict(
        rule=rule, window=W, allowed_lateness=16, n_actors=3,
        micro_batch_rows=32,
    )
    clean = str(tmp_path / "attr_clean")
    res = run_streaming_attribution(
        ray.data.from_arrow(tbl), out_dir=clean, **kw
    )
    assert res.output is None
    gdf = read_output(clean).to_pandas()
    got = {
        int(r["conv_id"]): (
            None if pd.isna(r["touch_id"]) else int(r["touch_id"])
        )
        for _, r in gdf.iterrows()
    }
    assert got == want
    ck = str(tmp_path / "attr_ck")
    with pytest.raises(RuntimeError, match="injected stop"):
        run_streaming_attribution(
            ray.data.from_arrow(tbl), out_dir=ck,
            checkpoint_every=3, _stop_after_batches=9, **kw
        )
    run_streaming_attribution(
        ray.data.from_arrow(tbl), out_dir=ck, checkpoint_every=3, **kw
    )
    a = read_output(clean).to_pandas().sort_values("conv_id", ignore_index=True)
    b = read_output(ck).to_pandas().sort_values("conv_id", ignore_index=True)
    assert a.equals(b)


def _batch_first_twin(tbl: pa.Table):
    from pdf_watermark_removal_otsu_inpaint_ray.functions.packing import (
        grouped_first_touch,
    )

    out = grouped_first_touch(ray.data.from_arrow(tbl), window=W).to_pandas()
    return {
        int(r["conv_id"]): (
            None if pd.isna(r["touch_id"]) else int(r["touch_id"])
        )
        for _, r in out.iterrows()
    }


def test_streaming_first_touch_matches_batch_any_layout(ray_session):
    tbl = _stream(seed=41)
    want = _batch_first_twin(tbl)
    for n_actors, mb in ((1, 64), (3, 512), (4, 37)):
        res = run_streaming_attribution(
            ray.data.from_arrow(tbl), rule="first", window=W,
            allowed_lateness=16, n_actors=n_actors, micro_batch_rows=mb,
        )
        assert res.n_late == 0
        assert _as_dict(res.output) == want, (n_actors, mb)


def test_streaming_first_touch_horizon_eviction(ray_session):
    """The touch index stays bounded by the watermark horizon: with a
    narrow window over a long dense stream, most touches evict and the
    final state is a small fraction of all touches."""
    rng = np.random.default_rng(43)
    n = 2000
    tbl = pa.table(
        {
            "user_id": pa.array(rng.integers(0, 4, n), pa.int64()),
            "ts_us": pa.array(np.arange(n, dtype=np.int64) * 10, pa.int64()),
            "event_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "event_type": pa.array(
                rng.choice(["click", "purchase"], n, p=[0.7, 0.3]), pa.string()
            ),
        }
    )
    res = run_streaming_attribution(
        ray.data.from_arrow(tbl), rule="first", window=200,
        allowed_lateness=4, n_actors=2, micro_batch_rows=64,
    )
    n_touch = int((np.asarray(tbl["event_type"]) == "click").sum())
    evicted = sum(s["evicted"] for s in res.actor_stats)
    held = sum(s["state_touches"] for s in res.actor_stats)
    assert evicted > n_touch * 0.8          # most of the stream evicted live
    assert held + evicted == n_touch        # conservation
    # and the answers still match the batch kernel
    from pdf_watermark_removal_otsu_inpaint_ray.functions.packing import (
        grouped_first_touch,
    )

    want = {
        int(r["conv_id"]): (
            None if pd.isna(r["touch_id"]) else int(r["touch_id"])
        )
        for _, r in grouped_first_touch(
            ray.data.from_arrow(tbl), window=200
        ).to_pandas().iterrows()
    }
    assert _as_dict(res.output) == want


def test_first_touch_actor_trailing_conversion_band_spill(ray_session):
    """Regression (ADVICE r4): FirstTouchStateActor._sweep had the same
    unclamped band arithmetic as the batch kernel — a conversion later
    than ALL indexed touches by more than window+1 spilled into a higher
    key's band and credited that key's touch.  Reachable in the very
    first sweep: two keys' touches indexed (key 2 @ ts 0, key 5 @ ts 5),
    then key 2 converts at ts 24 with window=10 — frame [14, 24] holds
    no touch of key 2, credit must be NULL."""
    from pdf_watermark_removal_otsu_inpaint_ray.state.firsttouch_state import (
        FirstTouchStateActor,
    )

    actor = FirstTouchStateActor.remote(window=10)
    batch = pa.table(
        {
            "user_id": pa.array([2, 5, 2], pa.int64()),
            "ts_us": pa.array([0, 5, 24], pa.int64()),
            "event_id": pa.array([100, 300, 900], pa.int64()),
            "event_type": pa.array(["click", "click", "purchase"]),
        }
    )
    ray.get(actor.ingest.remote(batch, 24))
    out, _late = ray.get(actor.take_held.remote())
    rows = [r for t in out for r in t.to_pylist()]
    assert len(rows) == 1
    assert rows[0]["conv_id"] == 900
    assert rows[0]["touch_id"] is None, rows[0]
    # watermark-jump variant: touches indexed in sweep 1, conversion
    # arrives in sweep 2 long after the hull
    actor2 = FirstTouchStateActor.remote(window=10)
    t1 = pa.table(
        {
            "user_id": pa.array([2, 5], pa.int64()),
            "ts_us": pa.array([0, 5], pa.int64()),
            "event_id": pa.array([100, 300], pa.int64()),
            "event_type": pa.array(["click", "click"]),
        }
    )
    ray.get(actor2.ingest.remote(t1, 5))
    ray.get(actor2.take_held.remote())  # what the call above emitted
    t2 = pa.table(
        {
            "user_id": pa.array([5, 2], pa.int64()),
            "ts_us": pa.array([14, 15], pa.int64()),
            "event_id": pa.array([301, 901], pa.int64()),
            "event_type": pa.array(["click", "purchase"]),
        }
    )
    ray.get(actor2.ingest.remote(t2, 40))
    out2, _late = ray.get(actor2.take_held.remote())
    rows2 = {
        r["conv_id"]: r["touch_id"] for t in out2 for r in t.to_pylist()
    }
    # key 2's frame [5, 15] holds only its own ts-0 click?  No: window=10
    # => frame [5,15]; key 2 has click@0 (out) — must NOT credit key 5's
    # clicks at 5/14 which ARE in ts-range but belong to key 5.
    assert rows2 == {901: None}, rows2
