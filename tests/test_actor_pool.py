"""Warm actor pool of the inpaint streaming engines
(pipelines/streaming.py ``_leased_actors``).

Every streaming call leases its state actors, watermark tracker and (multi-
consumer salted engine) aggregator from an idle pool kept per Ray session,
and resets them in place instead of spawning new processes.  Contract under
test: a run on warm actors is byte-identical to the same run on fresh ones
for every inpaint topology; a reset actor holds exactly a fresh actor's
state; a crashed call returns nothing to the pool; a new Ray session never
sees an old session's handles; an idle actor that died is replaced."""

import functools
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines import streaming as st
from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output
from pdf_watermark_removal_otsu_inpaint_ray.state.keyed_state import KeyedStateActor
from pdf_watermark_removal_otsu_inpaint_ray.state.watermark_tracker import WatermarkTracker

TUMBLING = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=32, allowed_lateness=16)
STICKY = TUMBLING.with_(detection_mode="sticky")
SESSION = DEFAULT_CONFIG.with_(window_kind="session", session_gap=5, allowed_lateness=16)
# the unrelated run: another window kind, size, detection mode and stream
OTHER = DEFAULT_CONFIG.with_(
    window_kind="sliding", window_size=48, window_slide=16, allowed_lateness=16,
    detection_mode="sticky",
)
N_ACTORS = 3


def _stream(d, n, *, n_sources, chunk=100, seed=42, rows_per_ts=None):
    """``n`` rows as time-ordered chunk files under ``d``; returns the table."""
    os.makedirs(d, exist_ok=True)
    extra = {} if rows_per_ts is None else {"rows_per_ts": rows_per_ts}
    for s in range(0, n, chunk):
        t = synth.generate_stream(
            min(chunk, n - s), start_row=s, seed=seed, n_sources=n_sources,
            n_tok_lo=48, n_tok_hi=128, disorder=6, **extra,
        )
        pq.write_table(t, os.path.join(d, f"chunk-{s:06d}.parquet"))
    return pa.concat_tables(
        [pq.read_table(os.path.join(d, f)) for f in sorted(os.listdir(d))]
    )


def _collect(out_dir):
    t = pa.concat_tables(
        [pa.table(b) for b in read_output(out_dir).iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    return t.drop_columns(["part"]) if "part" in t.column_names else t


def _drop_pool():
    """Forget every idle actor (their handles drop, so they exit): the next
    call runs on fresh actors."""
    with st._POOL_LOCK:
        st._POOL.update(session=None, idle={}, cap={})


def _idle_ids(cls):
    return {a._actor_id.hex() for a in st._POOL["idle"].get(cls, [])}


def _all_idle_ids():
    return {a._actor_id.hex() for handles in st._POOL["idle"].values() for a in handles}


def _state(actor):
    """An actor's instance state, read inside the actor, with handles made
    comparable."""

    def snapshot(self):  # nested: pickled by value into the actor
        d = dict(vars(self))
        if "actors" in d:
            d["actors"] = [a._actor_id.hex() for a in d["actors"]]
        return d

    return ray.get(actor.__ray_call__.remote(snapshot))


def _crash_then_resume(run):
    """Keyed engine with checkpoint resume: ``prepare`` crashes a
    checkpointed run, ``run`` resumes it."""

    def prepare(src, out):
        with pytest.raises(RuntimeError, match="injected stop"):
            run(src, out, checkpoint_every=2, _stop_after_batches=5)

    return prepare, lambda src, out: run(src, out, checkpoint_every=2)


def _keyed(src, out, **kw):
    return st.run_streaming(
        src, TUMBLING, n_actors=N_ACTORS, micro_batch_rows=64, out_dir=out,
        num_partitions=5, **kw,
    )


def _salted_mc(src, out, cfg=TUMBLING, micro_batch_rows=64):
    return st.run_streaming_salted_partitioned(
        src, cfg, n_actors=N_ACTORS, salt_buckets=3, n_partitions=2,
        micro_batch_rows=micro_batch_rows, out_dir=out, num_partitions=5,
    )[0]


def _no_prepare(src, out):
    pass


def _driver_collect(run):
    """``run`` without a sink: the output comes back on the result."""
    return lambda src, _out: run(src, None)


TOPOLOGIES = {
    "keyed": (_no_prepare, _keyed),
    "keyed_checkpoint_resume": _crash_then_resume(_keyed),
    # the unrelated run is sticky over the same source names, so a sticky
    # map that survived reset would change this run's tokens
    "salted": (_no_prepare, functools.partial(_salted_mc, cfg=STICKY)),
    "salted_sessions": (_no_prepare, functools.partial(_salted_mc, cfg=SESSION)),
    "salted_multi_consumer": (_no_prepare, _salted_mc),
    "keyed_driver_collect": (_no_prepare, _driver_collect(_keyed)),
    "salted_driver_collect": (_no_prepare, _driver_collect(_salted_mc)),
}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_warm_run_byte_identical_to_fresh(ray_session, tmp_path, topology):
    """The same run on fresh actors and on warm actors that just served an
    unrelated run (another window kind, detection mode, stream and sink
    dir) commits byte-identical output, and the warm run spawns nothing.
    The driver-collect topologies compare ``result.output`` after a
    driver-collect unrelated run: rows an actor held must not survive its
    reset."""
    prepare, run = TOPOLOGIES[topology]
    collect = topology.endswith("driver_collect")
    src = str(tmp_path / "src")
    _stream(src, 400, n_sources=3, rows_per_ts=1 if topology == "salted_sessions" else None)
    other = str(tmp_path / "other_src")
    _stream(other, 300, n_sources=5, seed=7)

    _drop_pool()
    prepare(src, str(tmp_path / "fresh"))
    _drop_pool()
    fresh = run(src, str(tmp_path / "fresh"))

    prepare(src, str(tmp_path / "warm"))
    _salted_mc(other, None if collect else str(tmp_path / "unrelated"), cfg=OTHER)
    warm_ids = _all_idle_ids()
    warm = run(src, str(tmp_path / "warm"))
    assert _all_idle_ids() == warm_ids  # every actor came from the pool

    assert warm.n_late == fresh.n_late == 0
    if collect:
        assert warm.output.num_rows == 400
        assert warm.output.equals(fresh.output)
    else:
        assert _collect(str(tmp_path / "warm")).equals(_collect(str(tmp_path / "fresh")))


def test_reset_actor_state_equals_fresh_actor(ray_session, tmp_path):
    """After ``reset`` a pooled actor's instance dict equals a freshly
    constructed actor's (keyed state actor, tracker and aggregator), and
    its state stats read zero."""
    src = str(tmp_path / "src")
    _stream(src, 300, n_sources=3)
    _drop_pool()
    _salted_mc(src, str(tmp_path / "dirty"), cfg=OTHER)  # leaves state behind
    pooled = _all_idle_ids()

    sink = st._sink_args(str(tmp_path / "next"), 5)
    with st._leased_actors(TUMBLING, N_ACTORS, 3, sink, aggregator=True) as (
        actors, tracker, agg,
    ):
        leased = {a._actor_id.hex() for a in [*actors, tracker, agg]}
        assert leased == pooled
        fresh_keyed = KeyedStateActor.remote(TUMBLING, **sink)
        fresh_tracker = WatermarkTracker.remote(3, TUMBLING.allowed_lateness)
        fresh_agg = st._SaltedAggregator.remote(TUMBLING, actors)
        want = _state(fresh_keyed)
        for a in actors:
            assert _state(a) == want
            assert ray.get(a.state_stats.remote()) == {
                "live_windows": 0, "live_hists": 0, "buffered_rows": 0,
                "n_late": 0, "n_emitted": 0,
            }
        assert _state(tracker) == _state(fresh_tracker)
        assert _state(agg) == _state(fresh_agg)


def test_crashed_call_returns_no_actor(ray_session, tmp_path):
    """A call stopped by ``_stop_after_batches`` returns none of its actors
    to the pool; the next call spawns new ones and is correct."""
    src = str(tmp_path / "src")
    table = _stream(src, 400, n_sources=3)
    _drop_pool()
    _keyed(src, str(tmp_path / "warmup"))
    crashed = _all_idle_ids()
    assert len(crashed) == N_ACTORS + 1

    with pytest.raises(RuntimeError, match="injected stop"):
        _keyed(src, str(tmp_path / "crash"), checkpoint_every=2, _stop_after_batches=3)
    assert _all_idle_ids() == set()

    res = st.run_streaming(src, TUMBLING, n_actors=N_ACTORS, micro_batch_rows=64)
    assert _all_idle_ids().isdisjoint(crashed)
    expected = golden.golden_pipeline(table, TUMBLING).sort_by("doc_id")
    assert res.output["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_new_ray_session_never_sees_old_handles(ray_session, tmp_path):
    """Shutting Ray down and starting a new session (as a benchmark's
    set-up does) leaves the old session's idle handles unused: the next
    call spawns fresh actors in the new session and is correct."""
    src = str(tmp_path / "src")
    table = _stream(src, 300, n_sources=3)
    st.run_streaming(src, TUMBLING, n_actors=N_ACTORS, micro_batch_rows=64)
    old_session, old_ids = st._ray_session(), _all_idle_ids()
    assert old_ids

    ray.shutdown()
    # same settings as conftest.ray_session, so later tests see the same cluster
    ray.init(
        address="local", num_cpus=4, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    assert st._ray_session() != old_session
    res = st.run_streaming(src, TUMBLING, n_actors=N_ACTORS, micro_batch_rows=64)
    assert st._POOL["session"] == st._ray_session()
    assert _all_idle_ids().isdisjoint(old_ids)
    expected = golden.golden_pipeline(table, TUMBLING).sort_by("doc_id")
    assert res.output["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_killed_idle_actor_replaced(ray_session, tmp_path):
    """An idle actor killed while pooled is replaced at the next lease,
    before any row is sent; the survivors are reused."""
    src = str(tmp_path / "src")
    table = _stream(src, 300, n_sources=3)
    _drop_pool()
    st.run_streaming(src, TUMBLING, n_actors=N_ACTORS, micro_batch_rows=64)
    victim = st._POOL["idle"][KeyedStateActor][0]
    victim_id = victim._actor_id.hex()
    survivors = _idle_ids(KeyedStateActor) - {victim_id}
    ray.kill(victim, no_restart=True)
    deadline = time.monotonic() + 60
    while True:  # wait until Ray reports the actor dead
        try:
            ray.get(victim.state_stats.remote())
        except ray.exceptions.RayActorError:
            break
        assert time.monotonic() < deadline, "killed actor still answers"
        time.sleep(0.1)
    del victim

    res = st.run_streaming(src, TUMBLING, n_actors=N_ACTORS, micro_batch_rows=64)
    ids = _idle_ids(KeyedStateActor)
    assert victim_id not in ids and survivors <= ids and len(ids) == N_ACTORS
    expected = golden.golden_pipeline(table, TUMBLING).sort_by("doc_id")
    assert res.output["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_salted_aggregator_keeps_finalize_error(ray_session, tmp_path):
    """A finalize that fails mid-stream (inside a ``maybe_finalize`` no one
    awaits) fails the call from ``final_flush`` instead of vanishing; the
    failed call returns nothing to the pool; and once that aggregator is
    leased again, ``reset`` clears the recorded error and the next call is
    byte-identical to a fresh run."""
    src = str(tmp_path / "src")
    # 25 micro-batches per consumer, so windows fall due long before the end
    _stream(src, 1600, n_sources=2)
    _drop_pool()
    _salted_mc(src, str(tmp_path / "fresh"), micro_batch_rows=32)
    (agg,) = st._POOL["idle"][st._SaltedAggregator]

    def fail_next_finalize(self):
        # patched on the class, so it survives reset; fails once
        cls = type(self)
        orig = cls._fan_out

        def failing(agg, items):
            if items and not getattr(cls, "_failed_once", False):
                cls._failed_once = True
                raise ValueError("injected finalize failure")
            return orig(agg, items)

        cls._fan_out = failing

    ray.get(agg.__ray_call__.remote(fail_next_finalize))

    with pytest.raises(ray.exceptions.RayTaskError, match="finalize at watermark"):
        _salted_mc(src, str(tmp_path / "failed"), micro_batch_rows=32)
    assert _all_idle_ids() == set()
    assert ray.get(agg.__ray_call__.remote(lambda self: self.error is not None))

    with st._POOL_LOCK:  # hand the failed aggregator to the next lease
        st._POOL["idle"][st._SaltedAggregator].append(agg)
    _salted_mc(src, str(tmp_path / "after"), micro_batch_rows=32)
    assert _idle_ids(st._SaltedAggregator) == {agg._actor_id.hex()}
    assert _collect(str(tmp_path / "after")).equals(_collect(str(tmp_path / "fresh")))


def test_pooled_actor_pins_layout_of_recreated_sink(ray_session, tmp_path):
    """A pooled actor outlives a sink directory: when the directory is
    deleted and written afresh, the actor records the layout marker again
    (its per-process layout cache must not vouch for a marker that is
    gone), so a later default resume still finds the pinned count."""
    import shutil

    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import pinned_partitions

    src = str(tmp_path / "src")
    _stream(src, 300, n_sources=3)
    out = str(tmp_path / "out")
    _drop_pool()
    _keyed(src, out)
    assert pinned_partitions(out) == 5
    shutil.rmtree(out)
    _keyed(src, out)
    assert pinned_partitions(out) == 5
