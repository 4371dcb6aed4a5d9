"""Cluster-derived execution knobs (config.scaled_parts / scaled_pool).

The contract: every tuned constant in the repo is the 32-cpu dev-box
special case; on a bigger cluster the fanout grows linearly with total
CPUs so per-core partition size stays constant, and it never drops below
the tuned base on smaller boxes (bench layouts unchanged at <=32 cpus).
"""
from unittest import mock

from pdf_watermark_removal_otsu_inpaint_ray import config as cfg


def test_explicit_value_wins():
    assert cfg.scaled_parts(64, 7) == 7
    assert cfg.scaled_parts(16, 1) == 1


def test_floor_at_base_on_small_boxes(ray_session):
    # the pytest session runs at num_cpus=4: every default must stay at
    # its tuned base so golden layouts and bench numbers are unchanged
    assert cfg.cluster_cpus() == 4
    assert cfg.scaled_parts(64) == 64
    assert cfg.scaled_parts(16) == 16
    assert cfg.scaled_pool(1, 4) == (1, 4)


def test_linear_scaling_with_cluster_cpus():
    with mock.patch.object(cfg, "cluster_cpus", return_value=32 * 256):
        # a 256-node x 32-cpu cluster: 256x the fanout, same bytes/core
        assert cfg.scaled_parts(64) == 64 * 256
        assert cfg.scaled_parts(16) == 16 * 256
        assert cfg.scaled_pool(2, 8) == (2, 8 * 256)
    with mock.patch.object(cfg, "cluster_cpus", return_value=48):
        assert cfg.scaled_parts(64) == 96  # 64 * 48 // 32


def test_pool_minimum_leaves_a_cpu_for_its_feeders():
    # a pool minimum that holds every cpu starves the read tasks that feed
    # it: on 2 cpus a (2, 4) pool keeps one actor warm
    with mock.patch.object(cfg, "cluster_cpus", return_value=2):
        assert cfg.scaled_pool(2, 4) == (1, 4)
        assert cfg.scaled_pool(1, 4) == (1, 4)
    with mock.patch.object(cfg, "cluster_cpus", return_value=1):
        assert cfg.scaled_pool(2, 4) == (1, 4)
    with mock.patch.object(cfg, "cluster_cpus", return_value=32):
        assert cfg.scaled_pool(2, 4) == (2, 4)
        assert cfg.scaled_pool(3, 2) == (3, 3)  # the max never drops below the min
    with mock.patch.object(cfg, "cluster_cpus", return_value=4):
        assert cfg.scaled_pool(2, 4) == (2, 4)


def test_uninitialised_ray_falls_back_to_reference_box():
    # driver-side planning without a Ray session sees the 32-cpu default
    with mock.patch("ray.is_initialized", return_value=False):
        assert cfg.cluster_cpus() == 32
        assert cfg.scaled_parts(64) == 64


class _Recorder:
    """A stand-in Dataset that records every ``map_batches`` function and
    returns itself from every other call, so a plan can be built without
    Ray and its per-batch functions run in this process."""

    def __init__(self):
        self.fns = []

    def map_batches(self, fn, **_kw):
        self.fns.append(fn)
        return self

    def __getattr__(self, _name):
        return lambda *a, **k: self


def test_group_pk_fanout_resolved_on_the_driver():
    """The group-key fanout of the grouped plans is fixed when the plan is
    built: a per-batch function that re-resolved it would hash one group
    into different partition counts once the cluster grows mid-run."""
    import numpy as np
    import pyarrow as pa

    from pdf_watermark_removal_otsu_inpaint_ray import queries
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.windows import session_windows

    rng = np.random.default_rng(5)
    users = pa.array(rng.integers(0, 1 << 40, 500), pa.int64())
    ts = pa.array(rng.integers(0, 1 << 30, 500), pa.int64())
    words = pa.array([f"w{i}" for i in range(500)])

    def pk_fn(build, **patches):
        rec = _Recorder()
        with mock.patch.object(cfg, "cluster_cpus", return_value=32):
            if "read_parquet" in patches:
                with mock.patch("ray.data.read_parquet", return_value=rec):
                    build(rec)
            elif "docs_ds" in patches:
                with mock.patch.object(queries, "_docs_ds", return_value=rec):
                    build(rec)
            else:
                build(rec)
        return rec.fns[-1]

    plans = [
        (pk_fn(session_windows), pa.table({"user_id": users, "ts": ts})),
        (
            pk_fn(lambda _rec: queries.q_events_gap_hist("unused"), read_parquet=True),
            pa.table({"user_id": users, "ts_us": ts}),
        ),
        (
            pk_fn(lambda _rec: queries.q_zipf_slope("unused"), docs_ds=True),
            pa.table({"s": users.cast(pa.string()), "w": words, "c": ts}),
        ),
    ]
    for fn, batch in plans:
        with mock.patch.object(cfg, "cluster_cpus", return_value=32):
            before = fn(batch)["pk"].to_pylist()
        with mock.patch.object(cfg, "cluster_cpus", return_value=32 * 64):
            after = fn(batch)["pk"].to_pylist()
        assert before == after
