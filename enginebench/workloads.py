"""The benchmark's three workloads: input make-up, engine config and job.

Each workload is one repetition of one public engine entry point writing
through the exactly-once sink.  A job takes the input directory and a fresh
sink directory and returns a :class:`JobResult`; it never sees the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_watermark_removal_otsu_inpaint_ray import synth
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG, EngineConfig

N_TOK_LO, N_TOK_HI = 128, 512
DISORDER = 8  # below allowed_lateness (16): no row is late by construction
N_FILES = 4  # input chunks in arrival order; the salted consumers split them


@dataclass(frozen=True)
class JobResult:
    n_late: int
    report: pa.Table  # per-partition commit report of the main layout
    finalize_tasks: int  # _finalize_partition tasks the job ran (main + late)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # input sequences per repetition
    n_sources: int
    cfg: EngineConfig
    job: Callable[["Workload", str, str], JobResult]
    n_actors: int = 0  # state actors (streams only)
    knobs: tuple = ()  # (name, value) pairs passed to the entry point


def write_input(path: str, n_rows: int, seed: int, n_sources: int) -> None:
    """Write one seeded stream as ``N_FILES`` time-ordered Parquet chunks."""
    os.makedirs(path, exist_ok=True)
    table = synth.generate_stream(
        n_rows,
        seed=seed,
        n_sources=n_sources,
        n_tok_lo=N_TOK_LO,
        n_tok_hi=N_TOK_HI,
        disorder=DISORDER,
    )
    step = -(-n_rows // N_FILES)
    for i in range(N_FILES):
        pq.write_table(table.slice(i * step, step), os.path.join(path, f"chunk-{i:03d}.parquet"))


def _flagship(wl: Workload, src: str, out_dir: str) -> JobResult:
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import write_exactly_once
    from pdf_watermark_removal_otsu_inpaint_ray.sources.parquet import read_sequences
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import compute_wm_table

    wm = compute_wm_table(read_sequences(src), wl.cfg)
    report = write_exactly_once(
        run_flagship(read_sequences(src), wl.cfg, wm=wm), out_dir, **dict(wl.knobs)
    )
    return JobResult(0, report, report.num_rows)


def _sink_result(res) -> JobResult:
    return JobResult(
        res.n_late, res.commit_report, res.commit_report.num_rows + res.late_report.num_rows
    )


def _keyed(wl: Workload, src: str, out_dir: str) -> JobResult:
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

    res = run_streaming(src, wl.cfg, n_actors=wl.n_actors, out_dir=out_dir, **dict(wl.knobs))
    return _sink_result(res)


def _salted(wl: Workload, src: str, out_dir: str) -> JobResult:
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
        run_streaming_salted_partitioned,
    )

    res, _metrics = run_streaming_salted_partitioned(
        src, wl.cfg, n_actors=wl.n_actors, out_dir=out_dir, **dict(wl.knobs)
    )
    return _sink_result(res)


TUMBLING = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=64)
SLIDING = DEFAULT_CONFIG.with_(window_kind="sliding", window_size=64, window_slide=16)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "flagship_tumbling", rows=16000, n_sources=8, cfg=TUMBLING, job=_flagship,
            knobs=(("num_partitions", 16),),
        ),
        Workload(
            "stream_keyed_ckpt", rows=24000, n_sources=64, cfg=TUMBLING, job=_keyed,
            n_actors=4,
            knobs=(("micro_batch_rows", 512), ("checkpoint_every", 4), ("num_partitions", 8)),
        ),
        Workload(
            "stream_salted_sliding", rows=24000, n_sources=8, cfg=SLIDING, job=_salted,
            n_actors=4,
            knobs=(
                ("salt_buckets", 4), ("n_partitions", 2),
                ("micro_batch_rows", 1024), ("num_partitions", 8),
            ),
        ),
    )
}
