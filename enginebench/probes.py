"""Per-layer probes: timers around single engine layers, run after the timed
region of a traced run.  Kernel probes run in this process without Ray."""

from __future__ import annotations

import itertools
import os
import statistics
import time

import numpy as np
import pyarrow as pa

from pdf_watermark_removal_otsu_inpaint_ray import golden
from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import write_exactly_once
from pdf_watermark_removal_otsu_inpaint_ray.sources.parquet import read_sequences
from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import (
    HistogramPartials,
    compute_wm_table,
)
from pdf_watermark_removal_otsu_inpaint_ray.stages.kernels import (
    flatten_list_column,
    process_batch_flat,
)

REPEATS = 3
FLAGSHIP_PHASES = (
    "sources.parquet.scan_s",
    "stages.detect.wm_table_s",
    "pipelines.flagship.rewrite_s",
    "sinks.exactly_once.write_s",
)


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _wm_rows(batch: pa.Table, wm: dict, cfg) -> np.ndarray:
    win = golden.governing_window(batch["event_ts"].to_numpy(), cfg)
    src = batch["source"].to_pylist()
    return np.array([wm.get((s, int(w)), (-1, 0.0))[0] for s, w in zip(src, win)], np.int32)


def kernels(inp: pa.Table, wm: dict, cfg) -> dict[str, float]:
    """Mpos/s of phase-1 histogram partials and of the flat rewrite kernel,
    on the input's batches at the flagship's batch sizes (4096 and 1024)."""
    mpos = sum(inp["n_tok"].to_pylist()) / 1e6
    hist_batches = inp.to_batches(max_chunksize=4096)
    partials = HistogramPartials(cfg)
    rw = [
        (flatten_list_column(b["tokens"]), _wm_rows(pa.Table.from_batches([b]), wm, cfg))
        for b in inp.to_batches(max_chunksize=1024)
    ]

    def hist():
        for b in hist_batches:
            partials(pa.Table.from_batches([b]))

    def rewrite():
        for fb, wm_row in rw:
            process_batch_flat(fb, wm_row, cfg)

    return {
        "stages.kernels.hist_mpos_per_s": mpos / _median_time(hist),
        "stages.kernels.rewrite_mpos_per_s": mpos / _median_time(rewrite),
    }


def flagship_phases(src: str, cfg, n_rows: int, out_root: str) -> dict[str, float]:
    """Timers around the flagship's public calls (Ray must be up)."""

    def scan():
        n = sum(b.num_rows for b in read_sequences(src).iter_batches(batch_format="pyarrow"))
        if n != n_rows:
            raise RuntimeError(f"scan counted {n} rows, expected {n_rows}")

    wm = compute_wm_table(read_sequences(src), cfg)

    def rewrite():
        ds = run_flagship(read_sequences(src), cfg, wm=wm)
        sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))

    runs = itertools.count()

    def write():  # every write needs a fresh sink directory
        out = os.path.join(out_root, f"probe-{next(runs)}")
        write_exactly_once(run_flagship(read_sequences(src), cfg, wm=wm), out, num_partitions=16)

    rewrite_s = _median_time(rewrite)
    return {
        "sources.parquet.scan_s": _median_time(scan),
        "stages.detect.wm_table_s": _median_time(lambda: compute_wm_table(read_sequences(src), cfg)),
        "pipelines.flagship.rewrite_s": rewrite_s,
        "sinks.exactly_once.write_s": _median_time(write) - rewrite_s,
    }
