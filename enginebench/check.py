"""Output checker: conservation, planted-token property, golden equality.

Runs without Ray.  :func:`check_output` returns a list of violations; an
empty list means the committed output passed all three checks.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_watermark_removal_otsu_inpaint_ray import golden
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG, EngineConfig
from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import committed_partitions

# synth plants one watermark token per (source, block of this many ticks)
PLANT_BLOCK = DEFAULT_CONFIG.window_size
GOLDEN_SPAN = 384  # event-time ticks of the golden slice


def read_committed(out_dir: str) -> pa.Table:
    """The committed rows of a sink layout (staged and torn files excluded)."""
    parts = sorted(committed_partitions(out_dir))
    tables = [
        pq.read_table(
            os.path.join(out_dir, f"part={p:05d}", "data.parquet"),
            columns=["doc_id", "tokens", "wm_token"],
        )
        for p in parts
    ]
    if not tables:
        return pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "tokens": pa.array([], pa.list_(pa.int32())),
                "wm_token": pa.array([], pa.int32()),
            }
        )
    return pa.concat_tables(tables)


def _hash_u32(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`synth.hash_u32`."""
    m = np.uint64(0xFFFFFFFF)
    x = x.astype(np.uint64)
    x = ((x ^ (x >> np.uint64(16))) * np.uint64(0x45D9F3B)) & m
    x = ((x ^ (x >> np.uint64(16))) * np.uint64(0x45D9F3B)) & m
    return (x ^ (x >> np.uint64(16))) & m


def planted_token(src_idx: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The token synth plants for (source index, block)."""
    key = src_idx.astype(np.int64) * 1_000_003 + block.astype(np.int64)
    return (100 + _hash_u32(key) % np.uint64(151)).astype(np.int64)


def _window_bounds(ts: np.ndarray, cfg: EngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) of each row's governing window."""
    step = cfg.window_slide if cfg.window_kind == "sliding" else cfg.window_size
    start = golden.governing_window(ts, cfg) * step
    return start, start + cfg.window_size


def golden_slice(inp: pa.Table, cfg: EngineConfig, seed: int) -> pa.Table:
    """Golden output on a seeded, contiguous event-time slice of the input.

    Only rows whose governing window lies wholly inside the slice are kept:
    their window histograms see every row, so they must equal the full-run
    output byte for byte.
    """
    ts = inp["event_ts"].to_numpy()
    lo, hi = int(ts.min()), int(ts.max()) + 1
    span = min(GOLDEN_SPAN, hi - lo)
    t0 = int(np.random.default_rng(seed).integers(lo, hi - span + 1))
    t1 = t0 + span
    part = inp.filter(pa.array((ts >= t0) & (ts < t1)))
    start, end = _window_bounds(part["event_ts"].to_numpy(), cfg)
    keep = (start >= t0) & (end <= t1)
    out = golden.golden_pipeline(part, cfg).filter(pa.array(keep))
    return out.select(["doc_id", "tokens", "wm_token"]).sort_by("doc_id")


def _flat(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    arr = col.combine_chunks()
    return (
        pc.list_value_length(arr).to_numpy(zero_copy_only=False),
        pc.list_flatten(arr).to_numpy(zero_copy_only=False),
    )


def check_output(
    out: pa.Table, n_late: int, inp: pa.Table, expected: pa.Table, cfg: EngineConfig
) -> list[str]:
    """Violations of the committed output ``out`` against the input ``inp``.

    ``expected`` is :func:`golden_slice` of the same input and config.
    """
    bad: list[str] = []
    # conservation: every input doc_id committed exactly once, none late
    if n_late != 0:
        bad.append(f"{n_late} rows late")
    out = out.sort_by("doc_id")
    inp = inp.sort_by("doc_id")
    got = out["doc_id"].to_numpy(zero_copy_only=False)
    want = inp["doc_id"].to_numpy(zero_copy_only=False)
    n_dup = got.size - np.unique(got).size
    if n_dup:
        bad.append(f"{n_dup} doc_ids committed more than once")
    if got.size != want.size or not np.array_equal(got, want):
        missing = np.setdiff1d(want, got).size
        extra = np.setdiff1d(got, want).size
        bad.append(f"committed {got.size} rows for {want.size} inputs "
                   f"({missing} missing, {extra} not in the input)")
    if bad:
        return bad  # the row-aligned checks below need conservation

    # planted token: the row's wm_token is planted in a block its
    # governing window overlaps
    src_idx = pc.cast(pc.utf8_slice_codeunits(inp["source"], 3), pa.int64()).to_numpy()
    start, end = _window_bounds(inp["event_ts"].to_numpy(), cfg)
    wm = out["wm_token"].to_numpy(zero_copy_only=False).astype(np.int64)
    ok = np.zeros(wm.size, dtype=bool)
    first, last = start // PLANT_BLOCK, (end - 1) // PLANT_BLOCK
    for j in range(int((last - first).max()) + 1):
        block = first + j
        ok |= (block <= last) & (wm == planted_token(src_idx, block))
    if not ok.all():
        bad.append(f"{int((~ok).sum())} rows carry a wm_token not planted in their window")

    # golden equality on the slice
    if expected.num_rows == 0:
        bad.append("golden slice holds no whole window")
        return bad
    pos = np.searchsorted(got, expected["doc_id"].to_numpy(zero_copy_only=False))
    sel = out.take(pa.array(pos))
    if not np.array_equal(
        sel["wm_token"].to_numpy(zero_copy_only=False),
        expected["wm_token"].to_numpy(zero_copy_only=False),
    ):
        bad.append("wm_token differs from golden")
    got_len, got_tok = _flat(sel["tokens"])
    want_len, want_tok = _flat(expected["tokens"])
    if not (np.array_equal(got_len, want_len) and np.array_equal(got_tok, want_tok)):
        bad.append("tokens differ from golden")
    return bad
