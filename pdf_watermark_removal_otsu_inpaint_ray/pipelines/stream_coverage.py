"""Streaming per-key interval-union coverage pipeline: uptime/presence
accounting as live keyed state (batch twin
``functions/packing.py::grouped_interval_coverage`` — one definition,
two execution tiers, sharing the gaps-and-islands SQL oracle).

Single-read arrival-order consumption (the log contract of
:mod:`.streaming`); rows route to a :class:`CoverageStateActor` pool by
KEY hash (a key's intervals all meet one actor — the partitioning
assumption the per-actor island union relies on).  Interval union is a
commutative idempotent monoid, so there is no watermark and no late path
(the upsert-consumer rule): any arrival interleaving, micro-batch size,
and actor count yields the same island set.  Output is one row per key —
key-scale driver traffic, no sink-direct mode needed (the topk rule).

Checkpoint/resume: state is island-scale (tiny) but the LOG is not —
``checkpoint_every`` snapshots the actor island sets + consumed-batch
cursor into ``ckpt_dir`` so a killed run resumes by skipping replayed
micro-batches instead of re-reading the stream (kill-and-replay equal by
test).  No sink files ride the snapshot: the output is flush-only, so
the runtime's driver-output blob stays empty.
"""

from __future__ import annotations

import pyarrow as pa

from ..state.coverage_state import CoverageStateActor
from .streaming import StreamingResult, _drive, _key_route, _resume_or_fresh


def run_streaming_coverage(
    source,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts_us",
    hold: int = 3_600_000_000,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    compact_rows: int = 65536,
    ckpt_dir: str | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Run streaming coverage over a Parquet path / Dataset.  Ray must
    already be initialised by the caller.  Output is ``(key, covered_us,
    n_islands)``, byte-equal to ``grouped_interval_coverage`` over the
    same rows for any arrival interleaving."""
    _sink, resume = _resume_or_fresh(
        "coverage", f"coverage:{key_col}:{ts_col}:h={hold}", [source],
        n_actors=n_actors, micro_batch_rows=micro_batch_rows, ckpt_dir=ckpt_dir,
        checkpoint_every=checkpoint_every,
    )
    actors = [
        CoverageStateActor.remote(
            key_col=key_col, ts_col=ts_col, hold=hold, compact_rows=compact_rows
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, None, _key_route(key_col, n_actors), resume,
        lambda t: (
            pa.concat_tables(t).sort_by(key_col)
            if t
            else pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "covered_us": pa.array([], pa.int64()),
                    "n_islands": pa.array([], pa.int64()),
                }
            )
        ),
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches,
    )
