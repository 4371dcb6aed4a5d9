"""Streaming changelog materialization pipeline: a live keyed upsert log
→ the latest-version-per-key table (the Flink upsert-sink / Kafka
compacted-topic shape; batch twin ``functions/packing.py::grouped_latest``).

Single-read arrival-order consumption, rows routed to an
:class:`UpsertStateActor` pool by KEY hash.  Latest-per-key is a
commutative monoid, so there is no watermark and no late path — any
arrival interleaving, micro-batch size, and actor count yields the same
materialized state (asserted by the layout-invariance tests).  Sink mode
(``out_dir``): each actor's final state stages straight into the
exactly-once layout; the driver moves manifests only.
"""

from __future__ import annotations

import pyarrow as pa

from ..state.upsert_state import UpsertStateActor
from .streaming import StreamingResult, _drive, _key_route, _resume_or_fresh


def run_streaming_latest(
    source,
    *,
    group_col: str = "user_id",
    order_col: str = "ts_us",
    tiebreak_col: str = "event_id",
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    compact_rows: int = 65536,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Materialize the latest row per key over a Parquet path / Dataset
    changelog.  Ray must already be initialised by the caller.  Output is
    byte-equal to ``grouped_latest`` over the same rows (the
    ``row_number() = 1`` window twin).  ``checkpoint_every``: the streaming
    runtime's snapshot protocol (state + per-batch delta buffer ride the
    actor blobs; no watermark to restore — the monoid commutes)."""
    sink, resume = _resume_or_fresh(
        "latest", f"latest:{group_col}:{order_col}:{tiebreak_col}", [source],
        n_actors=n_actors, micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        UpsertStateActor.remote(
            group_col=group_col, order_col=order_col, tiebreak_col=tiebreak_col,
            compact_rows=compact_rows, **sink,
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, None, _key_route(group_col, n_actors), resume,
        lambda t: pa.concat_tables(t).sort_by(group_col).drop_columns(["doc_id"]) if t else None,
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches,
    )
