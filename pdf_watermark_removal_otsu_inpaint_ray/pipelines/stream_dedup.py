"""Streaming duplicate suppression pipeline: at-least-once source →
exactly-once row set.

Single-read arrival-order consumption (same log contract as
:mod:`.streaming`), rows routed to a :class:`DedupStateActor` pool by
IDENTITY hash (all occurrences of an identity meet the same actor — the
partitioning assumption this operator relies on; identity hashes are
uniform by construction, so no salting is needed even under source skew).
The watermark tracker drives the sweep: a row's keep/dup decision
finalizes only when no earlier-ts row can still arrive, making the output
a pure function of the event-time order — independent of arrival
interleaving, micro-batch size, and actor count.

Sink mode (``out_dir``): kept rows flow from each actor straight into the
exactly-once staged layout; late rows to ``<out_dir>/_late``; the driver
moves manifests only.  Duplicates are counted per actor (their whole point
is to be dropped) — ``state_stats`` carries ``n_dup``.
"""

from __future__ import annotations

import pyarrow as pa

from ..state.dedup_state import DedupStateActor
from ..state.watermark_tracker import WatermarkTracker
from .streaming import StreamingResult, _drive, _key_route, _resume_or_fresh


def run_streaming_dedup(
    source,
    *,
    horizon: int | None = None,
    id_col: str = "dedup_id",
    ts_col: str = "event_ts",
    seq_col: str = "doc_id",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Run streaming dedup over a Parquet path / Dataset.  Ray must already
    be initialised by the caller.  ``horizon``: event-time TTL of a kept
    identity (None = suppress duplicates forever; state then grows with
    distinct identities, the inherent exact-dedup bound).

    ``checkpoint_every`` / resume: the streaming runtime's snapshot
    contract (pipelines/streaming.py ``_drive`` / ``_resume_or_fresh``) —
    identity state + pending buffers pickle, staged manifest truncates, the
    skipped prefix is the log re-read."""
    sink, resume = _resume_or_fresh(
        "dedup", f"dedup:h={horizon}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        DedupStateActor.remote(
            horizon=horizon, id_col=id_col, ts_col=ts_col, seq_col=seq_col, **sink
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(id_col, n_actors), resume,
        lambda t: pa.concat_tables(t).sort_by(seq_col) if t else None,
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col=ts_col,
    )
