"""Streaming CEP pipelines: the staged funnel over a live keyed event log.

Single-read arrival-order consumption (same log contract as
:mod:`.streaming`), rows routed to a :class:`FunnelStateActor` pool by
GROUP-KEY hash (a key's whole event history meets one actor — the
partitioning assumption; user-id hashes are uniform, so no salting).  The
watermark tracker drives the chain: a row enters its key's stage chain
only once no earlier-ts row can still arrive, making every stage
threshold — and therefore the whole funnel row set — a pure function of
the event-time order, independent of arrival interleaving, micro-batch
size, and actor count.

Sink mode (``out_dir``): funnel rows stage from each actor straight into
the exactly-once layout at flush; late rows to ``<out_dir>/_late``; the
driver moves manifests only.  ``checkpoint_every``: the streaming
runtime's snapshot contract (``streaming._drive`` / ``_resume_or_fresh``:
key/threshold state pickles, staged manifest truncates, the skipped prefix
is the log re-read).
"""

from __future__ import annotations

import pyarrow as pa

from ..state.funnel_state import FunnelStateActor
from ..state.watermark_tracker import WatermarkTracker
from .streaming import StreamingResult, _drive, _key_route, _resume_or_fresh


def run_streaming_funnel(
    source,
    *,
    steps: tuple[str, ...] = ("signup", "view", "purchase"),
    within: int | None = None,
    group_col: str = "user_id",
    ts_col: str = "ts_us",
    seq_col: str = "event_id",
    type_col: str = "event_type",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Run the streaming staged funnel over a Parquet path / Dataset.  Ray
    must already be initialised by the caller.  Emits ONE row per distinct
    group key at end-of-stream — ``(group, ts_<step>..., stage)`` with -1
    for unreached stages — byte-equal to the batch ``functions/cep.funnel``
    over the same rows whenever no row goes late."""
    sink, resume = _resume_or_fresh(
        "funnel", f"funnel:{','.join(steps)}:w={within}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        FunnelStateActor.remote(
            steps=steps, within=within, group_col=group_col, ts_col=ts_col,
            seq_col=seq_col, type_col=type_col, **sink,
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(group_col, n_actors), resume,
        lambda t: pa.concat_tables(t).sort_by(group_col).drop_columns(["doc_id"]) if t else None,
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col=ts_col,
    )


def run_streaming_rate_limit(
    source,
    *,
    window_us: int = 3_600_000_000,
    k: int = 3,
    group_col: str = "user_id",
    ts_col: str = "ts_us",
    seq_col: str = "event_id",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Streaming per-(key, tumbling-window) rate limit (state/
    ratelimit_state.py): keep each key's first ``k`` rows per window in
    EVENT time; emit ``(group, window_id, ts, seq, rn)`` — equal to the
    batch ``functions/cep.rate_limit`` over the same rows whenever no row
    goes late.  State is O(active windows): closed windows evict at
    watermark passage.  Same driver loop, sink mode, and checkpoint
    protocol as the funnel."""
    from ..state.ratelimit_state import RateLimitStateActor

    sink, resume = _resume_or_fresh(
        "rate-limit", f"ratelimit:w={window_us}:k={k}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        RateLimitStateActor.remote(
            window_us=window_us, k=k, group_col=group_col, ts_col=ts_col,
            seq_col=seq_col, **sink,
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(group_col, n_actors), resume,
        lambda t: (
            pa.concat_tables(t).sort_by([(seq_col, "ascending")]).drop_columns(["doc_id"])
            if t
            else None
        ),
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col=ts_col,
    )


def run_streaming_attribution(
    source,
    *,
    rule: str = "last",
    touch: str = "click",
    convert: str = "purchase",
    window: int = 604_800_000_000,
    group_col: str = "user_id",
    ts_col: str = "ts_us",
    seq_col: str = "event_id",
    type_col: str = "event_type",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Streaming last-touch attribution over a Parquet path / Dataset
    (state/attribution_state.py): conversions attribute INCREMENTALLY as
    the watermark finalizes them; per-key state is one carried touch.
    With lateness covering the stream's disorder the emitted set is
    byte-equal to the batch ``grouped_attribution`` — one definition,
    two execution tiers, one SQL twin."""
    from ..state.attribution_state import AttributionStateActor
    from ..state.firsttouch_state import FirstTouchStateActor

    if rule not in ("last", "first"):
        raise ValueError(f"unknown attribution rule {rule!r}")
    sink, resume = _resume_or_fresh(
        "attribution", f"attrib-{rule}:{touch}->{convert}:w={window}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        (AttributionStateActor if rule == "last" else FirstTouchStateActor).remote(
            touch=touch, convert=convert, window=window, group_col=group_col,
            ts_col=ts_col, seq_col=seq_col, type_col=type_col, **sink,
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(group_col, n_actors), resume,
        lambda t: (
            pa.concat_tables(t).sort_by("conv_id")
            if t
            else pa.table(
                {
                    group_col: pa.array([], pa.int64()),
                    "conv_id": pa.array([], pa.int64()),
                    ts_col: pa.array([], pa.int64()),
                    "touch_id": pa.array([], pa.int64()),
                }
            )
        ),
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col=ts_col,
    )


def run_streaming_session_stats(
    source,
    *,
    gap: int = 86_400_000_000,
    group_col: str = "user_id",
    ts_col: str = "ts_us",
    seq_col: str = "event_id",
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Streaming per-session aggregates (state/sessionstats_state.py):
    gap sessions close the moment the watermark proves no row can extend
    them (end + gap < wm) and emit one row each — the Flink
    session-window-with-aggregate shape.  With lateness covering the
    stream's disorder the emitted set is byte-equal to the batch
    ``grouped_session_stats`` — one definition, two tiers, one twin."""
    from ..state.sessionstats_state import SessionStatsActor

    sink, resume = _resume_or_fresh(
        "session-stats", f"sessstats:g={gap}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        SessionStatsActor.remote(
            gap=gap, group_col=group_col, ts_col=ts_col, seq_col=seq_col, **sink
        )
        for _ in range(n_actors)
    ]
    return _drive(
        [source], actors, WatermarkTracker.remote(1, allowed_lateness),
        _key_route(group_col, n_actors), resume,
        lambda t: (
            pa.concat_tables(t).sort_by([(group_col, "ascending"), ("session_id", "ascending")])
            if t
            else pa.table(
                {
                    group_col: pa.array([], pa.int64()),
                    "session_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "start_us": pa.array([], pa.int64()),
                    "end_us": pa.array([], pa.int64()),
                    "duration_us": pa.array([], pa.int64()),
                }
            )
        ),
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col=ts_col,
    )
