"""Two-log streaming stateful join pipeline (symmetric interval join).

Both logs are consumed in arrival order (same log contract as
:mod:`.streaming`), round-robin interleaved so neither side's frontier
races ahead; rows route to a :class:`JoinStateActor` pool by KEY hash
(both sides of a key meet the same actor — the co-location assumption
this operator relies on; salting a hot key would require splitting ONE
side only, since pairs form across sides).  The watermark is the min of
the two logs' frontiers minus lateness; each log closes its tracker
partition when it ends, so a shorter log stops holding eviction back.

Pair emission is at second-arrival (set-deterministic — see
state/join_state.py); sink mode stages pairs from the actors straight
into the exactly-once layout keyed by a deterministic pair id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.dedup_state import _splitmix_route
from ..state.join_state import JoinStateActor, TemporalJoinActor
from ..state.watermark_tracker import WatermarkTracker
from .streaming import StreamingResult, _by_actor, _drive, _key_route, _resume_or_fresh


def _normalize(batch: pa.Table, key: str, seq: str, ts: str) -> pa.Table:
    return pa.table(
        {
            "key": batch[key].cast(pa.int64()),
            "seq": batch[seq].cast(pa.int64()),
            "ts": batch[ts].cast(pa.int64()),
        }
    )


def run_streaming_join(
    left_source,
    right_source,
    *,
    band: int | None = None,
    band_lo: int | None = None,
    band_hi: int | None = None,
    left_cols: tuple[str, str, str] = ("key", "seq", "event_ts"),
    right_cols: tuple[str, str, str] = ("key", "seq", "event_ts"),
    allowed_lateness: int = 1,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    mode: str = "inner",
    checkpoint_every: int | None = None,
    hot_keys: tuple = (),
    n_salt: int = 1,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Streaming interval equi-join of two logs: emit (key, l_seq, l_ts,
    r_seq, r_ts) for every pair with equal keys and ``band_lo <= r_ts -
    l_ts <= band_hi`` (``band`` = the symmetric ``|l_ts - r_ts| <= band``
    shorthand).  ``*_cols`` = (key, seq, ts) column names per side.  Ray
    must already be initialised by the caller.  ``mode="left_outer"`` also
    emits (key, l_seq, l_ts, -1, -1) for every left row whose band closes
    without a match — the null row fires exactly once, when the watermark
    proves no in-band partner can still arrive; ``mode="full_outer"``
    additionally emits (key, -1, -1, r_seq, r_ts) for unmatched rights.

    ``checkpoint_every`` (sink mode only): every N consumed micro-batches
    (across both logs), drain in-flight ingests, snapshot the join buffers
    + matched bitmaps + staged-file manifest, and publish an atomic
    checkpoint under ``out_dir/_checkpoints`` (pipelines/checkpoint.py —
    the same contract as the keyed-window engine).  When a checkpoint
    exists under ``out_dir``, a rerun RESUMES: actor buffers restore, the
    staged log truncates to the snapshot manifest, and the first
    ``batch_index`` micro-batches of the SAME round-robin interleaving
    skip (the re-read of both logs is the lineage; only the tail
    replays).  The sink's doc_id dedup then commits byte-identical to an
    uninterrupted run.

    ``hot_keys`` + ``n_salt``: HOT-KEY SALTING for skewed logs — a hot
    key's LEFT rows split across ``n_salt`` consecutive actor slots by a
    deterministic hash of their seq, and its RIGHT rows REPLICATE to all
    ``n_salt`` slots (pairs form across sides, so exactly one side may
    split — the asymmetric-replication rule of every salted join; cf. the
    batch ``salted_skew_join``).  Each left row lives in exactly ONE
    actor, so every pair still emits exactly once and left-outer nulls
    still fire exactly once; ``full_outer`` is rejected with salting
    (replicated rights would emit their null S times).  Right-side late
    rows count once per REPLICA in the side output (documented).
    Requires ``n_salt <= n_actors`` (consecutive slots must be distinct
    actors, or two replicas of one right row would meet and double-pair).
    """
    if n_salt > 1:
        if mode == "full_outer":
            raise ValueError("hot-key salting cannot run full_outer "
                             "(replicated rights would null-emit per replica)")
        if n_salt > n_actors:
            raise ValueError("n_salt must be <= n_actors (salt slots must "
                             "be distinct actors)")
    hot = (
        np.array(sorted(int(k) for k in hot_keys), np.int64)
        if hot_keys and n_salt > 1
        else None
    )
    sink, resume = _resume_or_fresh(
        "join",
        f"band({band},{band_lo},{band_hi}):mode={mode}:salt={n_salt}"
        f":hot={','.join(str(int(k)) for k in sorted(hot_keys))}",
        [left_source, right_source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [
        JoinStateActor.remote(band=band, band_lo=band_lo, band_hi=band_hi, mode=mode, **sink)
        for _ in range(n_actors)
    ]

    def route(side: int, batch: pa.Table) -> list:
        keys = np.asarray(batch["key"], np.int64)
        base = _splitmix_route(keys, n_actors)
        if hot is None:
            return _by_actor(base, n_actors)
        is_hot = np.isin(keys, hot)
        plan = [(a, np.nonzero((~is_hot) & (base == a))[0]) for a in range(n_actors)]
        hidx = np.nonzero(is_hot)[0]
        if hidx.size:
            if side == 0:
                # left rows SPLIT: salt by seq hash → one slot each
                salt = _splitmix_route(np.asarray(batch["seq"], np.int64)[hidx], n_salt)
                act = (base[hidx] + salt) % n_actors
                plan += [(int(a), hidx[act == a]) for a in np.unique(act)]
            else:
                # right rows REPLICATE to every salt slot
                for j in range(n_salt):
                    act = (base[hidx] + j) % n_actors
                    plan += [(int(a), hidx[act == a]) for a in np.unique(act)]
        return plan

    cols = [left_cols, right_cols]
    return _drive(
        [left_source, right_source], actors, WatermarkTracker.remote(2, allowed_lateness),
        route, resume,
        lambda t: (
            pa.concat_tables(t).sort_by([("l_seq", "ascending"), ("r_seq", "ascending")])
            if t
            else None
        ),
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col="ts",
        prepare=lambda side, b: _normalize(b, *cols[side]),
        # both logs ended: flush the remaining unmatched rows
        end=None if mode == "inner" else "flush_outer",
    )


def run_streaming_temporal_join(
    dim_source,
    event_source,
    *,
    dim_cols: tuple[str, str, str] = ("key", "seq", "event_ts"),
    event_cols: tuple[str, str, str] = ("key", "seq", "event_ts"),
    allowed_lateness: int = 1,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Streaming TEMPORAL TABLE join (Flink-style versioned-dimension
    enrichment): every event row emits exactly once with (key, e_seq,
    e_ts, d_seq, d_ts) where d is the dimension log's latest version for
    the key with ``d_ts <= e_ts`` (ties → highest d_seq), or (-1, -1)
    when no version exists yet — LEFT semantics.  Same log/consumption
    contract as :func:`run_streaming_join`: both logs round-robin
    interleaved, rows route by key hash, the watermark is the min of the
    two frontiers minus lateness, a closing log releases its tracker
    partition, late rows route to the side output.  Events buffer in the
    actors until the watermark passes their timestamp (dimension history
    then provably complete — see TemporalJoinActor); a final ``drain``
    flushes the tail once both logs end.

    ``checkpoint_every`` / resume: the same snapshot contract as
    :func:`run_streaming_join` (dimension + pending-event buffers pickle;
    staged manifest truncates; the deterministic round-robin interleaving
    makes the skipped prefix line up)."""
    sink, resume = _resume_or_fresh(
        "join", "temporal", [dim_source, event_source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    actors = [TemporalJoinActor.remote(**sink) for _ in range(n_actors)]
    cols = [dim_cols, event_cols]
    return _drive(
        [dim_source, event_source], actors, WatermarkTracker.remote(2, allowed_lateness),
        _key_route("key", n_actors), resume,
        lambda t: pa.concat_tables(t).sort_by([("e_seq", "ascending")]) if t else None,
        micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
        stop_after=_stop_after_batches, ts_col="ts",
        prepare=lambda side, b: _normalize(b, *cols[side]),
        # both logs closed: drain the buffered event tails
        end="drain",
    )


def run_streaming_timeouts(
    anchor_source,
    cancel_source,
    *,
    horizon: int,
    anchor_cols: tuple[str, str, str] = ("key", "seq", "event_ts"),
    cancel_cols: tuple[str, str, str] = ("key", "seq", "event_ts"),
    allowed_lateness: int = 1,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    hot_keys: tuple = (),
    n_salt: int = 1,
) -> StreamingResult:
    """Streaming ABSENCE (timeout) detection — the negative CEP pattern:
    emit (key, anchor_seq, anchor_ts) for every anchor event that is NOT
    followed by a same-key cancel event within ``(anchor_ts, anchor_ts +
    horizon]``; the alert fires exactly once, when the watermark passes
    ``anchor_ts + horizon`` and proves no non-late cancel can still
    arrive.  The "signup with no purchase in N days" / "order with no
    payment" monitor.

    Composition, not new state: this is the LEFT-OUTER streaming interval
    join with the DIRECTED band (band_lo=1 — strictly after, integer
    timestamps — band_hi=horizon), filtered to the null rows.  All the
    join-state guarantees carry over verbatim: bounded buffers (one
    horizon+lateness window per actor), late-row routing, and
    emission-order independence (the alert set is a pure function of the
    two logs).

    Reference analog: the sticky-detection inverse — T1 latches the FIRST
    match per key (detect.py sticky mode); this latches the proven
    ABSENCE of a match per anchor."""
    res = run_streaming_join(
        anchor_source,
        cancel_source,
        band_lo=1,
        band_hi=horizon,
        left_cols=anchor_cols,
        right_cols=cancel_cols,
        allowed_lateness=allowed_lateness,
        n_actors=n_actors,
        micro_batch_rows=micro_batch_rows,
        mode="left_outer",
        hot_keys=hot_keys,
        n_salt=n_salt,
    )
    if res.output is None:
        out = pa.table(
            {
                "key": pa.array([], pa.int64()),
                "anchor_seq": pa.array([], pa.int64()),
                "anchor_ts": pa.array([], pa.int64()),
            }
        )
    else:
        import pyarrow.compute as pc

        t = res.output
        nulls = t.filter(pc.equal(t["r_seq"], -1))
        out = pa.table(
            {
                "key": nulls["key"],
                "anchor_seq": nulls["l_seq"],
                "anchor_ts": nulls["l_ts"],
            }
        )
    return StreamingResult(
        output=out,
        late=res.late,
        n_late=res.n_late,
        actor_stats=res.actor_stats,
    )
