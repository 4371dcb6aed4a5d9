"""Incremental streaming execution: micro-batches → keyed state actor pool.

The batch flagship (flagship.py) reads the stream twice (histograms, then
rewrite).  This engine reads it ONCE, in arrival order, holding only live
windows in actor state — the true structured-streaming form of the north
star: per-source histograms accumulate incrementally, windows finalize when
the global watermark (WatermarkTracker, min across input partitions −
allowed_lateness) passes their end, state is evicted on emit, late rows go
to a counted side output.

Two inpaint engines share the state actors and the decide step
(``state.keyed_state``).  ``run_streaming`` is the single-consumer,
checkpointable one: the driver reads the log as Arrow micro-batches and
routes each row to ``hash(source) % n_actors``, so all rows of one source
meet the same actor, which decides its windows in-process.
``run_streaming_salted_partitioned`` is the multi-consumer one: one
consumer task per input partition salts a hot source's rows over several
actors, and a ``_SaltedAggregator`` merges their histogram partials
(associative) and decides.  Neither driver moves token data, only object
refs and watermark updates.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray

from ..config import DEFAULT_CONFIG, EngineConfig, scaled_parts
from ..sinks.exactly_once import hash_partition_ids
from ..stages.inpaint import REWRITTEN_SCHEMA
from ..state import Resettable
from ..state.keyed_state import KeyedStateActor, _WindowDecisions
from ..state.watermark_tracker import WatermarkTracker


def _resolve_parquet_paths(source: str) -> list[str]:
    """A stream source path → its file list in guaranteed arrival order
    (lexicographic — stream chunks are named in time order).  ONE definition
    shared by the single-consumer and multi-consumer engines so their notion
    of arrival order can never desynchronize; the file rule is the one
    ``read_sequences`` gives Ray Data (``sources.parquet.is_parquet_file``)."""
    import os

    from ..sources.parquet import is_parquet_file

    if os.path.isdir(source):
        return sorted(
            os.path.join(source, f) for f in os.listdir(source) if is_parquet_file(f)
        )
    return [source]


def _arrival_batches(source, micro_batch_rows: int):
    """Yield Arrow micro-batches in guaranteed arrival order.

    A stream source is a LOG, not a batch scan: for paths we read files in
    lexicographic order, row group by row group via pyarrow (memory-bounded,
    no Ray Data read — a parallel scan interleaves fragments and would
    teleport the watermark).  A Dataset input is iterated with
    ``preserve_order`` and is only order-safe for single-fragment inputs.
    """
    import os

    import pyarrow.parquet as pq_

    from ..sources.parquet import _ensure_event_ts

    if isinstance(source, str):
        source = _resolve_parquet_paths(source)
    if isinstance(source, (list, tuple)):
        for path in source:
            pf = pq_.ParquetFile(path)
            for rb in pf.iter_batches(batch_size=micro_batch_rows):
                yield _ensure_event_ts(pa.Table.from_batches([rb]))
    else:
        from ray.data import DataContext

        # a Dataset snapshots its DataContext at creation — setting the
        # global context here would silently NOT apply; flip the flag on the
        # dataset's own captured context (and the global one, for lineage
        # created during iteration)
        ctx = DataContext.get_current()
        prev = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = True
        ds_ctx = getattr(source, "context", None)
        ds_prev = None
        if ds_ctx is not None:
            ds_prev = ds_ctx.execution_options.preserve_order
            ds_ctx.execution_options.preserve_order = True
        try:
            for b in source.iter_batches(batch_size=micro_batch_rows, batch_format="pyarrow"):
                yield _ensure_event_ts(pa.table(b) if not isinstance(b, pa.Table) else b)
        finally:
            ctx.execution_options.preserve_order = prev
            if ds_ctx is not None:
                ds_ctx.execution_options.preserve_order = ds_prev


@dataclass
class StreamingResult:
    output: pa.Table | None  # None in sink mode: rows live under out_dir
    late: pa.Table | None  # None in sink mode: read with read_late(out_dir)
    n_late: int
    actor_stats: list[dict] = field(default_factory=list)
    out_dir: str | None = None
    commit_report: pa.Table | None = None
    late_report: pa.Table | None = None


def _sink_partitions(out_dir: str | None, num_partitions: int | None) -> int:
    """The sink partition count of a call: an explicit value wins, a sink
    that already holds output adopts its pinned count (a resume after a
    cluster-size change must not re-derive a different one and trip the
    layout guard), and a fresh sink takes the cluster-scaled default."""
    from ..sinks.exactly_once import pinned_partitions

    if num_partitions is None and out_dir is not None:
        num_partitions = pinned_partitions(out_dir)
    return scaled_parts(8, num_partitions)


def _sink_args(
    out_dir: str | None, num_partitions: int | None, epoch: int | None = None
) -> dict:
    """``KeyedStateActor`` sink arguments of a call: the sink's committed
    main and late partition sets, its partition count and this run's
    staging epoch (empty sets and epoch 0 without a sink).  A fresh run
    begins a new epoch; a checkpoint resume passes the CHECKPOINTED
    ``epoch`` and adopts it (a fresh epoch would discard the staged rows
    the checkpoint covers).  The epoch makes finalize
    single-attempt-consistent — a crashed earlier attempt's staged rows are
    discarded, never mixed into this run's commit (the streaming consumers'
    watermark timing is not replay-deterministic, so attempt mixing could
    double-place a borderline row across the main and late layouts)."""
    sink_done, late_done, sink_epoch = frozenset(), frozenset(), 0
    if out_dir is not None:
        import os

        from ..sinks.exactly_once import (
            adopt_epoch,
            begin_epoch,
            committed_partitions,
            late_dir,
        )

        os.makedirs(out_dir, exist_ok=True)
        if epoch is None:
            sink_epoch = begin_epoch(out_dir)
        else:
            sink_epoch = epoch
            adopt_epoch(out_dir, epoch)
        # the late layout stages with the SAME epoch number — keep its marker
        # in lockstep so its finalize judges staleness identically
        adopt_epoch(late_dir(out_dir), sink_epoch)
        sink_done = frozenset(committed_partitions(out_dir))
        late_done = frozenset(committed_partitions(late_dir(out_dir)))
    return {
        "sink_dir": out_dir,
        "sink_partitions": _sink_partitions(out_dir, num_partitions),
        "sink_done": sink_done,
        "late_done": late_done,
        "sink_epoch": sink_epoch,
    }


# -- warm actor pool ---------------------------------------------------------
#
# Starting an actor costs a worker process (about 0.85 s apart on one cpu),
# which dominated short streaming calls.  The inpaint engines therefore lease
# their actors from an idle pool kept per Ray session and reset them in place.

_POOL_LOCK = threading.Lock()
_POOL: dict = {"session": None, "idle": {}, "cap": {}}


def _ray_session() -> tuple:
    """Identity of the connected Ray session.  The cluster id changes with
    every new cluster and the job id with every driver connection, so a
    handle from a session that was shut down is never leased again."""
    return ray._private.worker.global_worker.current_cluster_and_job


@contextlib.contextmanager
def _leased_actors(
    cfg: EngineConfig,
    n_actors: int,
    n_partitions: int,
    sink: dict,
    *,
    aggregator: bool = False,
):
    """Lease one call's actors: ``n_actors`` ``KeyedStateActor``s built with
    ``(cfg, **sink)``, a ``WatermarkTracker`` over ``n_partitions`` input
    partitions and, with ``aggregator``, a ``_SaltedAggregator`` over those
    actors.  Yields ``(actors, tracker, aggregator or None)``.

    Idle actors of this Ray session are taken exclusively under the pool
    lock and reset in place (``state.Resettable.reset``: a total re-init);
    only the shortfall is spawned.  An idle actor found dead at reset is
    replaced before any row is sent.  When the body returns normally the
    actors go back to the pool, which never keeps more of a class than the
    largest single lease of it.  When the body raises, none go back: their
    handles drop with this frame and the actors die, so a crashed call's
    state can never reach the next call.

    Reset runs only after every method the previous call submitted has
    completed: each caller's calls to an actor run in submission order, the
    previous call ``ray.get``-ed its end-of-stream flush / stats / close
    calls before returning, and its consumer tasks — the only other callers
    — awaited every ack before they returned, including the aggregator
    ``add`` that follows each ``maybe_finalize`` they send unawaited."""
    counts = {KeyedStateActor: n_actors, WatermarkTracker: 1, _SaltedAggregator: int(aggregator)}
    session = _ray_session()
    with _POOL_LOCK:
        if _POOL["session"] != session:
            _POOL.update(session=session, idle={}, cap={})
        taken = {}
        for cls, n in counts.items():
            _POOL["cap"][cls] = max(_POOL["cap"].get(cls, 0), n)
            idle = _POOL["idle"].setdefault(cls, [])
            taken[cls] = [idle.pop() for _ in range(min(n, len(idle)))]

    def reset_or_spawn(cls, *args, **kwargs) -> list:
        acks = [a.reset.remote(*args, **kwargs) for a in taken[cls]]
        live = []
        for a, ack in zip(taken[cls], acks):
            try:
                ray.get(ack)
                live.append(a)
            except ray.exceptions.RayActorError:
                pass  # died while idle: replaced below
        return live + [cls.remote(*args, **kwargs) for _ in range(counts[cls] - len(live))]

    actors = reset_or_spawn(KeyedStateActor, cfg, **sink)
    (tracker,) = reset_or_spawn(WatermarkTracker, n_partitions, cfg.allowed_lateness)
    aggs = reset_or_spawn(_SaltedAggregator, cfg, actors)
    yield actors, tracker, (aggs[0] if aggs else None)
    # reached only when the body returned normally
    with _POOL_LOCK:
        if _POOL["session"] == session:
            for cls, handles in (
                (KeyedStateActor, actors), (WatermarkTracker, [tracker]),
                (_SaltedAggregator, aggs),
            ):
                idle = _POOL["idle"][cls]
                idle.extend(handles[: max(0, _POOL["cap"][cls] - len(idle))])


def _finalize_sink(
    actors, stats, late, out_dir: str, epoch: int, consumer_metrics=None
) -> StreamingResult:
    """Sink-mode epilogue shared by every streaming variant: drain actor
    stage buffers, commit main + late layouts (driver moves manifests
    only), persist the run metrics beside the lineage manifests, return a
    sink-shaped StreamingResult.  ``epoch`` is THIS run's allocated
    staging epoch — finalize must judge staleness against it, not against
    a re-read of ``_epoch.json`` (restart-race review finding)."""
    import json as _json
    import os as _os

    from ..sinks.exactly_once import _atomic_write_bytes, finalize_staged, late_dir

    ray.get([a.sink_flush.remote() for a in actors])
    report = finalize_staged(out_dir, epoch=epoch)
    # the late layout always exists in sink mode (_sink_args adopts the
    # epoch into it at run start), so finalize it unconditionally — with zero
    # late rows this commits nothing and returns an empty report
    lrep = finalize_staged(late_dir(out_dir), epoch=epoch)
    # north-star metrics land WITH the lineage manifests: per-actor state
    # stats + (multi-consumer engine) per-partition throughput and watermark
    # lag
    _atomic_write_bytes(
        _os.path.join(out_dir, "_manifests", "run_metrics.json"),
        _json.dumps(
            {
                "epoch": epoch,
                "actor_stats": stats,
                "n_late": sum(s["n_late"] for s in stats),
                "consumer_metrics": consumer_metrics or [],
            }
        ).encode(),
    )
    return StreamingResult(
        output=None,
        late=late,
        n_late=sum(s["n_late"] for s in stats),
        actor_stats=stats,
        out_dir=out_dir,
        commit_report=report,
        late_report=lrep,
    )


def _gather(
    actors, out_dir: str | None, epoch: int, shape, *, consumer_metrics=None
) -> StreamingResult:
    """The end-of-stream gathers every engine shares once its actors hold
    their last output, and the one place the driver reads output:
    ``take_held`` (the actors' held output and late rows, empty in sink
    mode), ``state_stats``, then the sink commit (the driver moves
    manifests only) or ``shape(held output)`` as the driver-collected
    output."""
    held = ray.get([a.take_held.remote() for a in actors])
    late = [t for _, tables in held for t in tables]
    late_t = pa.concat_tables(late) if late else None
    stats = ray.get([a.state_stats.remote() for a in actors])
    if out_dir is not None:
        return _finalize_sink(actors, stats, late_t, out_dir, epoch, consumer_metrics)
    return StreamingResult(
        output=shape([t for tables, _ in held for t in tables]),
        late=late_t,
        n_late=sum(s["n_late"] for s in stats),
        actor_stats=stats,
    )


def _split_log(source, n_partitions: int) -> list[list[str]]:
    """A stream's files dealt round-robin to at most ``n_partitions``
    consumers (files are time-ordered chunks, so partitions stay roughly in
    lockstep)."""
    paths = _resolve_parquet_paths(source) if isinstance(source, str) else list(source)
    n = min(n_partitions, max(1, len(paths)))
    return [paths[i::n] for i in range(n)]


# -- the single-consumer runtime ---------------------------------------------
#
# Every single-consumer streaming entry point runs the same micro-batch
# protocol (read, watermark, route, ingest, drain, checkpoint, end-of-stream
# gathers, sink commit).  ``_resume_or_fresh`` sets a call up and ``_drive``
# runs it; a consumer keeps only its actors, its routing and its output shape.


def _source_fp(source) -> str:
    """A log's checkpoint identity: its files' base names and sizes.  A
    Dataset cannot be fingerprinted and records "dataset" (resume then
    guards only the config and the routing)."""
    if not isinstance(source, str):
        return "dataset"
    import os

    return repr(
        [(os.path.basename(p), os.path.getsize(p)) for p in _resolve_parquet_paths(source)]
    )


@dataclass
class _Resume:
    """Where one call checkpoints and what it resumes from.  ``root`` holds
    the checkpoints: ``out_dir`` in sink mode, else the consumer's
    ``ckpt_dir`` (None: no checkpoints).  ``meta`` (routing, fingerprints,
    staging epoch) is written with every checkpoint.  ``skip``, ``blobs``
    and ``wm`` come from the checkpoint resumed."""

    out_dir: str | None = None
    root: str | None = None
    meta: dict = field(default_factory=dict)
    skip: int = 0
    blobs: list | None = None
    wm: int = -(1 << 62)


def _resume_or_fresh(
    kind: str,
    cfg_fp: str,
    logs: list,
    *,
    n_actors: int,
    micro_batch_rows: int,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    ckpt_dir: str | None = None,
    checkpoint_every: int | None = None,
) -> tuple[dict, _Resume]:
    """Set up one call's sink and resume state: adopt the latest checkpoint
    under ``out_dir`` (else ``ckpt_dir``) or start fresh.  Returns the
    actors' sink arguments (``_sink_args``' shape) and the ``_Resume``.

    A checkpoint is adopted only if it was taken with the same ``n_actors``
    and ``micro_batch_rows`` (hash routing and batch numbering), the same
    ``cfg_fp`` (restoring state under another config would commit wrong
    output with no error) and the same sources (``_source_fp`` of each log
    in ``logs``: the skipped prefix must be the data the restored state
    absorbed).  In sink mode the resume adopts the CHECKPOINTED staging
    epoch (a fresh ``begin_epoch`` would discard the pre-checkpoint staged
    rows at finalize) and truncates the staged log to the snapshot's
    manifest, so whatever a crashed continuation staged after the
    checkpoint is re-decided exactly once.  The partition count is
    ``_sink_partitions``': a resume with none given adopts the sink's
    pinned count."""
    from .checkpoint import latest_checkpoint, truncate_staged

    root = out_dir if out_dir is not None else ckpt_dir
    if checkpoint_every is not None and root is None:
        raise ValueError(
            "checkpoint_every requires sink mode (out_dir) or, for consumers "
            "that take one, a ckpt_dir"
        )
    meta = {
        "n_actors": n_actors,
        "micro_batch_rows": micro_batch_rows,
        "cfg_fp": cfg_fp,
        "src_fp": "//".join(_source_fp(s) for s in logs),
    }
    ck = latest_checkpoint(root) if root is not None else None
    epoch = None
    if ck is not None:
        skip, ck_meta, blobs = ck
        if (
            int(ck_meta["n_actors"]) != n_actors
            or int(ck_meta["micro_batch_rows"]) != micro_batch_rows
        ):
            raise RuntimeError(
                f"checkpoint was taken with n_actors={ck_meta['n_actors']}/"
                f"micro_batch_rows={ck_meta['micro_batch_rows']}; resuming with "
                "different values would desynchronize hash routing / batch numbering"
            )
        if ck_meta.get("cfg_fp") != cfg_fp:
            raise RuntimeError(
                f"checkpoint was taken under a different {kind} config; restoring "
                f"its state would commit wrong output (delete {root} to start fresh)"
            )
        if ck_meta.get("src_fp") != meta["src_fp"]:
            raise RuntimeError(
                "checkpoint was taken over a different source (file set/sizes "
                "changed); the skipped log prefix would not be the data the "
                "restored state absorbed"
            )
        if out_dir is not None:
            truncate_staged(out_dir, ck_meta["staged_files"])
            epoch = int(ck_meta["epoch"])
    sink = _sink_args(out_dir, num_partitions, epoch)
    resume = _Resume(out_dir, root, {**meta, "epoch": sink["sink_epoch"]})
    if ck is not None:
        resume.skip, resume.blobs, resume.wm = skip, blobs, int(ck_meta["wm"])
    return sink, resume


def _by_actor(ids: np.ndarray, n_actors: int) -> list:
    """A per-row actor id array → one batch's (actor, row indices) plan."""
    return [(a, np.nonzero(ids == a)[0]) for a in range(n_actors)]


def _key_route(col: str, n_actors: int):
    """Route every row to the actor of the splitmix hash of its int64
    ``col`` (the key-routed consumers' rule)."""
    from ..state.dedup_state import _splitmix_route

    return lambda _side, b: _by_actor(
        _splitmix_route(np.asarray(b[col], np.int64), n_actors), n_actors
    )


def _interleaved(logs: list, micro_batch_rows: int, on_end):
    """``(log index, batch)`` in arrival order; several logs are read
    round-robin one micro-batch at a time, a deterministic interleaving
    that batch numbering (and so checkpoint skips) relies on.
    ``on_end(index)`` fires when a log ends."""
    iters = [_arrival_batches(s, micro_batch_rows) for s in logs]
    alive = [True] * len(iters)
    while any(alive):
        for side, it in enumerate(iters):
            if not alive[side]:
                continue
            try:
                batch = next(it)
            except StopIteration:
                alive[side] = False
                on_end(side)
                continue
            yield side, batch


def _drive(
    logs: list,
    actors: list,
    tracker,
    route,
    resume: _Resume,
    shape,
    *,
    micro_batch_rows: int,
    checkpoint_every: int | None = None,
    stop_after: int | None = None,
    ts_col: str = "event_ts",
    prepare=None,
    end: str | None = "flush",
) -> StreamingResult:
    """Run one single-consumer streaming call to its end: the one driver loop.

    Per micro-batch of ``logs`` (round-robin when there are two, the joins'
    shape; ``prepare(side, batch)`` normalizes a batch first), after the
    ``resume.skip`` batches the restored state already absorbed:

    - with a ``tracker``, the watermark a batch is judged against excludes
      the batch itself and is refreshed every 4 batches: one blocking
      round-trip per batch would serialize ingestion, and correctness only
      needs a monotone lower bound (staleness delays finalization, never
      corrupts it);
    - ``route(side, batch)`` gives the ``(actor, rows)`` plan, and each
      actor gets its slice as ``ingest([side,] rows[, wm])``: the side with
      two logs, the watermark with a tracker;
    - the tracker learns the batch's largest ``ts_col``;
    - once ``n_actors*4`` ingests are in flight the oldest ``n_actors*2``
      are awaited, so the actors' mailboxes stay bounded;
    - every ``checkpoint_every`` batches all in-flight ingests are awaited
      and the actors' state (their held output included, in
      driver-collect mode), the driver watermark and (sink mode) the
      staged-file manifest are published as one checkpoint;
    - ``stop_after`` is the test-only crash hook.

    At end of stream: the remaining ingests, one ``end`` call per actor
    (``flush``, ``drain``, … or None), then ``_gather``; checkpoints are
    cleared once the call has succeeded."""
    from .checkpoint import clear_checkpoints, staged_file_manifest, write_checkpoint

    n_actors = len(actors)
    two_logs = len(logs) > 1
    if resume.blobs is not None:
        ray.get([a.restore_state.remote(b) for a, b in zip(actors, resume.blobs)])

    def on_end(side: int) -> None:
        # a log that ended stops holding the other's watermark back
        if tracker is not None and two_logs:
            tracker.close_partition.remote(side)

    pending: list = []
    wm = resume.wm
    batch_idx = 0
    consumed = 0
    for side, batch in _interleaved(logs, micro_batch_rows, on_end):
        if consumed < resume.skip:
            # already absorbed into the restored state — the re-read IS the
            # lineage; only the tail replays
            consumed += 1
            continue
        if prepare is not None:
            batch = prepare(side, batch)
        head = (side,) if two_logs else ()
        tail = ()
        if tracker is not None:
            ts = np.asarray(batch[ts_col], dtype=np.int64)
            if batch_idx % 4 == 0:
                wm = max(wm, ray.get(tracker.watermark.remote()))
            tail = (wm,)
        batch_idx += 1
        for a, idx in route(side, batch):
            if idx.size:
                pending.append(actors[a].ingest.remote(*head, batch.take(idx), *tail))
        if tracker is not None:
            tracker.update.remote(side, int(ts.max()))
        consumed += 1
        if len(pending) >= n_actors * 4:
            ray.get(pending[: n_actors * 2])
            pending = pending[n_actors * 2 :]
        if (
            checkpoint_every is not None
            and consumed > resume.skip
            and consumed % checkpoint_every == 0
        ):
            # barrier: every sent ingest is absorbed before the snapshot
            ray.get(pending)
            pending = []
            blobs = ray.get([a.checkpoint_state.remote() for a in actors])
            meta = {**resume.meta, "wm": wm, "staged_files": {}}
            if resume.out_dir is not None:
                meta["staged_files"] = staged_file_manifest(resume.out_dir)
            write_checkpoint(resume.root, consumed, blobs, meta)
        if stop_after is not None and consumed >= stop_after:
            raise RuntimeError(f"injected stop after {consumed} batches")

    ray.get(pending)
    if end is not None:
        ray.get([getattr(a, end).remote() for a in actors])
    res = _gather(actors, resume.out_dir, resume.meta.get("epoch", 0), shape)
    if resume.root is not None:
        # checkpoints exist only to shorten crash recovery: once the run
        # succeeded, a LATER fresh run over this dir must not "resume"
        clear_checkpoints(resume.root)
    return res


def run_streaming(
    source,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Run the incremental engine over a Parquet path / Dataset.

    ``out_dir``: optional exactly-once sink.  In sink mode finalized
    windows flow from each state actor STRAIGHT into the sink's staged
    layout (stage_table), and the driver only commits per-partition
    manifests at end of stream — rewritten tokens never pass through the
    driver; ``result.output`` is None (read with ``read_output(out_dir)``).
    Ray must already be initialised by the caller.  ``num_partitions``
    defaults to the count pinned in an existing sink, else the
    cluster-scaled default.

    The state actors and the watermark tracker outlive the call: they are
    leased from a pool kept per Ray session and reset to a fresh actor's
    state before the next call uses them (``_leased_actors``).  A call
    that raises returns none of them.

    ``checkpoint_every``: sink-mode only — every N consumed micro-batches,
    barrier the in-flight ingests, snapshot every actor's state + the
    staged-file manifest, and publish an atomic checkpoint under
    ``out_dir/_checkpoints`` (see pipelines/checkpoint.py).  When a
    checkpoint exists under ``out_dir``, a rerun RESUMES from it: actor
    state restores, the staged log truncates to the manifest, the SAME
    staging epoch is adopted, and only the micro-batches after the
    checkpoint replay — crash recovery cost is the tail, not the log.
    Checkpoints are deleted on successful finalize.
    ``_stop_after_batches`` is the test-only crash-injection hook (raises
    after consuming that many batches).
    """
    import dataclasses

    sink, resume = _resume_or_fresh(
        "engine", repr(sorted(dataclasses.asdict(cfg).items())), [source],
        n_actors=n_actors, micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    with _leased_actors(cfg, n_actors, 1, sink) as (actors, tracker, _):
        return _drive(
            [source], actors, tracker,
            lambda _s, b: _by_actor(
                hash_partition_ids(b["source"].combine_chunks(), n_actors), n_actors
            ),
            resume,
            _inpaint_output,
            micro_batch_rows=micro_batch_rows, checkpoint_every=checkpoint_every,
            stop_after=_stop_after_batches,
        )


def _salted_route(batch: pa.Table, salt_buckets: int, n_actors: int) -> np.ndarray:
    """Vectorized ``hash(source, salt(doc_id)) % n_actors`` routing: a hot
    source spreads over up to ``salt_buckets`` actors, with no per-row
    Python string building in the consumer (the salted path exists
    precisely because consumers must keep up with a hot key)."""
    salt = hash_partition_ids(batch["doc_id"].combine_chunks(), salt_buckets)
    src_h = hash_partition_ids(batch["source"].combine_chunks(), 1 << 30)
    return ((src_h * np.int64(salt_buckets) + salt) * np.int64(1_000_003)) % n_actors


@ray.remote(max_retries=0)
def _consume_partition(
    partition_id: int,
    paths: list[str],
    tracker,
    micro_batch_rows: int,
    actors: list,
    aggregator,
    salt_buckets: int,
) -> dict:
    """One consumer task per input partition of the multi-consumer engine:
    read its file list in order, send each micro-batch's salted rows to
    the state actors (``ingest_partial``) and their deltas to the
    ``aggregator`` (``add``), and advance this partition's watermark.  The
    aggregator receives the RESOLVED delta tuples (Ray dereferences
    top-level ObjectRef args), so its one ack covers buffer + merge — the
    consumer never blocks on deltas.  Each watermark refresh also asks the
    aggregator to finalize the windows now due.  Returns per-partition
    throughput and watermark-lag metrics (the run_metrics.json schema).

    ``max_retries=0`` (review finding): ingestion is NOT replay-idempotent —
    a silent Ray re-execution of a half-finished consumer would re-send every
    batch of this partition, duplicating rows in driver-collected mode and
    double-placing already-finalized rows into the late layout in sink mode.
    Mid-stream consumer loss must fail the run loudly; the recovery path is
    the documented one — rerun with the same ``out_dir``, where the sink's
    epoch + committed-partition resume (``_sink_args``) drops the prior
    attempt's staged rows and skips committed partitions."""
    import time
    from collections import deque

    t0 = time.perf_counter()
    rows = 0
    max_ts = None
    # The tracker may only learn a batch's max_ts AFTER its ack: the
    # watermark contract is "no more rows <= wm will ARRIVE", and arrival
    # means buffered by a state actor and merged by the aggregator — not
    # merely sent.  A faster partition's wm would otherwise finalize windows
    # whose rows from a slower partition are still in the actor's mailbox
    # (the monotonic actor watermark then correctly — but wrongly — lates
    # them).
    inflight: deque = deque()  # (batch_max_ts, aggregator ack) in send order

    def drain(max_depth: int) -> None:
        """Pop acked heads (non-blocking), then block only until the queue
        is back under ``max_depth`` — never stall the whole pipeline to
        depth 0 on a high-water mark."""
        while inflight:
            head_mx, head_ref = inflight[0]
            ready, _ = ray.wait([head_ref], timeout=0)
            if not ready:
                break
            inflight.popleft()
            # ray.get even though ready (cheap — the ack is None): a
            # ready-but-ERRORED ack must re-raise here, not advance the
            # watermark past a batch whose rows were never buffered
            ray.get(head_ref)
            tracker.update.remote(partition_id, head_mx)
        while len(inflight) > max_depth:
            head_mx, head_ref = inflight.popleft()
            ray.get(head_ref)
            tracker.update.remote(partition_id, head_mx)

    wm = -(1 << 62)
    batch_idx = 0
    # watermark lag: this partition's event-time frontier minus the GLOBAL
    # watermark at observation time (the north star's per-partition lag
    # metric) — high lag means this partition runs ahead of the slowest one
    lag_sum, lag_max, lag_n = 0, None, 0
    for batch in _arrival_batches(paths, micro_batch_rows):
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        # cached watermark, refreshed every few batches (monotone lower
        # bound suffices; staleness only delays finalization)
        if batch_idx % 4 == 0:
            wm = max(wm, ray.get(tracker.watermark.remote()))
            # not awaited: finalization timing only delays emission — every
            # due window's deltas are provably merged once the ack-gated
            # global wm passed its end; a failure is kept by the aggregator
            # and raised from final_flush
            aggregator.maybe_finalize.remote(wm)
            if wm > -(1 << 61):
                lag = int(ts.max()) - wm
                lag_sum += lag
                lag_max = lag if lag_max is None else max(lag_max, lag)
                lag_n += 1
        batch_idx += 1
        deltas = [
            actors[a].ingest_partial.remote(batch.take(idx), wm)
            for a, idx in _by_actor(_salted_route(batch, salt_buckets, len(actors)), len(actors))
            if idx.size
        ]
        mx = int(ts.max())
        max_ts = mx if max_ts is None else max(max_ts, mx)
        inflight.append((mx, aggregator.add.remote(*deltas)))
        rows += batch.num_rows
        drain(max_depth=8)
    drain(max_depth=0)
    ray.get(tracker.close_partition.remote(partition_id))
    dt = time.perf_counter() - t0
    return {
        "partition_id": partition_id,
        "rows": rows,
        "max_event_ts": max_ts,
        "seconds": round(dt, 3),
        "rows_per_sec": round(rows / dt, 1) if dt > 0 else 0.0,
        "wm_lag_max": lag_max,
        "wm_lag_avg": round(lag_sum / lag_n, 1) if lag_n else None,
    }


@ray.remote
class _SaltedAggregator(_WindowDecisions, Resettable):
    """The salted engine's decide step (``state.keyed_state._WindowDecisions``,
    the code ``KeyedStateActor`` runs in-process), in an actor so that its
    consumers scale: it merges the actors' ``ingest_partial`` deltas —
    per-(source, window) histogram partials, or micro-session fragments
    gap-merged per source — and fans each round's decisions out to the
    state actors through ``finalize_windows`` or
    ``finalize_sessions_salted``.  Consumers forward their deltas to
    ``add`` (Ray resolves the actors' ``ingest_partial`` ObjectRefs before
    invoking it, so the rows are provably buffered before their deltas
    merge).  Single-actor serialization of ``add`` makes the horizon guard
    race-free.  The state actors hold or stage what they emit; no output
    passes through this actor.

    Consumers send ``maybe_finalize`` without waiting for it, so a failed
    finalize is recorded (the first one) and re-raised by ``final_flush``:
    its windows' histograms are already evicted, and carrying on would
    re-emit them as windows with no histogram, with wrong tokens."""

    def __init__(self, cfg: EngineConfig, actors: list):
        self._init_decisions(cfg)
        self.actors = actors
        self.error: tuple[int, BaseException] | None = None

    def add(self, *delta_results) -> None:
        self._merge(delta_results)

    def maybe_finalize(self, watermark: int) -> None:
        if self.error is not None:
            return  # the call fails at final_flush; finalize nothing more
        try:
            self._fan_out(self._due(int(watermark)))
        except Exception as e:  # noqa: BLE001 — re-raised by final_flush
            self.error = (int(watermark), e)

    def _fan_out(self, items) -> None:
        if not items:
            return
        # aggregator → state-actor fan-out (no call cycle: state actors
        # never call back)
        session = self.cfg.window_kind == "session"
        ray.get([
            (a.finalize_sessions_salted if session else a.finalize_windows).remote(items)
            for a in self.actors
        ])

    def final_flush(self) -> None:
        """End of stream: finalize everything still held, including the
        windows buffered in actors with NO histogram (all their
        contributions dropped by the horizon guard), which emit with the
        fixed or sticky token, else unrewritten (-1, failed-detection
        semantics).  Raises the first error a ``maybe_finalize``
        recorded."""
        if self.error is not None:
            wm, e = self.error
            raise RuntimeError(f"salted aggregator: finalize at watermark {wm} failed") from e
        leftovers = ray.get([a.buffered_keys.remote() for a in self.actors])
        self._fan_out(self._due(1 << 62, {k for ks in leftovers for k in map(tuple, ks)}))


def run_streaming_salted_partitioned(
    source: str | list[str],
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    n_actors: int = 4,
    salt_buckets: int = 4,
    n_partitions: int = 4,
    micro_batch_rows: int = 1024,
    out_dir: str | None = None,
    num_partitions: int | None = None,
) -> tuple[StreamingResult, list[dict]]:
    """The multi-consumer inpaint engine: one parallel consumer task per
    input partition, per-partition watermarks merged (min) by the tracker,
    state actors shared across consumers.  ``run_streaming`` binds each
    source to one actor (order-dependent state), so a source carrying p of
    the stream caps speedup at 1/p (measured: the 21%-head zipf stream
    flatlines at ~5 actors).  Here detection state is ASSOCIATIVE —
    histogram partials per (source, window), or micro-session fragments
    that gap-merge — so a hot source spreads across ``salt_buckets``
    actors while consumers run in parallel and a ``_SaltedAggregator``
    actor merges the deltas and decides every window's token.
    ``salt_buckets=1`` puts every row of a source on one actor.

    Ordering/arrival contract: a consumer advances its partition watermark
    only after the aggregator acked ``add`` over the actors' resolved
    ingest deltas, so when the MIN watermark (``min over open partitions
    (max_ts) − allowed_lateness``) passes a window's end, every one of its
    rows is buffered in some actor and every histogram delta is merged —
    finalization is then safe anywhere in time, and cross-partition skew
    only delays it, never produces false lates.  Input files are assigned
    round-robin (files are time-ordered chunks, keeping partitions roughly
    in lockstep).  Every window kind (tumbling, sliding, session, global),
    with windowed, sticky or fixed-token detection.

    Recovery design (deliberate split): this shape recovers by WHOLE-RUN
    replay against the exactly-once sink (sink layouts dedup by epoch;
    kill-and-replay byte-equal, tested) — a fine-grained state checkpoint
    here would need a consistent cut across concurrently-ingesting
    consumers (a Chandy-Lamport barrier through the actor pool); the
    single-consumer engine (``run_streaming(checkpoint_every=…)``) is the
    variant that offers tail-only checkpoint resume.

    ``out_dir``: optional exactly-once sink: finalized windows stage
    straight from each state actor into the sink layout, late rows into
    ``<out_dir>/_late``, and the driver only commits manifests at end of
    stream.  Read back with ``read_output(out_dir)`` / ``read_late(out_dir)``.
    Returns (StreamingResult, per-partition metrics).  The state actors,
    the tracker and the aggregator are leased from the session's warm pool
    and reset between calls, as in ``run_streaming``."""
    groups = _split_log(source, n_partitions)
    sink = _sink_args(out_dir, num_partitions)
    with _leased_actors(cfg, n_actors, len(groups), sink, aggregator=True) as (
        actors, tracker, aggregator,
    ):
        consumer_refs = [
            _consume_partition.remote(
                i, g, tracker, micro_batch_rows, actors, aggregator, salt_buckets
            )
            for i, g in enumerate(groups)
        ]
        metrics = ray.get(consumer_refs)
        ray.get(aggregator.final_flush.remote())
        res = _gather(
            actors, out_dir, sink["sink_epoch"], _inpaint_output, consumer_metrics=metrics
        )
    return res, metrics


def _inpaint_output(tables: list) -> pa.Table:
    """The inpaint engines' driver-collected output: rows sorted by doc_id,
    or the empty table of their schema."""
    if tables:
        return pa.concat_tables(tables).sort_by("doc_id")
    return REWRITTEN_SCHEMA.empty_table()
