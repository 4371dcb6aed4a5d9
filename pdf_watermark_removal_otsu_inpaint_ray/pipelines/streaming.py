"""Incremental streaming execution: micro-batches → keyed state actor pool.

The batch flagship (flagship.py) reads the stream twice (histograms, then
rewrite).  This engine reads it ONCE, in arrival order, holding only live
windows in actor state — the true structured-streaming form of the north
star: per-source histograms accumulate incrementally, windows finalize when
the global watermark (WatermarkTracker, min across input partitions −
allowed_lateness) passes their end, state is evicted on emit, late rows go
to a counted side output.

Data flow: each input partition is consumed as Arrow micro-batches; rows are
routed to ``hash(source) % n_actors`` (all rows of one source meet the same
actor — the partitioning assumption this engine relies on; hot sources can
be salted because histogram partials merge associatively).  The driver moves
only object refs and watermark updates, never token data — at cluster scale
the same loop runs one consumer task per input partition.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray

from ..config import DEFAULT_CONFIG, EngineConfig, scaled_parts
from ..sinks.exactly_once import hash_partition_ids
from ..state import Resettable
from ..state.keyed_state import KeyedStateActor
from ..state.watermark_tracker import WatermarkTracker


def _resolve_parquet_paths(source: str) -> list[str]:
    """A stream source path → its file list in guaranteed arrival order
    (lexicographic — stream chunks are named in time order).  ONE definition
    shared by the single-consumer and partitioned engines so their notion of
    arrival order can never desynchronize; the file rule is the one
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
    # the late layout always exists in sink mode (_sink_done_sets adopts the
    # epoch into it at run start), so finalize it unconditionally — with zero
    # late rows this commits nothing and returns an empty report
    lrep = finalize_staged(late_dir(out_dir), epoch=epoch)
    # north-star metrics land WITH the lineage manifests: per-actor state
    # stats + (partitioned mode) per-partition throughput and watermark lag
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
    actors, emitted: list, out_dir: str | None, epoch: int, shape, *,
    late: bool = True, consumer_metrics=None,
) -> StreamingResult:
    """The end-of-stream gathers every engine shares once its actors hold
    their last output: ``late_rows`` (consumers with a late path),
    ``state_stats``, then the sink commit (sink mode: ``emitted`` stayed
    empty, the driver moves manifests only) or ``shape(emitted)`` as the
    driver-collected output."""
    late_t = None
    if late:
        tables = [t for t in ray.get([a.late_rows.remote() for a in actors]) if t is not None]
        late_t = pa.concat_tables(tables) if tables else None
    stats = ray.get([a.state_stats.remote() for a in actors])
    if out_dir is not None:
        return _finalize_sink(actors, stats, late_t, out_dir, epoch, consumer_metrics)
    return StreamingResult(
        output=shape(emitted),
        late=late_t,
        n_late=sum(s["n_late"] for s in stats) if late else 0,
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


def _emitted(result) -> list:
    """The tables an ``ingest`` or end-of-stream call returned: the result
    when it is a list, its first item when it is a tuple; a counter carries
    none."""
    if isinstance(result, tuple):
        result = result[0]
    return result if isinstance(result, list) else []


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
      are awaited, so emitted tables do not pile up as refs;
    - every ``checkpoint_every`` batches all in-flight ingests are awaited
      and the actors' state, the driver watermark and (sink mode) the
      staged-file manifest, or (driver-collect mode) the output emitted so
      far as an extra blob, are published as one checkpoint;
    - ``stop_after`` is the test-only crash hook.

    At end of stream: the remaining ingests, one ``end`` call per actor
    (``flush``, ``drain``, … or None), ``late_rows`` (consumers with a
    tracker; without one there is no late path), ``state_stats``, then
    the sink commit (``_finalize_sink``) or ``shape(emitted tables)`` as
    the output; checkpoints are cleared once the call has succeeded."""
    import pickle

    from .checkpoint import clear_checkpoints, staged_file_manifest, write_checkpoint

    n_actors = len(actors)
    two_logs = len(logs) > 1
    emitted: list = []
    if resume.blobs is not None:
        ray.get([a.restore_state.remote(b) for a, b in zip(actors, resume.blobs)])
        if len(resume.blobs) > n_actors:
            emitted.extend(pickle.loads(resume.blobs[n_actors]))

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
            done, pending = pending[: n_actors * 2], pending[n_actors * 2 :]
            for r in ray.get(done):
                emitted.extend(_emitted(r))
        if (
            checkpoint_every is not None
            and consumed > resume.skip
            and consumed % checkpoint_every == 0
        ):
            # barrier: every sent ingest is absorbed before the snapshot
            for r in ray.get(pending):
                emitted.extend(_emitted(r))
            pending = []
            blobs = ray.get([a.checkpoint_state.remote() for a in actors])
            meta = {**resume.meta, "wm": wm, "staged_files": {}}
            if resume.out_dir is not None:
                meta["staged_files"] = staged_file_manifest(resume.out_dir)
            else:
                # the output emitted so far would otherwise die with the driver
                blobs.append(pickle.dumps(emitted))
                meta["n_blobs"] = n_actors + 1
            write_checkpoint(resume.root, consumed, blobs, meta)
        if stop_after is not None and consumed >= stop_after:
            raise RuntimeError(f"injected stop after {consumed} batches")

    for r in ray.get(pending):
        emitted.extend(_emitted(r))
    if end is not None:
        for r in ray.get([getattr(a, end).remote() for a in actors]):
            emitted.extend(_emitted(r))
    res = _gather(
        actors, emitted, resume.out_dir, resume.meta.get("epoch", 0), shape,
        late=tracker is not None,
    )
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


@ray.remote(max_retries=0)
def _consume_partition(
    partition_id: int,
    paths: list[str],
    tracker,
    micro_batch_rows: int,
    send,
    aggregator=None,
) -> dict:
    """One consumer task per input partition of the partitioned engines:
    read its file list in order, hand each micro-batch to ``send(batch,
    wm)`` (the engine's routing and sends; it returns the refs whose acks
    prove the batch arrived) and advance this partition's watermark.  With
    the salted engine's ``aggregator``, each watermark refresh also asks it
    to finalize the windows now due.  Returns per-partition throughput and
    watermark-lag metrics (one schema for both engines' run_metrics.json).

    ``max_retries=0`` (review finding): ingestion is NOT replay-idempotent —
    a silent Ray re-execution of a half-finished consumer would re-send every
    batch of this partition, duplicating rows in driver-collected mode and
    double-placing already-finalized rows into the late layout in sink mode.
    Mid-stream consumer loss must fail the run loudly; the recovery path is
    the documented one — rerun with the same ``out_dir``, where the sink's
    epoch + committed-partition resume (``_sink_done_sets``) drops the prior
    attempt's staged rows and skips committed partitions."""
    import time
    from collections import deque

    t0 = time.perf_counter()
    rows = 0
    max_ts = None
    # The tracker may only learn a batch's max_ts AFTER its acks: the
    # watermark contract is "no more rows <= wm will ARRIVE", and arrival
    # means delivered to the state actor (and, salted, merged by the
    # aggregator) — not merely sent.  A faster partition's wm would
    # otherwise finalize windows whose rows from a slower partition are
    # still in the actor's mailbox (the monotonic actor watermark then
    # correctly — but wrongly — lates them).
    inflight: deque = deque()  # (batch_max_ts, [ack refs]) in send order

    def drain(max_depth: int) -> None:
        """Pop acked heads (non-blocking), then block only until the queue
        is back under ``max_depth`` — never stall the whole pipeline to
        depth 0 on a high-water mark."""
        while inflight:
            head_mx, head_refs = inflight[0]
            ready, _ = ray.wait(head_refs, num_returns=len(head_refs), timeout=0)
            if len(ready) < len(head_refs):
                break
            inflight.popleft()
            # ray.get even though ready (cheap — acks carry ints/None): a
            # ready-but-ERRORED ack must re-raise here, not advance the
            # watermark past a batch whose rows were never buffered
            ray.get(head_refs)
            tracker.update.remote(partition_id, head_mx)
        while len(inflight) > max_depth:
            head_mx, head_refs = inflight.popleft()
            ray.get(head_refs)
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
            if aggregator is not None:
                # not awaited: finalization timing only delays emission —
                # every due window's deltas are provably merged once the
                # ack-gated global wm passed its end; a failure is kept by
                # the aggregator and raised from final_flush
                aggregator.maybe_finalize.remote(wm)
            if wm > -(1 << 61):
                lag = int(ts.max()) - wm
                lag_sum += lag
                lag_max = lag if lag_max is None else max(lag_max, lag)
                lag_n += 1
        batch_idx += 1
        refs = send(batch, wm)
        mx = int(ts.max())
        max_ts = mx if max_ts is None else max(max_ts, mx)
        inflight.append((mx, refs))
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


def _send_keyed(actors: list, source_route, batch: pa.Table, wm: int) -> list:
    """The keyed partitioned engine's per-batch send: each source's rows to
    its actor (``source_route``: an explicit balanced ``(sources, actor
    ids)`` table for small key universes, else hash routing)."""
    if source_route is not None:
        rkeys, rids = source_route
        sv = np.asarray(batch["source"].combine_chunks().to_numpy(zero_copy_only=False))
        pos = np.clip(np.searchsorted(rkeys, sv), 0, rkeys.size - 1)
        if not (rkeys[pos] == sv).all():
            missing = sorted(set(sv) - set(rkeys))[:5]
            raise ValueError(
                f"source_map does not cover sources {missing} — "
                "explicit routing must cover the whole key universe"
            )
        route = rids[pos]
    else:
        route = hash_partition_ids(batch["source"].combine_chunks(), len(actors))
    return [
        actors[a].ingest_keep.remote(batch.take(idx), wm)
        for a, idx in _by_actor(route, len(actors))
        if idx.size
    ]


def _salted_route(batch: pa.Table, salt_buckets: int, n_actors: int) -> np.ndarray:
    """Vectorized ``hash(source, salt(doc_id)) % n_actors`` routing: a hot
    source spreads over up to ``salt_buckets`` actors, with no per-row
    Python string building on the driver (the salted path exists precisely
    because the driver must keep up with a hot key)."""
    salt = hash_partition_ids(batch["doc_id"].combine_chunks(), salt_buckets)
    src_h = hash_partition_ids(batch["source"].combine_chunks(), 1 << 30)
    return ((src_h * np.int64(salt_buckets) + salt) * np.int64(1_000_003)) % n_actors


def _send_salted(actors: list, aggregator, salt_buckets: int, batch: pa.Table, wm: int) -> list:
    """The salted multi-consumer engine's per-batch send: salted rows to
    the actors, their ingest deltas to the aggregator.  The aggregator
    receives the RESOLVED delta tuples (Ray dereferences top-level
    ObjectRef args), so its one ack covers buffer + merge — the consumer
    never blocks on deltas."""
    refs = [
        actors[a].ingest_partial.remote(batch.take(idx), wm)
        for a, idx in _by_actor(_salted_route(batch, salt_buckets, len(actors)), len(actors))
        if idx.size
    ]
    return [aggregator.add.remote(*refs)]


def run_streaming_partitioned(
    source: str | list[str],
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    n_actors: int = 4,
    n_partitions: int = 4,
    micro_batch_rows: int = 1024,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    source_map: dict | None = None,
) -> tuple[StreamingResult, list[dict]]:
    """Partitioned-log streaming: one parallel consumer task per input
    partition, per-partition watermarks merged (min) by the tracker, keyed
    state actors shared across consumers.

    ``source_map`` (source → actor index, must cover every source in the
    stream): explicit balanced routing for SMALL key universes.  The
    default hash routing balances naturally once distinct sources ≫
    actors (the web-scale regime), but e.g. 8 sources on 4 actors can
    pigeonhole 3 sources onto one actor and make it the critical path —
    the Kafka-partition-assignment fix is an explicit table, chosen by
    the operator who knows the universe (all of a source's rows still
    land on ONE actor, so state semantics are unchanged).

    Recovery design (deliberate split): this multi-consumer shape recovers
    by WHOLE-RUN replay against the exactly-once sink (kill-and-replay
    byte-equal, tested) — a fine-grained state checkpoint here would need
    a consistent cut across concurrently-ingesting consumers (a
    Chandy-Lamport barrier through the actor pool); the coordinated
    single-consumer engine (`run_streaming(checkpoint_every=…)`) is the
    variant that offers tail-only checkpoint resume.

    The global watermark is ``min over open partitions (max_ts) −
    allowed_lateness``, so cross-partition skew only delays finalization —
    it can never produce false lates.  Input files are assigned round-robin
    (files are time-ordered chunks, keeping partitions roughly in lockstep).

    ``out_dir``: optional exactly-once sink (this is the multi-node
    ingestion shape): finalized windows stage straight from each state
    actor into the sink layout, late rows into ``<out_dir>/_late``, and the
    driver only commits manifests at end of stream — no rewritten or late
    row ever rides the driver.  Read back with ``read_output(out_dir)`` /
    ``read_late(out_dir)``.  Returns (StreamingResult, per-partition
    metrics).  As in ``run_streaming``, the actors and tracker are leased
    from the session's warm pool and reset between calls.
    """
    groups = _split_log(source, n_partitions)
    source_route = None
    if source_map is not None:
        skeys = np.array(sorted(source_map), dtype=object)
        sids = np.array([int(source_map[k]) for k in skeys], np.int64)
        bad = (sids < 0) | (sids >= n_actors)
        if bad.any():
            # silently %-wrapping would stack the re-mapped sources onto
            # the actors the explicit table was built to relieve
            raise ValueError(
                f"source_map assigns actors outside [0, {n_actors}): "
                f"{sorted(skeys[bad][:5].tolist())}"
            )
        source_route = (skeys, sids)

    sink = _sink_args(out_dir, num_partitions)
    with _leased_actors(cfg, n_actors, len(groups), sink) as (actors, tracker, _):
        send = functools.partial(_send_keyed, actors, source_route)
        consumer_refs = [
            _consume_partition.remote(i, g, tracker, micro_batch_rows, send)
            for i, g in enumerate(groups)
        ]
        emitted: list[pa.Table] = []
        if out_dir is None:
            # drain actor outboxes WHILE consumers run: without this the
            # whole rewritten output accumulates in actor memory until end
            # of stream (sink mode diverts emissions to storage, so nothing
            # to drain)
            pending = list(consumer_refs)
            while pending:
                _done, pending = ray.wait(pending, timeout=0.25)
                for tables in ray.get([a.take_outbox.remote() for a in actors]):
                    emitted.extend(tables)
        metrics = ray.get(consumer_refs)
        for tables in ray.get([a.flush.remote() for a in actors]):
            emitted.extend(tables)
        for tables in ray.get([a.take_outbox.remote() for a in actors]):
            emitted.extend(tables)
        # the per-partition throughput/wm-lag metrics persist with the
        # lineage manifests
        res = _gather(
            actors, emitted, out_dir, sink["sink_epoch"], _inpaint_output,
            consumer_metrics=metrics,
        )
    return res, metrics



class _SaltedCoordinator:
    """ONE definition of the salted engines' global detection state —
    per-(source, window) histogram merge with the detection-epoch horizon
    guard, the sticky first-detecting-window map, and the leftover-token
    rule.  Used inline by the coordinated ``run_streaming_salted`` driver
    loop and wrapped by the multi-consumer ``_SaltedAggregator`` actor:
    two engines, one coordinator, so a fix to either invariant (horizon
    guard, sticky ``w >= first_window`` rule) cannot desynchronize them."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        self.hists: dict[tuple[str, int], np.ndarray] = {}
        self.sticky: dict[str, tuple[int, int]] = {}
        self.horizon = -(1 << 62)

    def merge(self, srcs, wins, Hm) -> None:
        """Merge one ingest's associative histogram deltas.  A straggler
        contribution to an already-finalized window is dropped: its
        detection epoch has passed, and a recreated partial could later
        pin a garbage sticky token."""
        from ..state.keyed_state import _window_end

        for i in range(len(srcs)):
            key = (srcs[i], int(wins[i]))
            if _window_end(key[1], self.cfg) <= self.horizon:
                continue
            if key in self.hists:
                self.hists[key] += Hm[i]
            else:
                self.hists[key] = Hm[i].copy()

    def due_items(self, watermark: int) -> list[tuple[str, int, int]]:
        """Detect + evict every window due at ``watermark`` → the
        (source, window, wm_token) items to fan out to the state actors.
        Advances the horizon even when nothing is due."""
        from ..golden import detect_wm_token
        from ..state.keyed_state import _window_end

        cfg = self.cfg
        due = sorted(
            k for k in self.hists if _window_end(k[1], cfg) <= watermark
        )
        self.horizon = max(self.horizon, watermark)
        items: list[tuple[str, int, int]] = []
        for s, w in due:
            st = self.sticky.get(s) if cfg.detection_mode == "sticky" else None
            if cfg.fixed_wm_token >= 0:  # user override skips detection (M15)
                wm_tok = cfg.fixed_wm_token
            elif st is not None and w >= st[1]:
                wm_tok = st[0]
            else:
                wm_tok, _ = detect_wm_token(self.hists[(s, w)], cfg)
                if cfg.detection_mode == "sticky" and wm_tok >= 0 and st is None:
                    self.sticky[s] = (int(wm_tok), w)
            items.append((s, w, int(wm_tok)))
            del self.hists[(s, w)]
        return items

    def leftover_items(self, left) -> list[tuple[str, int, int]]:
        """Items for keys still buffered in actors with NO histogram (all
        contributions horizon-dropped): sticky applies only FROM the first
        detecting window onward; otherwise these keys' own detection is
        -1 (emit unrewritten — failed-detection semantics)."""
        cfg = self.cfg
        fixed = cfg.fixed_wm_token if cfg.fixed_wm_token >= 0 else None

        def tok(s: str, w: int) -> int:
            if fixed is not None:
                return fixed
            st = self.sticky.get(s)
            return st[0] if st is not None and w >= st[1] else -1

        return [(s, w, tok(s, w)) for s, w in left]


def run_streaming_salted(
    source,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    n_actors: int = 4,
    salt_buckets: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
) -> StreamingResult:
    """Coordinated streaming with hot-key salting (SURVEY §4.2).

    Rows route to ``hash(source, salt(doc_id)) % n_actors`` — a hot source
    spreads across up to ``salt_buckets`` actors.  Because no single actor
    then sees a whole (source, window), actors only buffer rows and return
    per-batch histogram DELTAS; the driver (which barriers each micro-batch
    anyway) merges the associative deltas into the global per-key histogram,
    runs the Otsu detection (windowed or sticky), and broadcasts the agreed
    wm tokens back via ``finalize_windows``.  Tumbling/sliding only —
    session gap-merge needs all of a source's rows on one actor.

    ``out_dir``: optional exactly-once sink — rewritten rows stage from
    each actor straight into the sink layout (the finalize_windows acks
    carry no token data), late rows into ``<out_dir>/_late``; the driver
    commits manifests at end of stream.  As in ``run_streaming``, the
    actors and tracker are leased from the session's warm pool and reset
    between calls.
    """
    if cfg.window_kind == "session":
        return _run_salted_sessions(
            source, cfg, n_actors=n_actors, salt_buckets=salt_buckets,
            micro_batch_rows=micro_batch_rows, out_dir=out_dir,
            num_partitions=num_partitions,
        )
    if cfg.window_kind not in ("tumbling", "sliding"):
        raise ValueError("salted streaming supports tumbling/sliding/session windows")
    sink = _sink_args(out_dir, num_partitions)

    # ONE coordinator definition shared with the multi-consumer engine
    # (_SaltedCoordinator holds the hist merge, the sticky map — source →
    # (token, FIRST detecting window); sticky never rewrites a window
    # earlier than the first detecting one, same guard as
    # keyed_state._emit_window / golden.apply_sticky — and the horizon)
    coord = _SaltedCoordinator(cfg)
    emitted: list[pa.Table] = []

    with _leased_actors(cfg, n_actors, 1, sink) as (actors, tracker, _):

        def finalize_due(watermark: int) -> None:
            items = coord.due_items(watermark)
            if not items:
                return
            for tables in ray.get([a.finalize_windows.remote(items) for a in actors]):
                emitted.extend(tables)

        for batch in _arrival_batches(source, micro_batch_rows):
            ts = np.asarray(batch["event_ts"], dtype=np.int64)
            wm = ray.get(tracker.watermark.remote())
            finalize_due(wm)
            acks = [
                actors[a].ingest_partial.remote(batch.take(idx), wm)
                for a, idx in _by_actor(_salted_route(batch, salt_buckets, n_actors), n_actors)
                if idx.size
            ]
            for srcs, wins, Hm, _late_total in ray.get(acks):  # the per-batch barrier
                coord.merge(srcs, wins, Hm)
            tracker.update.remote(0, int(ts.max()))

        # one final pass finalizes everything in ascending window order per
        # source (an intermediate real-watermark pass would emit an
        # identical prefix — pure dead work)
        finalize_due(1 << 62)
        # anything still buffered (no hist because its contributions were
        # all in late-dropped rows) — flush defensively
        leftovers = ray.get([a.buffered_keys.remote() for a in actors])
        left = sorted({k for ks in leftovers for k in map(tuple, ks)})
        if left:
            items = coord.leftover_items(left)
            for tables in ray.get([a.finalize_windows.remote(items) for a in actors]):
                emitted.extend(tables)

        return _gather(actors, emitted, out_dir, sink["sink_epoch"], _inpaint_output)


def _run_salted_sessions(
    source,
    cfg: EngineConfig,
    *,
    n_actors: int,
    salt_buckets: int,
    micro_batch_rows: int,
    out_dir: str | None,
    num_partitions: int | None,
) -> StreamingResult:
    """Coordinated session windows under hot-key salting (SURVEY §4.2).

    No single actor sees all of a salted source's rows, so actors only
    buffer rows and return per-batch session FRAGMENTS (source, start,
    last, hist); session boundaries are associative interval data (the gap
    relation is transitive), so the driver gap-merges fragments globally —
    exactly like the histogram deltas of the windowed salted path — decides
    closure against the watermark, detects per closed session, and
    broadcasts (source, lo, hi, wm_token) items back for rewrite + evict.
    Late rows are judged against the driver's per-source closed horizon
    (same rule as the unsalted session path)."""
    from ..golden import detect_wm_token

    sink = _sink_args(out_dir, num_partitions)
    sessions: dict[str, list[dict]] = {}  # src -> sorted [{start, last, hist}]
    horizons: dict[str, int] = {}
    emitted: list[pa.Table] = []

    def merge_fragments(srcs, starts, lasts, Hm) -> None:
        # same interval merge as the actor-local session state — ONE
        # definition of the gap boundary rule (keyed_state.merge_session_intervals)
        from ..state.keyed_state import merge_session_intervals

        for i in range(len(srcs)):
            s = srcs[i]
            frags = sessions.get(s, [])
            frags.append({"start": int(starts[i]), "last": int(lasts[i]), "hist": Hm[i].copy()})
            sessions[s] = merge_session_intervals(frags, cfg.session_gap)

    sticky: dict[str, int] = {}

    with _leased_actors(cfg, n_actors, 1, sink) as (actors, tracker, _):

        def finalize_due(watermark: int) -> None:
            items: list[tuple[str, int, int, int]] = []
            for s in sorted(sessions):
                keep = []
                for ses in sessions[s]:  # ascending start per source (merge invariant)
                    if ses["last"] + cfg.session_gap <= watermark:
                        if cfg.fixed_wm_token >= 0:  # user override skips detection
                            wm_tok = cfg.fixed_wm_token
                        elif cfg.detection_mode == "sticky" and s in sticky:
                            wm_tok = sticky[s]
                        else:
                            wm_tok, _cov = detect_wm_token(ses["hist"], cfg)
                            if cfg.detection_mode == "sticky" and wm_tok >= 0:
                                sticky[s] = int(wm_tok)
                        items.append((s, ses["start"], ses["last"], int(wm_tok)))
                        horizons[s] = max(
                            horizons.get(s, -(1 << 62)), ses["last"] + cfg.session_gap
                        )
                    else:
                        keep.append(ses)
                sessions[s] = keep
            if items:
                for tables in ray.get(
                    [a.finalize_sessions_salted.remote(items) for a in actors]
                ):
                    emitted.extend(tables)

        for batch in _arrival_batches(source, micro_batch_rows):
            ts = np.asarray(batch["event_ts"], dtype=np.int64)
            wm = ray.get(tracker.watermark.remote())
            finalize_due(wm)
            acks = [
                actors[a].ingest_session_partial.remote(batch.take(idx), horizons)
                for a, idx in _by_actor(_salted_route(batch, salt_buckets, n_actors), n_actors)
                if idx.size
            ]
            for srcs, starts, lasts, Hm, _n_late in ray.get(acks):  # per-batch barrier
                merge_fragments(srcs, starts, lasts, Hm)
            tracker.update.remote(0, int(ts.max()))

        finalize_due(1 << 62)

        return _gather(actors, emitted, out_dir, sink["sink_epoch"], _inpaint_output)


@ray.remote
class _SaltedAggregator(Resettable):
    """Global detection state of the MULTI-CONSUMER salted engine — the
    coordinated salted path's driver role moved into an actor so consumers
    scale.  Holds the per-(source, window) histogram merge, the sticky
    map, the detection-epoch horizon, and (driver-collect mode) the
    emitted-output outbox.  Consumers forward their ingest deltas here
    (Ray resolves the actors' ``ingest_partial`` ObjectRefs before
    invoking ``add``, so the rows are provably buffered before their
    deltas merge); finalization fans ``finalize_windows`` back out to the
    state actors.  Single-actor serialization of ``add`` makes the
    horizon guard race-free, exactly like the driver loop it replaces.

    Consumers send ``maybe_finalize`` without waiting for it, so a failed
    finalize is recorded (the first one) and re-raised by ``final_flush``:
    its windows' histograms are already evicted, and carrying on would
    re-emit them through the leftover path with wrong tokens."""

    def __init__(self, cfg: EngineConfig, actors: list):
        self.coord = _SaltedCoordinator(cfg)
        self.actors = actors
        self.outbox: list[pa.Table] = []
        self.error: tuple[int, BaseException] | None = None

    def add(self, *delta_results) -> None:
        for srcs, wins, Hm, _n_late in delta_results:
            self.coord.merge(srcs, wins, Hm)

    def maybe_finalize(self, watermark: int) -> None:
        if self.error is not None:
            return  # the call fails at final_flush; finalize nothing more
        try:
            self._fan_out(self.coord.due_items(int(watermark)))
        except Exception as e:  # noqa: BLE001 — re-raised by final_flush
            self.error = (int(watermark), e)

    def _fan_out(self, items) -> None:
        if not items:
            return
        # aggregator → state-actor fan-out (no call cycle: state actors
        # never call back); sink mode diverts, so the returned lists are
        # empty there and the outbox only grows in driver-collect mode
        for tables in ray.get(
            [a.finalize_windows.remote(items) for a in self.actors]
        ):
            self.outbox.extend(tables)

    def final_flush(self) -> None:
        """End of stream: finalize every held histogram, then the
        leftover-buffer path (keys whose contributions were all dropped by
        the horizon guard — same rule as the coordinated salted engine).
        Raises the first error a ``maybe_finalize`` recorded."""
        if self.error is not None:
            wm, e = self.error
            raise RuntimeError(f"salted aggregator: finalize at watermark {wm} failed") from e
        self._fan_out(self.coord.due_items(1 << 62))
        leftovers = ray.get([a.buffered_keys.remote() for a in self.actors])
        left = sorted({k for ks in leftovers for k in map(tuple, ks)})
        if left:
            self._fan_out(self.coord.leftover_items(left))

    def take_outbox(self) -> list[pa.Table]:
        out = self.outbox
        self.outbox = []
        return out


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
    """MULTI-CONSUMER salted streaming — the scale path past the keyed
    hot-source ceiling.  The keyed engines bind each source to one actor
    (order-dependent state), so a source carrying p of the stream caps
    speedup at 1/p (measured: the 21%-head zipf stream flatlines at ~5
    actors).  Here detection state is the ASSOCIATIVE histogram form of
    the coordinated salted engine, so a hot source spreads across
    ``salt_buckets`` actors — but unlike that engine (driver barriers
    every micro-batch: measured ~26k rows/s at 32 cpus), consumers run in
    parallel and the driver role lives in a ``_SaltedAggregator`` actor.

    Ordering/arrival contract (same proof shape as the keyed partitioned
    engine, one hop longer): a consumer advances its partition watermark
    only after the aggregator acked ``add`` over the actors' resolved
    ingest deltas, so when the MIN watermark passes a window's end +
    lateness, every one of its rows is buffered in some actor and every
    histogram delta is merged — finalization is then safe anywhere in
    time.  Tumbling/sliding, windowed or sticky detection; sessions need
    the coordinated form (fragment gap-merge).  Recovery: whole-run
    replay against the exactly-once sink (sink layouts dedup by epoch),
    as for ``run_streaming_partitioned``.  The state actors, the tracker
    and the aggregator are leased from the session's warm pool and reset
    between calls, as in ``run_streaming``."""
    if cfg.window_kind not in ("tumbling", "sliding"):
        raise ValueError(
            "multi-consumer salted streaming supports tumbling/sliding "
            "windows (sessions need the coordinated salted engine)"
        )
    groups = _split_log(source, n_partitions)
    sink = _sink_args(out_dir, num_partitions)
    with _leased_actors(cfg, n_actors, len(groups), sink, aggregator=True) as (
        actors, tracker, aggregator,
    ):
        send = functools.partial(_send_salted, actors, aggregator, salt_buckets)
        consumer_refs = [
            _consume_partition.remote(i, g, tracker, micro_batch_rows, send, aggregator)
            for i, g in enumerate(groups)
        ]
        emitted: list[pa.Table] = []
        if out_dir is None:
            # drain the aggregator outbox WHILE consumers run — in
            # driver-collect mode the whole rewritten output passes through it
            pending = list(consumer_refs)
            while pending:
                _done, pending = ray.wait(pending, timeout=0.25)
                emitted.extend(ray.get(aggregator.take_outbox.remote()))
        metrics = ray.get(consumer_refs)
        ray.get(aggregator.final_flush.remote())
        emitted.extend(ray.get(aggregator.take_outbox.remote()))
        res = _gather(
            actors, emitted, out_dir, sink["sink_epoch"], _inpaint_output,
            consumer_metrics=metrics,
        )
    return res, metrics


def _inpaint_output(tables: list) -> pa.Table:
    """The inpaint engines' driver-collected output: rows sorted by doc_id,
    or the empty table of their schema."""
    if tables:
        return pa.concat_tables(tables).sort_by("doc_id")
    return pa.table(
        {
            "doc_id": pa.array([], pa.string()),
            "tokens": pa.array([], pa.list_(pa.int32())),
            "n_tok": pa.array([], pa.int32()),
            "source": pa.array([], pa.string()),
            "event_ts": pa.array([], pa.int64()),
            "wm_token": pa.array([], pa.int32()),
            "coverage_pct": pa.array([], pa.float64()),
            "radius": pa.array([], pa.int32()),
            "n_passes": pa.array([], pa.int32()),
        }
    )
