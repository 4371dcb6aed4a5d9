"""The base every streaming state actor inherits: sink staging, the late
side output and checkpoint/restore, written once — and, for the sweep
actors, the event-time gate.

An actor emits output rows only through ``_divert`` and late rows only
through ``_note_late``; its methods return no tables.  In sink mode both
stage into the exactly-once layout (output under ``sink_dir``, late rows
under its ``_late/`` side output) and the driver only commits manifests;
actor memory for both is O(stage buffer), never O(stream).  In
driver-collect mode (small runs and tests) both are held in actor memory,
checkpointed with the base's fields, and returned once by ``take_held``
at end of stream.  A subclass calls ``_init_staging(**sink)`` from its
constructor (``sink`` is ``pipelines/streaming._sink_args``' shape; every
key defaults to "no sink"), names its own mutable state in
``_CKPT_FIELDS``, and keeps only its operator logic.

The event-time gate (:class:`_SweepGateBase`) is where disordered
arrivals become safe to reorder.  A row arriving at or under
``finalized_upto`` is late; every other row waits in ``_pending`` until
the watermark passes its timestamp, and only then reaches the operator.
Every earlier-timestamp row has arrived by then, so each release is an
event-time prefix that follows the previous one: an operator may fold
its per-key state over released rows as if the stream were sorted.  The
sweep actors (attribution, first-touch, dedup, funnel, rate-limit,
session-stats) inherit it and keep only their per-key logic.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa

_MIN = np.int64(-(1 << 62))
# end-of-stream watermark: a flush releases every pending row
_EOS = 1 << 62


def grow_sorted_keys(
    kid: np.ndarray,
    keys: np.ndarray,
    cols: list[tuple[np.ndarray, object]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Union ``keys`` into the sorted key array ``kid``.  Each ``(array,
    fill)`` in ``cols`` is aligned row-for-row with ``kid`` (1-D, or a
    matrix with one row per key); it comes back re-indexed to the grown
    key array, its new keys' rows set to ``fill``.  Returns ``(kid,
    arrays)``, the inputs themselves when every key is already known."""
    new = np.setdiff1d(np.unique(keys), kid, assume_unique=True)
    if not new.size:
        return kid, [a for a, _ in cols]
    merged = np.union1d(kid, new)
    at = np.searchsorted(merged, kid)
    grown = []
    for a, fill in cols:
        g = np.full((merged.size,) + a.shape[1:], fill, a.dtype)
        g[at] = a
        grown.append(g)
    return merged, grown


class _StagedEmitterBase:
    """Sink staging, the held output and the counted late side output,
    the end-of-stream ``sink_flush`` / ``take_held`` and the
    ``checkpoint_state`` / ``restore_state`` pair shared by the streaming
    state actors.  A checkpointing subclass names its mutable state in
    ``_CKPT_FIELDS``; the base's own (``_BASE_FIELDS``) is snapshotted
    with it.  There is no default, so an actor that never declared its
    state cannot snapshot a part of it."""

    _BASE_FIELDS = ("n_late", "wm", "_out_mem", "_late_mem")

    def _init_staging(
        self,
        *,
        sink_dir: str | None = None,
        sink_partitions: int = 8,
        sink_stage_rows: int = 32768,
        sink_done: frozenset[int] = frozenset(),
        late_done: frozenset[int] = frozenset(),
        sink_epoch: int = 0,
    ) -> None:
        """``sink_dir``: when set, emitted rows flow DIRECTLY into the
        exactly-once sink's staged layout from this actor (buffered to
        ``sink_stage_rows`` to bound file counts) and late rows into
        ``<sink_dir>/_late``.  ``sink_done`` / ``late_done``: committed
        partitions of the two layouts (resume).  ``sink_epoch``: staging
        epoch of the producing run (sinks/exactly_once.begin_epoch), which
        lets finalize discard a crashed earlier attempt's staged rows."""
        self.sink_dir = sink_dir
        self.sink_partitions = sink_partitions
        self.sink_stage_rows = sink_stage_rows
        self._sink_done = sink_done
        self._late_done = late_done
        self.sink_epoch = sink_epoch
        self._sink_buf: list[pa.Table] = []
        self._sink_rows = 0
        self._late_buf: list[pa.Table] = []
        self._late_buf_rows = 0
        self.wm = int(_MIN)
        self.n_late = 0
        # driver-collect mode: output and late rows held until take_held
        self._out_mem: list[pa.Table] = []
        self._late_mem: list[pa.Table] = []

    def _route_late(self, side: int, batch: pa.Table, ts: np.ndarray):
        """Split off rows with ``ts <= wm``: tag (side, doc_id) and route
        them late; return the surviving (batch, ts)."""
        late = ts <= self.wm
        if not late.any():
            return batch, ts
        lb = batch.filter(pa.array(late)).append_column(
            "side", pa.array(np.full(int(late.sum()), side), pa.int64())
        )
        # staged-layout partition key: unique iff seq is unique per log
        # (the operator's stated contract), side bit disambiguates logs
        lb = lb.append_column(
            "doc_id",
            pa.array(
                (np.asarray(lb["seq"], np.int64) << np.int64(1))
                | np.int64(side),
                pa.int64(),
            ),
        )
        self._note_late(lb)
        keep = ~late
        return batch.filter(pa.array(keep)), ts[keep]

    def _divert(self, tables: list[pa.Table]) -> None:
        """Emit output tables: staged in sink mode (emitted rows never
        travel through the driver), else held for ``take_held``."""
        if self.sink_dir is None:
            self._out_mem.extend(tables)
            return
        for t in tables:
            if t.num_rows:
                self._sink_buf.append(t)
                self._sink_rows += t.num_rows
        if self._sink_rows >= self.sink_stage_rows:
            self._flush_sink()

    def _flush_sink(self) -> None:
        if not self._sink_buf:
            return
        from ..sinks.exactly_once import stage_table

        table = pa.concat_tables(self._sink_buf)
        self._sink_buf, self._sink_rows = [], 0
        stage_table(
            self.sink_dir, table, self.sink_partitions, self._sink_done,
            self.sink_epoch,
        )

    def _note_late(self, late_batch: pa.Table) -> None:
        """Count + route a late batch: to the ``<sink_dir>/_late`` staged
        layout in sink mode (bounded actor buffer — never O(stream)), to
        actor memory only in driver-collected mode (small runs/tests)."""
        self.n_late += late_batch.num_rows
        if self.sink_dir is None:
            self._late_mem.append(late_batch)
            return
        self._late_buf.append(late_batch)
        self._late_buf_rows += late_batch.num_rows
        if self._late_buf_rows >= self.sink_stage_rows:
            self._flush_late()

    def _flush_late(self) -> None:
        if not self._late_buf:
            return
        from ..sinks.exactly_once import late_dir, stage_table

        table = pa.concat_tables(self._late_buf)
        self._late_buf, self._late_buf_rows = [], 0
        stage_table(
            late_dir(self.sink_dir), table, self.sink_partitions,
            self._late_done, self.sink_epoch,
        )

    def take_held(self) -> tuple[list[pa.Table], list[pa.Table]]:
        """End of stream: return and clear the held ``(output, late)``
        tables — both empty in sink mode, where they live in the staged
        layouts (``read_output`` / ``read_late``)."""
        held = self._out_mem, self._late_mem
        self._out_mem, self._late_mem = [], []
        return held

    def sink_flush(self) -> None:
        """End of stream: push any buffered emissions and late rows to the
        staged layouts."""
        self._flush_sink()
        self._flush_late()

    # -- checkpoint / restore (pipelines/streaming.py ``_drive``) ----------

    def checkpoint_state(self) -> bytes:
        """Snapshot all mutable state.  Stage buffers flush to durable
        staged files FIRST, so the checkpoint's staged-file manifest plus
        this blob is the complete run state (nothing lives only in actor
        memory when the snapshot publishes)."""
        self.sink_flush()
        fields = self._BASE_FIELDS + self._CKPT_FIELDS
        return pickle.dumps({k: getattr(self, k) for k in fields})

    def restore_state(self, blob: bytes) -> None:
        """Restore a ``checkpoint_state`` blob.  Its fields must be exactly
        this class's: a blob from a build that named its state otherwise
        would restore into dead attributes and commit wrong output."""
        state = pickle.loads(blob)
        fields = self._BASE_FIELDS + self._CKPT_FIELDS
        if set(state) != set(fields):
            raise ValueError(
                f"{type(self).__name__} checkpoint does not match this build: "
                f"missing fields {sorted(set(fields) - set(state))}, "
                f"extra fields {sorted(set(state) - set(fields))}"
            )
        for k, v in state.items():
            setattr(self, k, v)


class _SweepGateBase(_StagedEmitterBase):
    """The event-time gate of the sweep actors (module docstring).  A
    subclass sets ``ts_col`` and ``seq_col``, calls ``_init_gate(**sink)``
    from its constructor, passes each micro-batch to ``_gate`` and folds
    what ``_ready`` releases; it lists ``_pending`` and ``finalized_upto``
    in its ``_CKPT_FIELDS``."""

    def _init_gate(self, **sink) -> None:
        self._init_staging(**sink)
        self._pending: list[pa.Table] = []
        # watermark of the last release: rows at or under it are late
        self.finalized_upto = int(_MIN)

    def _gate(self, batch: pa.Table, watermark: int) -> None:
        """Raise ``wm``; route rows at or under ``finalized_upto`` late
        (partitioned on ``doc_id``: ``seq_col`` unless the rows carry
        one) and buffer the rest."""
        self.wm = max(self.wm, watermark)
        late = np.asarray(batch[self.ts_col], np.int64) <= self.finalized_upto
        if late.any():
            lb = batch.filter(pa.array(late))
            if "doc_id" not in lb.column_names:
                lb = lb.append_column(
                    "doc_id", lb[self.seq_col].cast(pa.int64())
                )
            self._note_late(lb)
            batch = batch.filter(pa.array(~late))
        if batch.num_rows:
            self._pending.append(batch)

    def _ready(self, wm: int) -> pa.Table | None:
        """Pop the pending rows with ``ts <= wm`` (None if there are none)
        and advance ``finalized_upto`` to ``wm``."""
        ready = None
        if self._pending:
            pend = pa.concat_tables(self._pending)
            mask = np.asarray(pend[self.ts_col], np.int64) <= wm
            if mask.any():
                ready = pend.filter(pa.array(mask))
                rest = pend.filter(pa.array(~mask))
                self._pending = [rest] if rest.num_rows else []
        self.finalized_upto = max(self.finalized_upto, wm)
        return ready

    def _pending_rows(self) -> int:
        return int(sum(t.num_rows for t in self._pending))
