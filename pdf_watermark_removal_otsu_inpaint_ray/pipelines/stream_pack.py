"""Streaming per-source example-packing pipeline: fixed-length training
examples emitted continuously from the arriving token stream (state/
pack_state.py), instead of a batch repack over the finished corpus.

Single-read arrival-order consumption (the log contract of
:mod:`.streaming`); rows route to a :class:`PackStateActor` pool by
SOURCE hash — a source's docs meet one actor in driver submission order,
which is the whole determinism contract of this ORDER-SENSITIVE
consumer (packing is a prefix scan, not a monoid; Ray actor tasks from
one caller run FIFO).  Completed examples stream back as they close —
output-scale driver traffic; the final partial example per source emits
at flush.  When the log is doc-ordered the result is byte-equal to the
per-source batch chunker (the shared SQL twin).

Checkpoint/resume: the carry (< length tokens per source) plus the
consumed-batch cursor snapshot into ``ckpt_dir``; a killed run resumes
by skipping replayed micro-batches (kill-and-replay equal by test).
"""

from __future__ import annotations

import pyarrow as pa

from ..sinks.exactly_once import hash_partition_ids
from ..state.pack_state import PackStateActor
from .streaming import StreamingResult, _by_actor, _drive, _resume_or_fresh


def run_streaming_pack(
    source,
    *,
    length: int = 512,
    source_col: str = "source",
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    ckpt_dir: str | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Run the streaming packer over a Parquet path / Dataset of
    sequences (``source``, ``tokens`` list<int32>).  Ray must already be
    initialised.  Output is ``(source, example_id, n_tok, tok_sum,
    first_tok, last_tok, n_docs)``.

    ``out_dir`` switches to SINK-DIRECT mode: at 10^12-token scale the
    example stream is tokens/L rows — NOT driver-sized — so each actor
    stages completed examples straight into the exactly-once layout
    (stamped with a (source, example) partition key) and the driver
    commits manifests only; checkpoints then snapshot the staged-file
    manifest (truncated to on resume) instead of the driver-buffer blob.
    Both modes run on the streaming runtime (``streaming._drive``)."""
    if ckpt_dir is not None and out_dir is not None:
        raise ValueError("pass ckpt_dir only in driver-collected mode")
    sink, resume = _resume_or_fresh(
        "pack", f"pack:{source_col}:L={length}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, ckpt_dir=ckpt_dir,
        checkpoint_every=checkpoint_every,
    )
    actors = [PackStateActor.remote(length=length, **sink) for _ in range(n_actors)]

    def shape(tables: list) -> pa.Table:
        if tables:
            return pa.concat_tables(tables).sort_by(
                [(source_col, "ascending"), ("example_id", "ascending")]
            )
        return pa.table(
            {
                source_col: pa.array([], pa.string()),
                "example_id": pa.array([], pa.int64()),
                "n_tok": pa.array([], pa.int64()),
                "tok_sum": pa.array([], pa.int64()),
                "first_tok": pa.array([], pa.int64()),
                "last_tok": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
            }
        )

    return _drive(
        [source], actors, None,
        lambda _s, b: _by_actor(
            hash_partition_ids(b[source_col].combine_chunks(), n_actors), n_actors
        ),
        resume, shape, micro_batch_rows=micro_batch_rows,
        checkpoint_every=checkpoint_every, stop_after=_stop_after_batches,
    )
