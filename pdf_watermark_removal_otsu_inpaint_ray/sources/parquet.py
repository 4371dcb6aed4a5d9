"""Sequence-stream sources (SURVEY.md §2.1 S1-S3).

The engine's read path is plain ``ray.data.read_parquet`` — Ray Data streams
Parquet row groups lazily with backpressure, which subsumes the reference's
page-at-a-time reader (``pdf_processor.py:93-128``).  Column pruning is always
applied at the read.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..synth import tokenize_documents_batch


def _ensure_event_ts(batch: pa.Table) -> pa.Table:
    """Derive event_ts from doc_id ordering when the stream carries none.

    doc_ids are zero-padded decimal (or suffixed "-docNNN"); the TRAILING
    integer run is the deterministic event time (SURVEY.md §1.2).  The
    extraction is one vectorized RE2 pass (``pc.extract_regex``) — no
    per-row/per-char Python on the streaming micro-batch hot path, and a
    doc_id with several digit runs ("src01-doc0005") yields 5, never the
    concatenation 10005 (which would teleport the watermark by the source
    index and mass-late every other source's rows).
    """
    if "event_ts" in batch.column_names:
        return batch
    if "doc_id" not in batch.column_names:
        # a stream with neither column names its own time axis (the CEP
        # consumers pass ts_col explicitly) — nothing to derive
        return batch
    import pyarrow.compute as pc

    ext = pc.extract_regex(
        batch["doc_id"].combine_chunks().cast(pa.string()), r"(?P<ts>[0-9]+)$"
    )
    ts = pc.fill_null(pc.cast(pc.struct_field(ext, "ts"), pa.int64()), 0)
    return batch.append_column("event_ts", ts)


PARQUET_EXTENSIONS = ["parquet"]


def is_parquet_file(path: str) -> bool:
    """The one file rule of every stream reader: the case-insensitive
    ``.parquet`` suffix that ``ray.data.read_parquet`` applies with
    ``file_extensions=PARQUET_EXTENSIONS``.  Other files beside the chunks
    (a cached table, a marker, an editor backup) are not stream data."""
    return path.lower().endswith(".parquet")


def read_sequences(paths: str | list[str], *, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Read a tokenized-sequence Parquet stream; adds event_ts if missing.
    A directory contributes only its ``*.parquet`` files (nested
    ``part=NNN/`` layouts included) — the same rule the streaming engines
    apply; a file named explicitly is read whatever its suffix.

    "Missing" is judged against the FILE schema, not the pruned projection:
    a caller selecting ``columns`` without event_ts from a stream that HAS
    real event times gets the pruned columns untouched — fabricating
    timestamps there would silently change window assignment based on
    which columns a stage happened to select.
    """
    import os

    import pyarrow.parquet as pq_

    def _first_parquet(root: str) -> str:
        """First .parquet file under root in lexicographic walk order —
        handles nested/hive-partitioned layouts (part=NNN/ subdirs) that
        ray.data.read_parquet reads fine but a flat listdir would miss."""
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for f in sorted(filenames):
                if is_parquet_file(f):
                    return os.path.join(dirpath, f)
        return root  # no parquet anywhere: let read_parquet raise its error

    first = paths if isinstance(paths, str) else paths[0]
    if os.path.isdir(first):
        first = _first_parquet(first)
    file_has_ts = "event_ts" in pq_.read_schema(first).names
    listed = [paths] if isinstance(paths, str) else list(paths)
    ds = ray.data.read_parquet(
        paths,
        columns=columns,
        file_extensions=PARQUET_EXTENSIONS if any(map(os.path.isdir, listed)) else None,
    )
    if not file_has_ts and (columns is None or "doc_id" in columns):
        ds = ds.map_batches(_ensure_event_ts, batch_format="pyarrow")
    return ds


def read_documents_as_sequences(sf_dir: str) -> "ray.data.Dataset":
    """Deterministically tokenize the driver's ``documents`` table into the
    engine's input schema (codepoint tokens; oracle SQL in __ray_entry__)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return ds.map_batches(tokenize_documents_batch, batch_format="pyarrow")
