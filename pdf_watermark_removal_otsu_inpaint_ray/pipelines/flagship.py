"""The flagship two-phase pipeline (engine equivalent of the CLI path,
SURVEY.md §3.1):

    read_parquet → [phase 1] windowed histogram partials → tiny groupby merge
    → watermark table (broadcast) → [phase 2] fused detect/inpaint map tasks
    → sink (exactly-once parquet or a returned lazy Dataset)

Phase 1 reads the stream once and moves only pre-aggregated 256-bin partials
through the shuffle; phase 2 reads the stream again and rewrites tokens with a
single broadcast lookup — no all-to-all exchange ever touches token data.
This is the batch-expressed form; the incremental form with watermark-driven
state eviction lives in :mod:`.streaming`.
"""

from __future__ import annotations

from typing import Optional

import ray
import ray.data

from ..config import DEFAULT_CONFIG, EngineConfig
from ..stages.detect import compute_wm_table
from ..stages.inpaint import make_inpaint_fn


def run_flagship(
    ds: "ray.data.Dataset",
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    wm: Optional[dict] = None,
    motif_docs: Optional[frozenset] = None,
    spans: Optional[dict] = None,
    batch_size: int = 1024,
    emit_metadata: bool = True,
    session_map: Optional[dict] = None,
) -> "ray.data.Dataset":
    """Run detection (unless ``wm`` given) and return the lazy rewritten stream.

    Phase 2 runs as stateless map tasks on warm workers; each worker
    process builds its stage once from the broadcast refs (see
    make_inpaint_fn).  ``spans``: doc_id → padded ranges from the
    span-event join (J1, broadcast small side).
    ``session_map``: precomputed per-source session boundaries — pass it
    when the caller already ran the phase-0 pass (auto_tune runs it once
    for all parameter groups) to avoid recomputing per call.
    """
    if wm is None:
        # row-local detectors (auto M3/M4, learned T3, any registered with
        # row_local=True) and the fixed-token override (M15) never read the
        # watermark table: no histogram phase at all
        from ..registry import detector_is_row_local

        if detector_is_row_local(cfg.detection_method) or cfg.fixed_wm_token >= 0:
            wm = {}
    if cfg.window_kind == "session" and session_map is None and wm != {}:
        # phase 0: per-source session boundaries (one distributed pass over
        # (source, event_ts) pairs; broadcast like the wm table).  Skipped
        # when wm == {} — row-local/fixed-token pipelines never consult the
        # wm table, so session window ids cannot affect the output (review
        # finding: the pass was pure waste there)
        from ..stages.detect import session_window_mapping

        session_map = session_window_mapping(ds, cfg)
    if wm is None:
        wm = compute_wm_table(ds, cfg, session_map=session_map)
    wm_ref = ray.put(wm)
    motif_ref = ray.put(motif_docs) if motif_docs else None
    spans_ref = ray.put(spans) if spans else None
    session_ref = ray.put(session_map) if session_map is not None else None
    return ds.map_batches(
        make_inpaint_fn(wm_ref, cfg, motif_ref, emit_metadata, spans_ref, session_ref),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
