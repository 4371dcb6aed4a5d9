"""Phase-2 rewrite: the fused detect→protect→refine→inpaint→blend stage,
and the rewritten-row table both tiers emit.

The flagship runs :class:`InpaintStage` as stateless ``map_batches`` tasks
(M2-M13 fused, SURVEY.md §2.2) through :func:`make_inpaint_fn`: the
watermark table (small side) is broadcast once via ``ray.put`` and fetched
once per worker process — never re-shipped per batch.  The per-batch body is
entirely flat-vectorized (:mod:`.kernels`); output tokens reuse the input
offsets (lengths are preserved, mirroring the reference's images-in/images-out
contract, watermark_remover.py:174-232).  The streaming state actors build
their output with the same :func:`rewritten_table`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import EngineConfig
from ..schema import SEQ_SCHEMA_TS
from .detect import NO_WINDOW, WmKey, assign_windows_batch, factorize_key_pairs
from .kernels import flatten_list_column, process_batch_flat

# The rewritten-row table of both tiers: the input row with its rewritten
# tokens, then the rewrite's per-row metadata (left out when a caller turns
# ``emit_metadata`` off).
_METADATA_FIELDS = [
    ("wm_token", pa.int32()),
    ("coverage_pct", pa.float64()),
    ("radius", pa.int32()),
    ("n_passes", pa.int32()),
]
REWRITTEN_SCHEMA = pa.schema(list(SEQ_SCHEMA_TS) + _METADATA_FIELDS)


def rewritten_table(batch: pa.Table, fb, res, emit_metadata: bool = True) -> pa.Table:
    """The :data:`REWRITTEN_SCHEMA` table of ``batch`` rewritten by
    ``res = process_batch_flat(fb, ...)`` over ``fb``, the batch's
    flattened tokens.  The other input columns pass through unchanged."""
    tokens = pa.ListArray.from_arrays(
        pa.array(fb.offsets.astype(np.int32), pa.int32()), pa.array(res.values, pa.int32())
    )
    cols = [tokens if name == "tokens" else batch[name] for name in SEQ_SCHEMA_TS.names]
    if emit_metadata:
        meta = (res.wm_row, res.coverage_pct, res.radius, res.n_passes)
        cols += [pa.array(v, t) for v, (_, t) in zip(meta, _METADATA_FIELDS)]
    return pa.Table.from_arrays(cols, names=REWRITTEN_SCHEMA.names[: len(cols)])


def lookup_wm_rows(
    wm: dict[WmKey, tuple[int, float]],
    src: np.ndarray,
    win: np.ndarray,
    default: int = -1,
) -> np.ndarray:
    """Per-row wm token from the broadcast table (vectorized over unique keys).

    ``default``: value for missing keys — the user's fixed token override
    (cli --wm-token, M15) when set, else -1 (no watermark).  Rows whose
    window is :data:`detect.NO_WINDOW` (session-map drift misses) take the
    default directly — the sentinel is int64 min and must not enter the
    w_span factorization."""
    out = np.full(win.size, default, dtype=np.int64)
    valid = win != NO_WINDOW
    v = np.nonzero(valid)[0]
    if v.size == 0:
        return out
    s_u, w_min, w_span, c_u, c_inv = factorize_key_pairs(src[v], win[v])
    c_wm = np.array(
        [
            wm.get((str(s_u[c // w_span]), int(c % w_span + w_min)), (default, 0.0))[0]
            for c in c_u
        ],
        dtype=np.int64,
    )
    out[v] = c_wm[c_inv]
    return out


# per-worker-process cache of broadcast objects and built stages: stateless
# map tasks reuse warm worker processes, so state amortizes exactly like an
# actor pool but without paying a fresh process spawn + imports per pool
# (an actor pool spawns NEW processes per execution; ~2-3 s x pool size of
# non-scaling ramp).  Bounded: a warm worker serving many successive runs
# sees a fresh ref hex (hence a fresh key) per run, so without eviction the
# fetched wm tables / built stages of finished runs would accumulate
# forever.  LRU via dict insertion order — entries from live runs are
# re-inserted on hit.
_PROCESS_CACHE: dict = {}
_PROCESS_CACHE_MAX = 32


def _cache_put(key, value):
    _PROCESS_CACHE[key] = value
    while len(_PROCESS_CACHE) > _PROCESS_CACHE_MAX:
        _PROCESS_CACHE.pop(next(iter(_PROCESS_CACHE)))


def _cache_get(key):
    v = _PROCESS_CACHE.pop(key, None)
    if v is not None:
        _PROCESS_CACHE[key] = v  # re-insert → most-recently-used
    return v


def _cached_get(ref):
    import ray as _ray

    key = ("obj", ref.hex())
    v = _cache_get(key)
    if v is None:
        v = _ray.get(ref)
        _cache_put(key, v)
    return v


# identity tokens for non-ObjectRef cache-key components: id(x) is only
# unique while x is alive, so a recycled address could alias a NEW wm/spans
# object to an OLD worker-side cache entry.  Each distinct object gets a
# NEVER-REUSED sequence number; the pin map (id -> (seq, strong ref)) is
# LRU-BOUNDED (review finding: an unbounded pin set leaked every wm table a
# long-lived embedded process ever passed).  Evicting a live object merely
# costs a fresh seq (one worker-side stage rebuild) — it can never alias,
# because seqs are monotonic.  Production callers pass ObjectRefs (hex
# identity, never pinned).
_IDENT_PINS: dict = {}
_IDENT_SEQ = iter(range(1 << 62)).__next__
_IDENT_MAX = 64


def _ident(x):
    if hasattr(x, "hex"):
        return x.hex()
    ent = _IDENT_PINS.pop(id(x), None)
    if ent is None:
        ent = (_IDENT_SEQ(), x)
    _IDENT_PINS[id(x)] = ent  # (re-)insert -> most-recently-used
    while len(_IDENT_PINS) > _IDENT_MAX:
        _IDENT_PINS.pop(next(iter(_IDENT_PINS)))
    return ("id", ent[0])


def make_inpaint_fn(wm_ref, cfg, motif_ref=None, emit_metadata=True, spans_ref=None,
                    session_ref=None):
    """Build a plain map_batches function whose stage object is constructed
    once per worker process (module-level cache) from broadcast refs."""

    # the key must cover EVERY constructor input: two pipelines sharing a wm
    # ref but differing in motif docs or forced spans must not share a stage.
    # cfg itself (frozen dataclass) is the key component, not hash(cfg): dict
    # lookup resolves hash collisions through __eq__, so two different
    # configs can never alias the same cached stage.
    stage_key = ("stage", _ident(wm_ref), cfg, emit_metadata,
                 _ident(motif_ref) if motif_ref is not None else None,
                 _ident(spans_ref) if spans_ref is not None else None,
                 _ident(session_ref) if session_ref is not None else None)

    def _fetch(x):
        if x is None:
            return None
        return _cached_get(x) if hasattr(x, "hex") else x

    def inpaint_fn(batch: pa.Table) -> pa.Table:
        stage = _cache_get(stage_key)
        if stage is None:
            stage = InpaintStage(
                _fetch(wm_ref), cfg, _fetch(motif_ref), emit_metadata,
                _fetch(spans_ref), _fetch(session_ref),
            )
            _cache_put(stage_key, stage)
        return stage(batch)

    return inpaint_fn


class InpaintStage:
    """The fused rewrite stage: rewrite watermark spans per the governing
    window's detection.  Takes resolved values; :func:`make_inpaint_fn`
    fetches them from their broadcast refs once per worker process and
    caches the built stage."""

    def __init__(
        self,
        wm: dict,
        cfg: EngineConfig,
        motif_docs=None,
        emit_metadata: bool = True,
        spans=None,
        session_map=None,
    ):
        self.wm = wm
        self.motif_docs = motif_docs or frozenset()
        # doc_id -> padded [start, stop) ranges from the span-event join (J1)
        self.spans = spans or {}
        # broadcast session-window mapping (batch-path session windows)
        self.session_map = session_map
        self.cfg = cfg
        self.emit_metadata = emit_metadata

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        fb = flatten_list_column(batch["tokens"])
        src = np.asarray(batch["source"])
        ts = np.asarray(batch["event_ts"], dtype=np.int64)
        if cfg.window_kind == "session":
            if self.session_map is None:
                # legal only when no wm table is consulted (row-local
                # detectors / fixed token — run_flagship skips phase 0
                # then); window ids are irrelevant in that case
                if self.wm:
                    raise ValueError(
                        "session windows need a session_map when a wm table is present"
                    )
                win = np.zeros(ts.size, dtype=np.int64)
            else:
                from .detect import lookup_session_windows

                win = lookup_session_windows(self.session_map, src, ts)
        else:
            win = assign_windows_batch(ts, cfg)
        wm_row = lookup_wm_rows(self.wm, src, win, default=cfg.fixed_wm_token)

        max_span_row = None
        forced_pos = None
        if self.motif_docs or self.spans:
            ids = batch["doc_id"].to_pylist()
            if self.motif_docs:
                is_motif = np.array([d in self.motif_docs for d in ids], dtype=bool)
                if is_motif.any():
                    max_span_row = np.where(is_motif, fb.lens.astype(np.int64), cfg.max_span)
            if self.spans and any(d in self.spans for d in ids):
                from .join import apply_forced_ranges

                forced_pos = apply_forced_ranges(
                    np.zeros(fb.values.size, dtype=bool), fb, ids, self.spans
                )

        res = process_batch_flat(fb, wm_row, cfg, max_span_row, forced_pos)
        return rewritten_table(batch, fb, res, self.emit_metadata)
