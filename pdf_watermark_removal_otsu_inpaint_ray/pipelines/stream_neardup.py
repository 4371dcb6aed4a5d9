"""Streaming near-duplicate suppression pipeline: MinHash-LSH admission
over a live document stream (state/neardup_state.py holds the semantics
and the distribution contract).

Single-read arrival-order consumption.  Per micro-batch the driver routes
row PAYLOADS to doc-owner workers (hash(doc_id)) and receives only
metadata back (ids, ts, packed band keys, signatures).  Per epoch (each
watermark advance):

1. finalized metadata (ts <= wm, ordered by (ts, doc_id)) queries the
   band owners — scatter by band-key route, gather one boolean per doc:
   "near-dup of a kept doc in state";
2. the residual (not dup-of-state) resolves INTRA-epoch collisions on
   the driver: vectorized band-key match finds the colliding subset
   (duplication is sparse — almost all rows skip this), then the serial
   keep rule runs over that subset only.  The split is exact: state
   holds precisely the serially-kept docs of all prior epochs
   (induction), and a doc dropped against a not-yet-kept neighbour
   cannot happen because near-dup admission only tests against KEPT
   docs in both tiers;
3. kept docs' band entries scatter to their owners; doc owners emit
   kept payloads (driver mode) or stage them into the exactly-once
   layout (sink mode), discard duplicates, side-route late rows.  The
   epoch barrier (`ray.get`) orders inserts before the next epoch's
   queries, which is what makes the outcome independent of actor count,
   micro-batch size, and epoch cadence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..state.dedup_state import _splitmix_route
from ..state.neardup_state import (
    NearDupWorker,
    band_route,
    doc_signature_bands,
)
from ..state.watermark_tracker import WatermarkTracker
from .streaming import StreamingResult, _arrival_batches, _gather, _resume_or_fresh


def _resolve_intra_epoch(
    ids: np.ndarray,
    ts: np.ndarray,
    keys: np.ndarray,
    sigs: np.ndarray,
    state_dup: np.ndarray,
    has: np.ndarray,
    min_agree: int,
):
    """Exact serial keep rule over one epoch's residual docs.  Rows are
    pre-sorted by (ts, id).  Only rows whose band keys collide WITHIN the
    epoch enter the sequential walk — everything else is decided
    vectorized."""
    keep = np.zeros(ids.size, dtype=bool)
    cand_rows = ~state_dup & has
    keep[~state_dup & ~has] = True  # zero-shingle docs: always kept
    ridx = np.nonzero(cand_rows)[0]
    if ridx.size == 0:
        return keep
    # vectorized collision probe: band keys shared by >= 2 residual docs
    flat = keys[ridx].reshape(-1)
    srt = np.sort(flat)
    dup_keys = srt[:-1][srt[1:] == srt[:-1]] if srt.size > 1 else srt[:0]
    if dup_keys.size == 0:
        keep[ridx] = True
        return keep
    dup_keys = np.unique(dup_keys)
    hit_any = np.zeros(ridx.size, dtype=bool)
    loc = np.searchsorted(dup_keys, keys[ridx])
    loc = np.minimum(loc, dup_keys.size - 1)
    hit_any = (dup_keys[loc] == keys[ridx]).any(axis=1)
    keep[ridx[~hit_any]] = True  # no shared band inside the epoch
    walk = ridx[hit_any]  # already (ts, id)-ordered
    state: dict[int, list[int]] = {}
    kept_sigs: list[np.ndarray] = []
    for i in walk.tolist():
        cand: set[int] = set()
        for bk in keys[i].tolist():
            cand.update(state.get(bk, ()))
        dup = False
        for j in cand:
            if int((kept_sigs[j] == sigs[i]).sum()) >= min_agree:
                dup = True
                break
        if dup:
            continue
        keep[i] = True
        kept_sigs.append(sigs[i])
        me = len(kept_sigs) - 1
        for bk in keys[i].tolist():
            state.setdefault(bk, []).append(me)
    return keep


def run_streaming_neardup(
    source,
    *,
    min_agree: int = 32,
    allowed_lateness: int = 32,
    n_actors: int = 4,
    micro_batch_rows: int = 512,
    out_dir: str | None = None,
    num_partitions: int | None = None,
    checkpoint_every: int | None = None,
    _stop_after_batches: int | None = None,
) -> StreamingResult:
    """Run streaming near-dup suppression over a Parquet path / Dataset
    with (doc_id, text, event_ts) rows.  Ray must already be initialised
    by the caller.  Emits the KEPT rows — byte-equal to
    ``serial_neardup_mask`` over the same rows whenever no row goes
    late.  ``checkpoint_every``: the streaming runtime's resume protocol
    (``streaming._resume_or_fresh``) under this consumer's own epoch loop —
    actor blobs carry payload custody + the band index; ONE extra blob
    carries the driver's undecided metadata buffer (bounded by the
    lateness window) + watermark scalars."""
    import pickle

    from .checkpoint import clear_checkpoints, staged_file_manifest, write_checkpoint

    sink, resume = _resume_or_fresh(
        "near-dup", f"neardup:m={min_agree}", [source], n_actors=n_actors,
        micro_batch_rows=micro_batch_rows, out_dir=out_dir,
        num_partitions=num_partitions, checkpoint_every=checkpoint_every,
    )
    skip_batches, ck_blobs = resume.skip, resume.blobs
    workers = [NearDupWorker.remote(min_agree=min_agree, **sink) for _ in range(n_actors)]
    tracker = WatermarkTracker.remote(1, allowed_lateness)

    meta: list[dict] = []  # undecided metadata (driver-held, payload-free)
    wm = np.int64(-(1 << 62))
    decided_upto = int(wm)
    batch_idx = 0
    if ck_blobs is not None:
        # last blob is the driver snapshot; the rest restore the workers
        drv = pickle.loads(ck_blobs[-1])
        meta = drv["meta"]
        wm = np.int64(drv["wm"])
        decided_upto = int(drv["decided_upto"])
        batch_idx = int(drv["batch_idx"])
        ray.get(
            [w.restore_state.remote(b) for w, b in zip(workers, ck_blobs[:-1])]
        )

    def run_epoch(cur_wm: int) -> None:
        nonlocal meta, decided_upto
        if not meta:
            decided_upto = max(decided_upto, cur_wm)
            return
        ids = np.concatenate([m["ids"] for m in meta])
        ts = np.concatenate([m["ts"] for m in meta])
        keys = np.concatenate([m["keys"] for m in meta])
        sigs = np.concatenate([m["sigs"] for m in meta])
        has = np.concatenate([m["has"] for m in meta])
        fin = ts <= cur_wm
        if not fin.any():
            decided_upto = max(decided_upto, cur_wm)
            return
        order = np.lexsort((ids[fin], ts[fin]))
        f_ids = ids[fin][order]
        f_ts = ts[fin][order]
        f_keys = keys[fin][order]
        f_sigs = sigs[fin][order]
        f_has = has[fin][order]
        # phase 1: query the band owners (banded docs only)
        state_dup = np.zeros(f_ids.size, dtype=bool)
        q = np.nonzero(f_has)[0]
        if q.size:
            routes = band_route(f_keys[q].reshape(-1), n_actors).reshape(
                q.size, -1
            )
            futs, futs_rows = [], []
            for a in range(n_actors):
                rows = np.nonzero((routes == a).any(axis=1))[0]
                if rows.size == 0:
                    continue
                qq = q[rows]
                masked = np.where(
                    routes[rows] == a, f_keys[qq], np.int64(-1)
                )
                futs.append(
                    workers[a].query_bands.remote(f_ids[qq], masked, f_sigs[qq])
                )
                futs_rows.append(qq)
            for fut, rows in zip(ray.get(futs), futs_rows):
                state_dup[rows] |= fut
        # phase 2: intra-epoch residual resolution (driver, metadata only)
        keep = _resolve_intra_epoch(
            f_ids, f_ts, f_keys, f_sigs, state_dup, f_has, min_agree
        )
        kept_ids = f_ids[keep]
        dropped_ids = f_ids[~keep]
        # phase 3: insert kept band entries + resolve payload custody
        ins = keep & f_has
        futs = []
        if ins.any():
            iroutes = band_route(f_keys[ins].reshape(-1), n_actors).reshape(
                int(ins.sum()), -1
            )
            i_ids, i_ts = f_ids[ins], f_ts[ins]
            i_keys, i_sigs = f_keys[ins], f_sigs[ins]
            for a in range(n_actors):
                rows = np.nonzero((iroutes == a).any(axis=1))[0]
                if rows.size == 0:
                    continue
                masked = np.where(
                    iroutes[rows] == a, i_keys[rows], np.int64(-1)
                )
                futs.append(
                    workers[a].insert_bands.remote(
                        i_ids[rows], i_ts[rows], masked, i_sigs[rows]
                    )
                )
        empty = np.zeros(0, np.int64)
        for a in range(n_actors):
            futs.append(workers[a].decide.remote(kept_ids, dropped_ids, empty))
        ray.get(futs)  # epoch barrier: inserts precede the next queries
        rest = ~fin
        meta = (
            [
                {
                    "ids": ids[rest],
                    "ts": ts[rest],
                    "keys": keys[rest],
                    "sigs": sigs[rest],
                    "has": has[rest],
                }
            ]
            if rest.any()
            else []
        )
        decided_upto = max(decided_upto, cur_wm)

    consumed = 0
    for batch in _arrival_batches(source, micro_batch_rows):
        if consumed < skip_batches:
            consumed += 1
            continue
        consumed += 1
        ts_b = np.asarray(batch["event_ts"], np.int64)
        ids_b = np.asarray(batch["doc_id"], np.int64)
        sig, keys, has = doc_signature_bands(batch)
        late = ts_b <= decided_upto
        late_ids = ids_b[late]
        # payload custody (late rows included — the owner side-routes them)
        route = _splitmix_route(ids_b, n_actors)
        holds = []
        for a in range(n_actors):
            idx = np.nonzero(route == a)[0]
            if idx.size == 0:
                continue
            holds.append(workers[a].hold_rows.remote(batch.take(idx)))
        if late_ids.size:
            empty = np.zeros(0, np.int64)
            ray.get(holds)
            ray.get(
                [w.decide.remote(empty, empty, late_ids) for w in workers]
            )
        keep_m = ~late
        if keep_m.any():
            meta.append(
                {
                    "ids": ids_b[keep_m],
                    "ts": ts_b[keep_m],
                    "keys": keys[keep_m],
                    "sigs": sig[keep_m],
                    "has": has[keep_m],
                }
            )
        tracker.update.remote(0, int(ts_b.max()))
        batch_idx += 1
        if batch_idx % 2 == 0:
            new_wm = ray.get(tracker.watermark.remote())
            if new_wm > wm:
                wm = new_wm
                run_epoch(int(wm))
        if (
            checkpoint_every is not None
            and consumed > skip_batches
            and consumed % checkpoint_every == 0
        ):
            blobs = ray.get([w.checkpoint_state.remote() for w in workers])
            blobs.append(
                pickle.dumps(
                    {
                        "meta": meta,
                        "wm": int(wm),
                        "decided_upto": decided_upto,
                        "batch_idx": batch_idx,
                    }
                )
            )
            write_checkpoint(
                out_dir,
                consumed,
                blobs,
                {
                    **resume.meta,
                    "wm": int(wm),
                    "n_blobs": n_actors + 1,
                    "staged_files": staged_file_manifest(out_dir),
                },
            )
        if _stop_after_batches is not None and consumed >= _stop_after_batches:
            raise RuntimeError(f"injected stop after {consumed} batches")

    run_epoch(1 << 62)
    res = _gather(
        workers, out_dir, resume.meta["epoch"],
        lambda t: pa.concat_tables(t).sort_by("doc_id") if t else None,
    )
    if out_dir is not None:
        clear_checkpoints(out_dir)
    return res
