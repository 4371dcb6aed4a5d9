"""Streaming NEAR-duplicate suppression state: MinHash-LSH as live keyed
state — the composition of the engine's two flagship themes (§2.7 dedup ×
§2.9 streaming).  A crawl-ingest pipeline keeps a document only if it is
not a near-duplicate of any PREVIOUSLY KEPT document; the batch
``minhash_lsh_dedup`` finds the pair set after the fact, this suppresses
online.

Decision rule (deterministic in EVENT time, never arrival time): order
docs by ``(event_ts, doc_id)``.  A doc with zero shingles is always kept
(it is never banded — the batch engine rule).  Otherwise a doc is DROPPED
iff some earlier KEPT doc shares >= 1 LSH band bucket with it AND their
64-row MinHash signatures agree on >= ``min_agree`` rows (the standard
LSH signature-verify estimate of Jaccard; the batch operator's final
exact-Jaccard refinement needs the shingle SETS, which streaming state
deliberately does not hold — the documented trade, see below).  A doc is
admitted into the order only once the watermark passes its timestamp;
rows arriving after their decision epoch are LATE (counted + routed).

Distribution (one actor pool, two keyed roles):

* DOC role (route: hash(doc_id)): holds the undecided row PAYLOADS —
  text never rides the driver.  On each epoch decision the owner moves
  kept rows to the output (or the exactly-once staged layout in sink
  mode), drops duplicates, routes late rows to the side output.
* BAND role (route: hash(band key)): holds the kept-doc band index —
  ``(band, band_hash) -> member ids + ts + signatures``.  Queries return
  one BOOLEAN per query doc (id-scale traffic); inserts append kept
  docs' band entries.  Signatures are stored per band entry (bands ×
  512 B per kept doc) so a query is ONE round trip; at extreme scale
  swap for a sig-owner indirection (ids from the band owner, agreement
  at the sig owner — one extra hop, documented escape hatch).

The driver moves only metadata: ids, band keys, signatures
(~650 B/doc), verdict booleans — never document payloads.

Reference analog: the cross-page motif accumulation chain
(watermark_remover.py persistence rule) as an ONLINE admission filter:
"have I already kept something that looks like this?".
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _StagedEmitterBase

_MIX = np.uint64(0x9E3779B97F4A7C15)


def band_route(band_keys: np.ndarray, n: int) -> np.ndarray:
    """Actor index per packed band key (uint64-mix routing)."""
    k = band_keys.astype(np.uint64)
    return (((k * _MIX) >> np.uint64(29)) % np.uint64(n)).astype(np.int64)


def pack_band_keys(bands: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """(band idx, band hash) -> one NON-NEGATIVE int64 key:
    ``(hash >> 4) * 16 + band`` — 59 bits of band hash + 4 bits of band
    index, max 2^63 - 1 so ``-1`` is a safe routing sentinel.  Dropping 4
    hash bits can merge buckets, which only ADDS candidate checks — the
    signature-agreement verify is the drop decision, so correctness never
    rests on bucket-key uniqueness (and the serial twin packs
    identically)."""
    return (
        (hashes.astype(np.uint64) >> np.uint64(4)) * np.uint64(16)
        + bands.astype(np.uint64)
    ).view(np.int64)


def doc_signature_bands(batch: pa.Table, *, ngram: int = 3, k: int = 64,
                        bands: int = 16):
    """(doc_id, text) batch -> (sig matrix (n, k) int64, band keys
    (n, bands) int64, has_shingles bool mask) using the batch engine's
    exact signature/banding chain (functions/dedup.py::MinHashStage +
    _band_rows) so the streaming tier shares one signature definition
    with the batch operator and its independent pure-Python oracle."""
    from ..functions.dedup import (
        MinHashStage,
        _band_rows,
        _gram_hashes_flat,
        _word_hashes_flat,
    )

    texts = batch["text"].to_pylist()
    stage = _minhash_stage(k, ngram)
    wh, doc_off = _word_hashes_flat(texts)
    grams, goff = _gram_hashes_flat(wh, doc_off, ngram)
    sig = stage.signatures_flat(grams, goff)
    has = np.diff(goff) > 0
    n = len(texts)
    ids = np.asarray(batch["doc_id"], np.int64)
    sig_tbl = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "sig": pa.ListArray.from_arrays(
                pa.array(np.arange(0, (n + 1) * k, k, dtype=np.int32), pa.int32()),
                pa.array(sig.reshape(-1), pa.int64()),
            ),
        }
    )
    rows = k // bands
    br = _band_rows(sig_tbl, bands, rows)
    keys = pack_band_keys(
        np.asarray(br["band"], np.int64), np.asarray(br["band_hash"], np.int64)
    ).reshape(n, bands)
    return sig, keys, has


_STAGE_CACHE: dict = {}


def _minhash_stage(k: int, ngram: int):
    key = (k, ngram)
    if key not in _STAGE_CACHE:
        from ..functions.dedup import MinHashStage

        _STAGE_CACHE[key] = MinHashStage(num_hashes=k, ngram=ngram)
    return _STAGE_CACHE[key]


def serial_neardup_mask(
    ids: np.ndarray,
    ts: np.ndarray,
    sigs: np.ndarray,
    band_keys: np.ndarray,
    has: np.ndarray,
    min_agree: int,
) -> np.ndarray:
    """Single-process reference of the keep rule over a COMPLETE input:
    boolean keep mask in input row order.  The streaming protocol must
    reproduce this mask for any actor count / micro-batch size / epoch
    cadence whenever no row goes late (asserted by the layout-invariance
    tests; the independent pure-Python twin lives in oracle_data)."""
    order = np.lexsort((ids, ts))
    keep = np.zeros(ids.size, dtype=bool)
    state: dict[int, list[int]] = {}
    kept_sigs: list[np.ndarray] = []
    for i in order:
        if not has[i]:
            keep[i] = True
            continue
        cand: set[int] = set()
        for bk in band_keys[i].tolist():
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
        for bk in band_keys[i].tolist():
            state.setdefault(bk, []).append(me)
    return keep


@ray.remote
class NearDupWorker(_StagedEmitterBase):
    """One worker of the near-dup pool: DOC role (payload custody) and
    BAND role (kept-doc band index) in one actor, keyed independently."""

    def __init__(self, *, min_agree: int, **sink):
        self.min_agree = min_agree
        self._init_staging(**sink)
        # DOC role
        self._pending: list[pa.Table] = []
        self.n_kept = 0
        self.n_dup = 0
        # BAND role: packed band key -> (ids, ts, sig-matrix) column lists
        self._bands: dict[int, list] = {}
        self.n_band_entries = 0

    # -- DOC role -----------------------------------------------------------

    def hold_rows(self, batch: pa.Table) -> None:
        """Custody of a micro-batch slice until its epoch decision."""
        self._pending.append(batch)

    def decide(self, kept: np.ndarray, dropped: np.ndarray, late: np.ndarray) -> int:
        """Resolve held rows: emit kept, discard dropped, side-route late.
        Ids not listed stay pending (their ts is beyond the watermark)."""
        if not self._pending:
            return 0
        pend = pa.concat_tables(self._pending)
        ids = np.asarray(pend["doc_id"], np.int64)
        k = np.isin(ids, kept)
        d = np.isin(ids, dropped)
        l = np.isin(ids, late)
        if l.any():
            self._note_late(pend.filter(pa.array(l)))
        if k.any():
            out = pend.filter(pa.array(k))
            self.n_kept += out.num_rows
            self._divert([out])
        self.n_dup += int(d.sum())
        rest = pend.filter(pa.array(~(k | d | l)))
        self._pending = [rest] if rest.num_rows else []
        return int(rest.num_rows)

    # -- BAND role ----------------------------------------------------------

    def query_bands(
        self, qids: np.ndarray, keys: np.ndarray, sigs: np.ndarray
    ) -> np.ndarray:
        """Per query doc: does any kept doc in THIS owner's band slice
        agree on >= min_agree signature rows?  Returns bool per qid.

        The outer loops are per-DOC dict probes (16 per doc) — metadata
        scale, not corpus scale; the signature comparison per bucket is
        one vectorized matrix equality.  A hot bucket (boilerplate that
        keeps being kept) grows its member matrix — the lazy stacked
        cache amortizes the stacking, and at pathological bucket sizes
        the sig-owner indirection (module docstring) shards members."""
        dup = np.zeros(qids.size, dtype=bool)
        for i in range(qids.size):
            for bk in keys[i].tolist():
                if bk == -1:  # band key routed to another owner
                    continue
                ent = self._bands.get(bk)
                if ent is None:
                    continue
                if ent[3] is None or ent[3].shape[0] != len(ent[2]):
                    ent[3] = np.vstack(ent[2])  # lazy stack, reused until
                    # the next insert invalidates it (amortized O(1) append)
                if ((ent[3] == sigs[i]).sum(axis=1) >= self.min_agree).any():
                    dup[i] = True
                    break
        return dup

    def insert_bands(
        self, ids: np.ndarray, ts: np.ndarray, keys: np.ndarray, sigs: np.ndarray
    ) -> int:
        """Append kept docs' band entries (one sig row per entry)."""
        for i in range(ids.size):
            for bk in keys[i].tolist():
                if bk == -1:  # band key routed to another owner
                    continue
                ent = self._bands.get(bk)
                if ent is None:
                    self._bands[bk] = [
                        [int(ids[i])],
                        [int(ts[i])],
                        [sigs[i].copy()],
                        None,  # lazy stacked matrix cache
                    ]
                else:
                    ent[0].append(int(ids[i]))
                    ent[1].append(int(ts[i]))
                    ent[2].append(sigs[i].copy())
                self.n_band_entries += 1
        return self.n_band_entries

    _CKPT_FIELDS = ("_pending", "n_kept", "n_dup", "_bands", "n_band_entries")

    def checkpoint_state(self) -> bytes:
        for ent in self._bands.values():
            ent[3] = None  # drop the lazy stacked caches from the snapshot
        return super().checkpoint_state()

    def state_stats(self) -> dict:
        return {
            "n_kept": self.n_kept,
            "n_dup": self.n_dup,
            "n_late": self.n_late,
            "band_keys": len(self._bands),
            "band_entries": self.n_band_entries,
            "pending_rows": int(sum(t.num_rows for t in self._pending)),
        }
