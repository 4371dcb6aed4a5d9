"""Streaming per-source example packing: the concat-and-chunk step
(``functions/packing.py::pack_examples``) maintained as LIVE keyed state
— fixed-length training examples emitted continuously as the token
stream arrives, instead of a batch repack over the finished corpus.

Each source's documents are laid end-to-end in ARRIVAL order and cut
into ``length``-token examples; the actor keeps only the CARRY — the
tail tokens (< length) that have not yet completed an example, plus
their doc-boundary flags for the distinct-doc count — so state is
O(length × sources-per-actor), never the stream.  This consumer is
ORDER-SENSITIVE by definition (packing is a prefix scan, not a monoid):
its determinism contract is per-source FIFO delivery, which the driver
loop guarantees — rows route to actors by SOURCE hash (a source's docs
meet one actor) and Ray actor tasks from a single caller execute in
submission order.  No watermark, no late path: the stream's arrival
order IS the pack order (the same contract as the batch twin's doc_id
order when the log is doc-ordered).

Per ingest the kernel is vectorized per source (one flat-gather + run
sweep, the pack_examples pass-2 kernel over carry+batch): completed
examples emit immediately — output-scale driver traffic — and the new
carry replaces the old.  Reference analog: the sequential page renderer
(cli.py page loop) emitting fixed-size batches as pages stream through,
made per-key and restart-safe.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

from .staging import _StagedEmitterBase


def _src_key64(src: str) -> int:
    """Deterministic 62-bit source key for the staged-layout partition id."""
    return int.from_bytes(
        hashlib.blake2b(src.encode(), digest_size=8).digest(), "big"
    ) >> 2


@ray.remote
class PackStateActor(_StagedEmitterBase):
    def __init__(self, *, length: int = 512, **sink):
        self.length = int(length)
        self._init_staging(**sink)
        # source -> (carry tokens int64[<L], carry doc-change flags int64)
        self._carry: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._next_eid: dict[str, int] = {}
        self.n_rows = 0

    def _pack_source(self, src: str, toks: np.ndarray, dchg: np.ndarray):
        """Append tokens to the source's carry, emit completed examples."""
        L = self.length
        c_t, c_d = self._carry.get(src, (np.zeros(0, np.int64),) * 2)
        t = np.concatenate([c_t, toks])
        d = np.concatenate([c_d, dchg])
        n_full = t.size // L
        out = None
        if n_full:
            eid0 = self._next_eid.get(src, 0)
            body_t = t[: n_full * L].reshape(n_full, L)
            body_d = d[: n_full * L].reshape(n_full, L)
            # an example's first slot always opens a doc run (either a real
            # doc start or a continuation cut — both count the doc once)
            body_d = body_d.copy()
            body_d[:, 0] = 1
            out = pa.table(
                {
                    "source": pa.array([src] * n_full, pa.string()),
                    "example_id": pa.array(
                        np.arange(eid0, eid0 + n_full, dtype=np.int64),
                        pa.int64(),
                    ),
                    "n_tok": pa.array(np.full(n_full, L, np.int64), pa.int64()),
                    "tok_sum": pa.array(body_t.sum(axis=1), pa.int64()),
                    "first_tok": pa.array(body_t[:, 0], pa.int64()),
                    "last_tok": pa.array(body_t[:, -1], pa.int64()),
                    "n_docs": pa.array(body_d.sum(axis=1), pa.int64()),
                }
            )
            self._next_eid[src] = eid0 + n_full
        rem_t = t[n_full * L :]
        rem_d = d[n_full * L :]
        if rem_t.size:
            self._carry[src] = (rem_t, rem_d)
        else:
            self._carry.pop(src, None)
        return out

    def ingest(self, batch: pa.Table) -> None:
        """Absorb a micro-batch (rows in arrival order); emit the completed
        examples."""
        self.n_rows += batch.num_rows
        from ..stages.kernels import flatten_list_column

        srcs = np.asarray(batch["source"])
        fb = flatten_list_column(batch["tokens"])
        flat = np.asarray(fb.values, np.int64)
        offs = np.asarray(fb.offsets, np.int64)
        out: list[pa.Table] = []
        # vectorized per SOURCE (the key space is bounded — sources, not
        # docs); rows keep arrival order inside each source slice
        for src in dict.fromkeys(srcs.tolist()):  # first-seen order
            rows = np.nonzero(srcs == src)[0]
            lens = (offs[rows + 1] - offs[rows]).astype(np.int64)
            tot = int(lens.sum())
            if tot == 0:
                continue
            run0 = np.cumsum(lens) - lens
            gidx = (
                np.repeat(offs[rows], lens)
                + np.arange(tot, dtype=np.int64)
                - np.repeat(run0, lens)
            )
            toks = flat[gidx]
            dchg = np.zeros(tot, np.int64)
            dchg[run0[lens > 0]] = 1
            t = self._pack_source(src, toks, dchg)
            if t is not None:
                out.append(self._stamp_doc_id(t))
        self._divert(out)

    def flush(self) -> None:
        """End of stream: emit each source's final PARTIAL example."""
        out: list[pa.Table] = []
        for src in sorted(self._carry):
            t, d = self._carry[src]
            d = d.copy()
            d[0] = 1
            eid = self._next_eid.get(src, 0)
            out.append(
                pa.table(
                    {
                        "source": pa.array([src], pa.string()),
                        "example_id": pa.array([eid], pa.int64()),
                        "n_tok": pa.array([t.size], pa.int64()),
                        "tok_sum": pa.array([int(t.sum())], pa.int64()),
                        "first_tok": pa.array([int(t[0])], pa.int64()),
                        "last_tok": pa.array([int(t[-1])], pa.int64()),
                        "n_docs": pa.array([int(d.sum())], pa.int64()),
                    }
                )
            )
        self._carry.clear()
        self._divert([self._stamp_doc_id(t) for t in out])

    def _stamp_doc_id(self, t: pa.Table) -> pa.Table:
        """Staged-layout partition key: unique per (source, example) —
        a 62-bit source key xor a golden-ratio-mixed example id.  Only
        stamped in sink mode so the driver-collected output schema stays
        the SQL twin's."""
        if self.sink_dir is None:
            return t
        srcs = t["source"].to_pylist()
        eids = np.asarray(t["example_id"], np.int64)
        mixed = (
            eids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ) & np.uint64((1 << 62) - 1)
        keys = np.fromiter(
            (_src_key64(s) for s in srcs), np.int64, len(srcs)
        ) ^ mixed.astype(np.int64)
        return t.append_column("doc_id", pa.array(keys, pa.int64()))

    _CKPT_FIELDS = ("_carry", "_next_eid", "n_rows")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_keys": len(set(self._next_eid) | set(self._carry)),
            "carry_tokens": int(sum(t.size for t, _ in self._carry.values())),
        }
