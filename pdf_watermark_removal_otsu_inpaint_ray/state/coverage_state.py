"""Streaming per-key interval-union coverage: the batch gaps-and-islands
operator (``functions/packing.py::grouped_interval_coverage``) maintained
as LIVE keyed state — uptime/presence accounting over an unbounded
stream.

Each arrival opens the interval ``[ts, ts + hold)``; a key's state is its
MERGED DISJOINT island set ``(start, end)``.  Interval union is a
commutative idempotent monoid, so like the upsert actor this one needs NO
watermark, NO event-time ordering, and has NO late rows: any arrival
interleaving, micro-batch size, and actor count yields the same island
set.  The streaming value is the state bound — O(islands per key), never
the event log — with upsert-style amortized maintenance:

* per micro-batch: ONE lexsort + band-offset cummax sweep collapses the
  batch's points to per-key islands (vectorized across all keys),
  appended to a delta buffer;
* compaction (delta rows ≥ threshold, or at emit): the same sweep over
  state+delta islands re-merges globally.  State is never re-sorted per
  batch.

Merge rule matches the batch twin exactly: islands break when the gap is
``>= hold`` (half-open ``[t, t+hold)`` intervals merge iff the next start
is STRICTLY below the running end), so ``covered = Σ (end - start)`` and
the island count are bit-equal to the SQL gaps-and-islands chain.

Rows route to actors by KEY hash (a key's intervals meet one actor); the
final coverage emits at flush — one row per key, key-scale driver
traffic, so no sink-direct mode is needed (the topk-consumer rule).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .staging import _StagedEmitterBase


def _merge_islands(
    k: np.ndarray, s: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union a (key, start, end) interval multiset into per-key disjoint
    islands — one lexsort + band-offset cummax sweep, no per-key loop.
    Intervals merge iff they OVERLAP strictly (touching islands stay
    separate — the batch twin's ``gap >= hold`` break)."""
    if k.size == 0:
        return k, s, e
    o = np.lexsort((s, k))
    k, s, e = k[o], s[o], e[o]
    first = np.empty(k.size, bool)
    first[0] = True
    first[1:] = k[1:] != k[:-1]
    kidx = np.cumsum(first) - 1
    base = int(s.min())
    band = int(e.max()) - base + 2
    n_keys = int(kidx[-1]) + 1
    if n_keys * band >= (1 << 62):  # pragma: no cover - adversarial spread
        raise ValueError(
            "coverage key×span spread overflows the band sweep; "
            "shard hold-spans or lower hold"
        )
    comp_s = kidx * band + (s - base)
    comp_e = kidx * band + (e - base)
    cm = np.maximum.accumulate(comp_e)
    new = np.empty(k.size, bool)
    new[0] = True
    # strict: a start equal to the running end opens a NEW island
    new[1:] = comp_s[1:] >= cm[:-1]
    st = np.nonzero(new)[0]
    en = np.append(st[1:], k.size) - 1
    return k[st], s[st], (cm[en] - kidx[st] * band) + base


@ray.remote
class CoverageStateActor(_StagedEmitterBase):
    def __init__(
        self,
        *,
        key_col: str = "user_id",
        ts_col: str = "ts_us",
        hold: int = 3_600_000_000,
        compact_rows: int = 65536,
    ):
        self.key_col, self.ts_col = key_col, ts_col
        self.hold = int(hold)
        self.compact_rows = compact_rows
        self._init_staging()  # monoid: no sink-direct mode and no late path
        self._k = np.zeros(0, np.int64)
        self._s = np.zeros(0, np.int64)
        self._e = np.zeros(0, np.int64)
        self._delta: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._delta_rows = 0
        self.n_rows = 0

    def ingest(self, batch: pa.Table) -> None:
        k = np.asarray(batch[self.key_col], np.int64)
        t = np.asarray(batch[self.ts_col], np.int64)
        self.n_rows += k.size
        if k.size:
            self._delta.append(_merge_islands(k, t, t + self.hold))
            self._delta_rows += self._delta[-1][0].size
        if self._delta_rows >= self.compact_rows:
            self._compact()

    def _compact(self) -> None:
        if not self._delta:
            return
        ks = [self._k] + [d[0] for d in self._delta]
        ss = [self._s] + [d[1] for d in self._delta]
        es = [self._e] + [d[2] for d in self._delta]
        self._delta, self._delta_rows = [], 0
        self._k, self._s, self._e = _merge_islands(
            np.concatenate(ks), np.concatenate(ss), np.concatenate(es)
        )

    def flush(self) -> None:
        """End of stream: compact, emit (key, covered_us, n_islands) —
        one row per live key."""
        self._compact()
        if self._k.size == 0:
            return
        first = np.empty(self._k.size, bool)
        first[0] = True
        first[1:] = self._k[1:] != self._k[:-1]
        kidx = np.cumsum(first) - 1
        n_keys = int(kidx[-1]) + 1
        covered = np.zeros(n_keys, np.int64)
        np.add.at(covered, kidx, self._e - self._s)
        counts = np.bincount(kidx, minlength=n_keys).astype(np.int64)
        self._divert([
            pa.table(
                {
                    self.key_col: pa.array(self._k[first], pa.int64()),
                    "covered_us": pa.array(covered, pa.int64()),
                    "n_islands": pa.array(counts, pa.int64()),
                }
            )
        ])

    _CKPT_FIELDS = ("_k", "_s", "_e", "_delta", "_delta_rows", "n_rows")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_keys": int(np.unique(self._k).size),
            "state_islands": int(self._k.size),
            "delta_rows": self._delta_rows,
        }
