"""Streaming CEP staged funnel: the batch ``functions/cep.py::funnel``
lifted into the streaming tier (§2.9 × the sticky first-hit-wins chain of
``watermark_detector.py:562-568`` — "detect only while unset").

Per group key, track the first ``steps[0]`` event, then the first
``steps[1]`` STRICTLY after it, and so on — greedy ``MATCH_RECOGNIZE``
A → B → C over a live, disordered stream.  Rows route to actors by KEY
hash so a key's whole event history meets one actor; the event-time gate
(``staging._SweepGateBase``) lets a row into the chain only once the
watermark passes its timestamp (no earlier-ts row can still arrive),
which makes each stage threshold FINAL the moment it is set:

* a stage threshold is the min event time over qualifying rows of a
  complete event-time prefix; rows finalized later carry strictly larger
  timestamps, so the min can never decrease (first-hit monotonicity);
* a stage-s row finalized before its key reached stage s-1 can never
  qualify retroactively — stage s-1's eventual threshold exceeds the
  watermark that finalized the row, so ``ts > threshold`` would fail
  anyway.

Both facts together mean the sweep needs NO sort: one boolean mask +
``np.minimum.at`` segment-min per stage per sweep, exactly the batch
operator's kernel, chained through state instead of a co-located group.

State per actor: one sorted int64 key array + an (n_keys × n_steps)
threshold matrix — O(distinct keys), never O(stream).  Late rows go to
the gate's counted side output.  The funnel row set emits at
end-of-stream flush (one row per distinct key, stage-0 keys included,
matching the batch twin's DISTINCT-keys LEFT JOIN shape).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .staging import _EOS, _MIN, _SweepGateBase, grow_sorted_keys

_I64_MAX = np.iinfo(np.int64).max


@ray.remote
class FunnelStateActor(_SweepGateBase):
    def __init__(
        self,
        *,
        steps: tuple[str, ...],
        within: int | None = None,
        group_col: str = "user_id",
        ts_col: str = "ts_us",
        seq_col: str = "event_id",
        type_col: str = "event_type",
        **sink,
    ):
        self.steps = tuple(steps)
        self.within = within
        self.group_col, self.ts_col = group_col, ts_col
        self.seq_col, self.type_col = seq_col, type_col
        self._init_gate(**sink)
        self._kid = np.zeros(0, np.int64)
        self._kth = np.zeros((0, len(self.steps)), np.int64)
        self.n_rows = 0

    # -- ingest / sweep -----------------------------------------------------

    def ingest(self, batch: pa.Table, watermark: int) -> None:
        """Absorb a micro-batch, advance the chain over every row the
        watermark passed."""
        self._gate(batch, watermark)
        self._sweep(self.wm)

    def _sweep(self, wm: int) -> None:
        ready = self._ready(wm)
        if ready is None:
            return

        keys = np.asarray(ready[self.group_col], np.int64)
        rts = np.asarray(ready[self.ts_col], np.int64)
        typ = ready[self.type_col].combine_chunks()

        # union new keys into the sorted state (every key emits a row at
        # flush, stage-0 keys included — the DISTINCT-keys contract)
        self._kid, (self._kth,) = grow_sorted_keys(
            self._kid, keys, [(self._kth, _I64_MAX)]
        )
        kidx = np.searchsorted(self._kid, keys)

        prev = np.full(self._kid.size, _MIN)  # stage 0: no threshold
        for s, name in enumerate(self.steps):
            col = self._kth[:, s]
            cand = np.asarray(pc.equal(typ, name)) & (rts > prev[kidx])
            if self.within is not None and s > 0:
                # band upper bound (the batch kernel's rule); unreached
                # keys carry I64_MAX — clamp so the add cannot overflow
                ub = prev[kidx]
                upper = np.where(
                    ub >= _I64_MAX - self.within, _I64_MAX, ub + self.within
                )
                cand &= rts <= upper
            if cand.any():
                np.minimum.at(col, kidx[cand], rts[cand])
            # unreached keys carry I64_MAX: later stages can never fire
            # for them (ts > I64_MAX is empty) — strict-order semantics
            prev = col

        self.n_rows += int(ready.num_rows)

    def flush(self) -> None:
        """End of stream: sweep everything pending, emit one funnel row per
        distinct key."""
        self._sweep(_EOS)
        if self._kid.size == 0:
            return
        reached = self._kth != _I64_MAX
        cols: dict[str, pa.Array] = {
            self.group_col: pa.array(self._kid, pa.int64())
        }
        for s, name in enumerate(self.steps):
            cols[f"ts_{name}"] = pa.array(
                np.where(reached[:, s], self._kth[:, s], np.int64(-1)),
                pa.int64(),
            )
        cols["stage"] = pa.array(reached.sum(axis=1).astype(np.int64), pa.int64())
        out = pa.table(cols)
        # staged layout partitions on doc_id: the key is unique per emit row
        self._divert([out.append_column("doc_id", pa.array(self._kid, pa.int64()))])

    _CKPT_FIELDS = ("_kid", "_kth", "_pending", "finalized_upto", "n_rows")

    def state_stats(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_late": self.n_late,
            "state_keys": int(self._kid.size),
            "pending_rows": self._pending_rows(),
        }
