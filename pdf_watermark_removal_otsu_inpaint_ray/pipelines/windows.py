"""Event-time windowed aggregates over a timestamped event stream.

Ray Data has no native event-time windows (ray_guide.md "Streaming-shaped
workloads"); window assignment is a stateless vectorized ``map_batches``
(window ids from integer µs arithmetic) followed by a grouped aggregate whose
shuffle moves only (key, window) partial rows.  Session windows use
``groupby(key).map_groups`` over ts-sorted groups — the documented ordering
assumption is per-key, not global.

These mirror the reference's per-document page loop + accumulated state
(cli.py:892-978; clear_qr_codes() session boundary, watermark_detector.py:143-145)
generalized to real event time, and every one has an exact DuckDB twin in
``__ray_entry__.oracle_sql``.
"""

from __future__ import annotations

from ..config import scaled_parts

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

HOUR_US = 3_600_000_000


def _epoch_us(batch: pa.Table, col: str = "ts") -> np.ndarray:
    return batch[col].cast(pa.int64()).to_numpy(zero_copy_only=False)


def tumbling_counts(ds: "ray.data.Dataset", size_us: int = HOUR_US):
    """count + exact min/max(value) per (event_type, tumbling window)."""

    def assign(batch: pa.Table) -> pa.Table:
        w = _epoch_us(batch) // size_us
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_id": pa.array(w, pa.int64()),
                "value": batch["value"],
            }
        )

    from ray.data.aggregate import Count, Max, Min

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["event_type", "window_id"])
        .aggregate(
            Count(alias_name="n"),
            Min("value", alias_name="vmin"),
            Max("value", alias_name="vmax"),
        )
    )


def sliding_counts(ds: "ray.data.Dataset", size_us: int = 2 * HOUR_US, slide_us: int = HOUR_US):
    """count per (event_type, sliding window): each event lands in every
    window covering its ts — emitted as ceil(size/slide) shifted copies
    (flat_map shape, but vectorized in one map_batches)."""
    n_shifts = -(-size_us // slide_us)

    def assign(batch: pa.Table) -> pa.Table:
        us = _epoch_us(batch)
        types, wins = [], []
        et = batch["event_type"]
        for j in range(n_shifts):
            w = us // slide_us - j
            valid = (w >= 0) & (us - w * slide_us < size_us)
            types.append(et.filter(pa.array(valid)))
            wins.append(w[valid])
        return pa.table(
            {
                "event_type": pa.concat_arrays([t.combine_chunks() for t in types]),
                "window_id": pa.array(np.concatenate(wins), pa.int64()),
            }
        )

    from ray.data.aggregate import Count

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(["event_type", "window_id"])
        .aggregate(Count(alias_name="n"))
    )


def session_windows(ds: "ray.data.Dataset", gap_us: int = 30 * 60 * 1_000_000):
    """Per-user sessionization (gap-based).  Returns one row per session:
    (user_id, session_start_us, n_events).

    Scale shape (the ``grouped_sessionize`` kernel, not per-user
    map_groups): ONE coarse fixed-fanout group-key partition co-locates
    each user's rows, then per partition a single lexsort + boundary
    sweep labels every session of every user at C speed — the Aggregate
    never sees user-cardinality groups and there is no per-user Python
    callback, so 10⁶+ users cost the same per-row work as 10³.  The
    ``cast(int64)`` on the ts column pins the µs epoch unit regardless of
    the Arrow timestamp unit (a pandas datetime round-trip could silently
    yield ns and over-split sessions 1000×)."""
    from ..functions.packing import _add_group_pk

    # fanout resolved ONCE, driver-side: inside the per-batch closure it
    # would follow the cluster size at batch time and split a user's rows
    # over different partition counts under autoscaling
    n_pk = scaled_parts(64)

    def add_pk(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "us": pa.array(_epoch_us(b), pa.int64()),
            }
        )
        return _add_group_pk(t, "user_id", n_pk)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "session_start_us": pd.Series(dtype=np.int64),
                    "n_events": pd.Series(dtype=np.int64),
                }
            )
        gk = g["user_id"].to_numpy().astype(np.int64)
        us = g["us"].to_numpy().astype(np.int64)
        idx = np.lexsort((us, gk))
        gk, us = gk[idx], us[idx]
        n = len(g)
        first = np.empty(n, bool)
        first[0] = True
        first[1:] = gk[1:] != gk[:-1]
        new_sess = first.copy()
        new_sess[1:] |= (us[1:] - us[:-1]) > gap_us
        st = np.nonzero(new_sess)[0]
        en = np.append(st[1:], n) - 1
        return pd.DataFrame(
            {
                "user_id": gk[st],
                "session_start_us": us[st],
                "n_events": (en - st + 1).astype(np.int64),
            }
        )

    return (
        ds.map_batches(add_pk, batch_format="pyarrow")
        .groupby("pk")
        .map_groups(part, batch_format="pandas")
    )


def events_customer_join(events_ds: "ray.data.Dataset", customer_path: str):
    """Broadcast hash join: events ⋈ customer on user_id = c_custkey.

    Small side loaded once on the driver, shipped via one ``ray.put``, looked
    up vectorized per batch — no shuffle (ray_guide.md join patterns)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(customer_path, columns=["c_custkey", "c_name"])
    keys = cust["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    names = np.asarray(cust["c_name"].to_pylist(), dtype=object)[order]
    ref = ray.put((keys, names))

    def join(batch: pa.Table) -> pa.Table:
        k, v = ray.get(ref)
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.size == 0:  # empty build side: correct empty inner join
            hit = np.zeros(uid.size, dtype=bool)
            pos_c = np.zeros(uid.size, dtype=np.int64)
            name = np.full(uid.size, None, dtype=object)
            t = pa.table(
                {
                    "event_id": batch["event_id"],
                    "user_id": batch["user_id"],
                    "c_name": pa.array(name.tolist(), pa.string()),
                }
            )
            return t.filter(pc.is_valid(t["c_name"]))
        pos = np.searchsorted(k, uid)
        pos_c = np.minimum(pos, k.size - 1)
        hit = k[pos_c] == uid
        name = np.where(hit, v[pos_c], None)
        t = pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "c_name": pa.array(name.tolist(), pa.string()),
            }
        )
        return t.filter(pc.is_valid(t["c_name"]))  # inner-join semantics

    return events_ds.map_batches(join, batch_format="pyarrow")


def tumbling_distinct_users(
    ds: "ray.data.Dataset", size_us: int = HOUR_US, num_parts: int | None = None
):
    """Exact ``count(DISTINCT user_id)`` per (event_type, tumbling window).

    Distinct-aggregate shape for scale: each batch pre-dedupes its own
    (type, window, user) triples with one lexsort + neighbor mask (the
    COMBINER — the shuffle carries at most one row per distinct triple per
    batch, never raw event volume), then ONE coarse hash partition on
    window_id co-locates every copy of a window and a single vectorized
    dedup + boundary count per PARTITION finishes — no per-group callback,
    no count-distinct on the driver.  Skew note: a window's triples land in
    one task; at adversarial per-window user cardinality, salt on
    user-hash and add a second (window)-keyed count round."""
    num_parts = scaled_parts(64, num_parts)

    def partial(batch: pa.Table) -> pa.Table:
        us = _epoch_us(batch)
        w = (us // size_us).astype(np.int64)
        et = batch["event_type"].combine_chunks().dictionary_encode()
        t = np.asarray(et.indices, np.int64)
        u = np.asarray(batch["user_id"], np.int64)
        idx = np.lexsort((u, w, t))
        t, w, u = t[idx], w[idx], u[idx]
        keep = np.empty(t.size, bool)
        if t.size:
            keep[0] = True
            keep[1:] = (t[1:] != t[:-1]) | (w[1:] != w[:-1]) | (u[1:] != u[:-1])
        t, w, u = t[keep], w[keep], u[keep]
        pk = (
            ((w.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33))
            % np.uint64(num_parts)
        ).astype(np.int64)
        return pa.table(
            {
                "event_type": et.dictionary.take(pa.array(t, pa.int64())).cast(
                    pa.string()
                ),
                "window_id": pa.array(w, pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "pk": pa.array(pk, pa.int64()),
            }
        )

    def finalize(g):
        import pandas as pd

        if len(g) == 0:
            return pd.DataFrame({"event_type": [], "window_id": [], "n_users": []})
        t = g["event_type"].to_numpy()
        w = g["window_id"].to_numpy().astype(np.int64)
        u = g["user_id"].to_numpy().astype(np.int64)
        idx = np.lexsort((u, w, t))
        t, w, u = t[idx], w[idx], u[idx]
        keep = np.empty(t.size, bool)
        keep[0] = True
        keep[1:] = (t[1:] != t[:-1]) | (w[1:] != w[:-1]) | (u[1:] != u[:-1])
        t, w = t[keep], w[keep]
        first = np.empty(t.size, bool)
        first[0] = True
        first[1:] = (t[1:] != t[:-1]) | (w[1:] != w[:-1])
        starts = np.nonzero(first)[0]
        n = np.diff(np.append(starts, t.size))
        return pd.DataFrame(
            {
                "event_type": t[starts],
                "window_id": w[starts],
                "n_users": n.astype(np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pk")
        .map_groups(finalize, batch_format="pandas")
    )


def window_top_users(ds: "ray.data.Dataset", size_us: int = HOUR_US, k: int = 3):
    """Exact per-(event_type, tumbling window) top-k users by event count —
    the windowed heavy-hitter shape (per-window dominant keys; streaming
    analog of A2's top-k dominant colors, watermark_detector.py:168-172).

    Three cheap stages: (1) per-batch combiner — one ``np.unique(axis=0)``
    collapses the batch to (type, window, user, n) partial rows, so the
    count shuffle carries combiner-scale rows, never events; (2) exact
    grouped count via ``groupby().sum``; (3) the partial-trim top-k
    (functions/selection.py::topk_per_group) over a composite group key —
    ≤ k rows per (type, window) per block move in the final trim.  Order:
    n DESC, user_id ASC (deterministic)."""
    from ..functions.selection import topk_per_group

    def count_partials(batch: pa.Table) -> pa.Table:
        w = _epoch_us(batch) // size_us
        et = batch["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        d = et.dictionary_encode()
        codes = np.asarray(d.indices, np.int64)
        uid = batch["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        triples, n = np.unique(
            np.stack([codes, w, uid], axis=1), axis=0, return_counts=True
        )
        return pa.table(
            {
                "event_type": d.dictionary.take(
                    pa.array(triples[:, 0], pa.int64())
                ).cast(pa.string()),
                "window_id": pa.array(triples[:, 1], pa.int64()),
                "user_id": pa.array(triples[:, 2], pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    def with_gkey(batch: pa.Table) -> pa.Table:
        n = batch["sum(n)"].cast(pa.int64())
        gkey = pc.binary_join_element_wise(
            batch["event_type"].cast(pa.string()),
            batch["window_id"].cast(pa.int64()).cast(pa.string()),
            "|",
        )
        return pa.table(
            {
                "gkey": gkey,
                "event_type": batch["event_type"],
                "window_id": batch["window_id"].cast(pa.int64()),
                "user_id": batch["user_id"].cast(pa.int64()),
                "n": n,
            }
        )

    counts = (
        ds.map_batches(count_partials, batch_format="pyarrow")
        .groupby(["event_type", "window_id", "user_id"])
        .sum("n")
        .map_batches(with_gkey, batch_format="pyarrow")
    )
    return topk_per_group(
        counts, group="gkey", score="n", tie="user_id", k=k, num_parts=16
    ).select_columns(["event_type", "window_id", "user_id", "n"])
