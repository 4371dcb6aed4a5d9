"""The event-time gate of the sweep actors (``state/staging.py``
``_SweepGateBase``) and the sorted-key re-index they share (no Ray: the
actor classes run in-process).

The gate routes rows at or under ``finalized_upto`` to the late side output
and buffers the rest; ``_ready`` releases the buffered rows the watermark
passed and advances ``finalized_upto``.  Each test runs through the actors'
own ``ingest``, so every actor is checked to use the gate rather than a late
or ready split of its own.
"""

import numpy as np
import pyarrow as pa
import pytest

from pdf_watermark_removal_otsu_inpaint_ray.state import (
    attribution_state,
    dedup_state,
    firsttouch_state,
    funnel_state,
    ratelimit_state,
    sessionstats_state,
)
from pdf_watermark_removal_otsu_inpaint_ray.state.staging import (
    _EOS,
    _MIN,
    grow_sorted_keys,
)

ACTORS = {
    "attribution": (attribution_state.AttributionStateActor, {}),
    "first_touch": (firsttouch_state.FirstTouchStateActor, {}),
    "funnel": (funnel_state.FunnelStateActor, {"steps": ("click", "purchase")}),
    "rate_limit": (ratelimit_state.RateLimitStateActor, {"window_us": 100, "k": 2}),
    "session_stats": (sessionstats_state.SessionStatsActor, {"gap": 50}),
    # keyed on user_id over the event log, so its rows carry no doc_id
    "dedup": (
        dedup_state.DedupStateActor,
        {"id_col": "user_id", "ts_col": "ts_us", "seq_col": "event_id"},
    ),
}


def _actor(name):
    cls, kw = ACTORS[name]
    return cls.__ray_metadata__.modified_class(**kw)


def _events(ts, seq0=0):
    n = len(ts)
    return pa.table(
        {
            "user_id": pa.array(np.arange(n) % 3, pa.int64()),
            "ts_us": pa.array(ts, pa.int64()),
            "event_id": pa.array(np.arange(seq0, seq0 + n), pa.int64()),
            "event_type": pa.array(
                [("click", "purchase")[i % 2] for i in range(n)], pa.string()
            ),
        }
    )


def _held_late(actor):
    """The late rows the actor held since the last take (which clears
    them), as one table."""
    _out, late = actor.take_held()
    return pa.concat_tables(late)


def _pending_ids(actor):
    if not actor._pending:
        return set()
    return set(pa.concat_tables(actor._pending)["event_id"].to_pylist())


@pytest.mark.parametrize("name", sorted(ACTORS))
def test_gate_late_split(name):
    """Rows at or under ``finalized_upto`` are counted, carry ``doc_id`` =
    their seq, and never reach ``_pending``; later rows wait there."""
    a = _actor(name)
    a.ingest(_events([10, 20, 30]), 20)
    assert a.finalized_upto == 20
    assert _pending_ids(a) == {2}  # ts 30 waits for the watermark
    a.ingest(_events([5, 20, 25, 40], seq0=100), 25)
    assert a.n_late == 2
    late = _held_late(a)
    assert late["ts_us"].to_pylist() == [5, 20]
    assert late["doc_id"].to_pylist() == [100, 101]
    # ts 25 released at wm 25; the late rows never entered the buffer
    assert _pending_ids(a) == {2, 103}
    assert a.state_stats()["pending_rows"] == 2
    assert a.finalized_upto == 25


@pytest.mark.parametrize("name", sorted(ACTORS))
def test_gate_ready_split(name):
    """``_ready(wm)`` pops exactly the pending rows with ``ts <= wm``."""
    a = _actor(name)
    a._gate(_events([9, 3, 7, 12, 7]), 7)
    ready = a._ready(7)
    assert sorted(ready["ts_us"].to_pylist()) == [3, 7, 7]
    assert _pending_ids(a) == {0, 3}
    assert a._ready(8) is None  # nothing pending at or under 8
    assert sorted(a._ready(_EOS)["ts_us"].to_pylist()) == [9, 12]
    assert a._pending == [] and a._pending_rows() == 0


@pytest.mark.parametrize("name", sorted(ACTORS))
def test_gate_finalized_upto_is_monotone(name):
    """``finalized_upto`` only moves forward, also on calls that release
    nothing or find nothing pending."""
    a = _actor(name)
    assert a.finalized_upto == _MIN
    seen = []
    for wm in (-5, 10, 4, 10, 30, 2):
        assert a._ready(wm) is None  # nothing pending
        seen.append(a.finalized_upto)
    assert seen == [-5, 10, 10, 10, 30, 30]
    a._gate(_events([100]), 40)
    assert a._ready(35) is None  # pending, but not ready
    assert a.finalized_upto == 35
    assert a._ready(20) is None
    assert a.finalized_upto == 35


def test_gate_dedup_late_rows_keep_their_doc_id():
    """Rows that already carry ``doc_id`` keep it (and their schema) on the
    late path; the gate adds no column of its own."""
    a = dedup_state.DedupStateActor.__ray_metadata__.modified_class(horizon=5)
    rows = pa.table(
        {
            "doc_id": pa.array([500, 501, 502], pa.int64()),
            "dedup_id": pa.array([1, 2, 1], pa.int64()),
            "event_ts": pa.array([10, 20, 30], pa.int64()),
        }
    )
    a.ingest(rows, 20)
    a.ingest(rows, 20)  # a replay: ts 10 and 20 are now late
    late = _held_late(a)
    assert late.schema == rows.schema
    assert late["doc_id"].to_pylist() == [500, 501]
    assert a.n_late == 2


@pytest.mark.parametrize("name", ["first_touch", "rate_limit"])
def test_gate_evicts_when_nothing_is_ready(name):
    """First-touch and rate-limit evict against the watermark even when the
    gate releases nothing."""
    a = _actor(name)
    a.ingest(_events([10, 11, 12, 13]), 20)
    stat = {"first_touch": "state_touches", "rate_limit": "state_windows"}[name]
    before = a.state_stats()[stat]
    a.ingest(_events([]), 20)
    assert a.state_stats()[stat] == before > 0
    a.ingest(_events([]), 1 << 50)  # past every window and horizon
    assert a.state_stats()[stat] == 0


def test_session_stats_flush_closes_every_session():
    """The end-of-stream flush emits each session once, with the same rows
    whether the session closes by a later row's gap or at flush."""
    a = _actor("session_stats")  # gap 50
    a.ingest(
        pa.table(
            {
                "user_id": pa.array([1, 1, 2, 1], pa.int64()),
                "ts_us": pa.array([0, 40, 500, 200], pa.int64()),
                "event_id": pa.array([0, 1, 2, 3], pa.int64()),
            }
        ),
        -1,
    )
    a.flush()
    out, _late = a.take_held()
    out = pa.concat_tables(out).sort_by(
        [("user_id", "ascending"), ("session_id", "ascending")]
    )
    assert out.to_pylist() == [
        {"user_id": 1, "session_id": 1, "n_events": 2, "start_us": 0,
         "end_us": 40, "duration_us": 40},
        {"user_id": 1, "session_id": 2, "n_events": 1, "start_us": 200,
         "end_us": 200, "duration_us": 0},
        {"user_id": 2, "session_id": 1, "n_events": 1, "start_us": 500,
         "end_us": 500, "duration_us": 0},
    ]
    stats = a.state_stats()
    assert stats["open_sessions"] == 0 and stats["pending_rows"] == 0


def test_grow_sorted_keys():
    kid = np.array([3, 7], np.int64)
    vec = np.array([30, 70], np.int64)
    mat = np.array([[1, 2], [3, 4]], np.int64)
    kid2, (vec2, mat2) = grow_sorted_keys(
        kid, np.array([7, 1, 9, 1], np.int64), [(vec, -1), (mat, 0)]
    )
    assert kid2.tolist() == [1, 3, 7, 9]
    assert vec2.tolist() == [-1, 30, 70, -1]
    assert mat2.tolist() == [[0, 0], [1, 2], [3, 4], [0, 0]]
    # every key known: the inputs come back as they are
    kid3, (vec3,) = grow_sorted_keys(kid2, np.array([9, 3]), [(vec2, -1)])
    assert kid3 is kid2 and vec3 is vec2
    # from empty state
    kid4, (flags,) = grow_sorted_keys(
        np.zeros(0, np.int64), np.array([5, 2], np.int64),
        [(np.zeros(0, bool), False)],
    )
    assert kid4.tolist() == [2, 5] and flags.tolist() == [False, False]
