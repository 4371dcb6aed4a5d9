"""The decide step of the inpaint engines, ``keyed_state._WindowDecisions``
(no Ray: the mixin runs on a plain object, the actor class in-process).

``KeyedStateActor`` runs it in-process and ``_SaltedAggregator`` over every
actor's deltas, so these cases pin both placements: the vectorized
detection against the scalar oracle, the sticky rule's forward-only fix,
the horizon guard, the token of a buffered window with no histogram, and
session close.
"""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.state import keyed_state
from pdf_watermark_removal_otsu_inpaint_ray.synth import generate_stream

TUMBLING = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16)
STICKY = TUMBLING.with_(detection_mode="sticky")
HIGH_WM = 1 << 40


def _decisions(cfg):
    d = keyed_state._WindowDecisions()
    d._init_decisions(cfg)
    return d


def _hist(counts: dict[int, int], cfg=TUMBLING) -> np.ndarray:
    h = np.zeros(cfg.gray_mod, np.int64)
    for gray, n in counts.items():
        h[gray] = n
    return h


def _delta(items):
    """``ingest_partial``'s shape from ``(source, key, hist)`` items."""
    return (
        [s for s, _, _ in items],
        [k for _, k, _ in items],
        np.stack([h for _, _, h in items]),
        0,
    )


NO_DETECT = _hist({50: 100})
DETECTS_110 = _hist({50: 100, 110: 5})
DETECTS_200 = _hist({50: 100, 200: 5})


def test_tokens_match_the_scalar_oracle():
    rng = np.random.default_rng(7)
    hists = rng.integers(0, 40, size=(300, TUMBLING.gray_mod)).astype(np.int64)
    # plant a qualifying peak in a third of them, so both outcomes occur
    rows = rng.choice(300, 100, replace=False)
    hists[rows, rng.integers(100, 251, size=100)] += rng.integers(200, 900, size=100)
    hists[::17] = 0  # all-zero hists detect nothing
    keys = [(f"s{i}", i) for i in range(len(hists))]
    got = _decisions(TUMBLING)._tokens(keys, list(hists))
    want = [golden.detect_wm_token(h, TUMBLING)[0] for h in hists]
    assert got == want
    assert sum(t >= 0 for t in want) >= 50 and want[0] == -1
    assert _decisions(TUMBLING)._tokens([("s", 0)], [None]) == [-1]


def test_sticky_is_not_retroactive_in_one_round():
    """Window 1 detects first: window 0 keeps its own -1 and window 2
    takes window 1's token, although alone it would detect 200."""
    d = _decisions(STICKY)
    d._merge([_delta([("a", 0, NO_DETECT), ("a", 1, DETECTS_110), ("a", 2, DETECTS_200)])])
    assert d._due(HIGH_WM) == [("a", 0, -1), ("a", 1, 110), ("a", 2, 110)]
    assert d.sticky == {"a": (110, 1)} and not d.hists


def test_sticky_is_not_retroactive_across_rounds():
    d = _decisions(STICKY)
    d._merge([_delta([("a", 0, NO_DETECT), ("a", 1, NO_DETECT), ("b", 0, DETECTS_200)])])
    assert d._due(16) == [("a", 0, -1), ("b", 0, 200)]
    d._merge([_delta([("a", 2, DETECTS_110), ("a", 3, DETECTS_200), ("b", 1, NO_DETECT)])])
    # window 1 closes in the same round as the first detecting window 2
    assert d._due(HIGH_WM) == [
        ("a", 1, -1), ("a", 2, 110), ("a", 3, 110), ("b", 1, 200),
    ]


def test_horizon_guard_drops_a_straggler_delta():
    d = _decisions(TUMBLING)
    d._merge([_delta([("a", 0, DETECTS_110)])])
    assert d._due(32) == [("a", 0, 110)] and d.horizon == 32
    # window 1 ends at 32: its detection epoch passed with nothing to decide
    d._merge([_delta([("a", 1, DETECTS_200), ("a", 2, DETECTS_200)])])
    assert list(d.hists) == [("a", 2)]
    assert d._due(32) == []


@pytest.mark.parametrize(
    "cfg, want",
    [
        (TUMBLING.with_(fixed_wm_token=130), [("a", 0, 130), ("a", 3, 130), ("b", 3, 130)]),
        (STICKY, [("a", 0, -1), ("a", 3, 110), ("b", 3, -1)]),
        (TUMBLING, [("a", 0, -1), ("a", 3, -1), ("b", 3, -1)]),
    ],
    ids=["fixed", "sticky", "windowed"],
)
def test_buffered_key_without_histogram(cfg, want):
    """A buffered window whose every contribution was dropped: the fixed
    token, the source's sticky token from its first detecting window on,
    else -1.  A buffered key not yet due stays."""
    d = _decisions(cfg)
    d._merge([_delta([("a", 1, DETECTS_110)])])
    d._due(32)
    assert d._due(HIGH_WM - 1, {("a", 0), ("a", 3), ("b", 3)}) == want
    assert d._due(48, {("c", 9)}) == []


def test_sessions_close_in_start_order_and_closed_sources_leave():
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=2, detection_mode="sticky")
    d = _decisions(cfg)
    d._merge([
        (["a", "b", "b"], [(0, 3), (0, 1), (20, 21)], np.stack([NO_DETECT, DETECTS_200, NO_DETECT]), 0),
        (["a", "a"], [(5, 6), (12, 14)], np.stack([DETECTS_110, DETECTS_200]), 0),
    ])
    # a's (0, 3) and (5, 6) gap-merge: 5 <= 3 + 2
    assert [(s["start"], s["last"]) for s in d.sessions["a"]] == [(0, 6), (12, 14)]
    assert d._due(17) == [("a", 0, 6, 110), ("a", 12, 14, 110), ("b", 0, 1, 200)]
    assert set(d.sessions) == {"b"}
    assert d._due(HIGH_WM) == [("b", 20, 21, 200)] and d.sessions == {}


def _actor(cfg):
    return keyed_state.KeyedStateActor.__ray_metadata__.modified_class(cfg)


def test_restore_rejects_a_checkpoint_from_another_build():
    """A blob whose fields differ from the class's (here: the sticky map and
    horizon under other names) must fail loudly, naming the class and the
    fields, not restore into dead attributes."""
    actor = _actor(STICKY)
    state = pickle.loads(actor.checkpoint_state())
    state["_sticky"] = state.pop("sticky", {})
    state["_hist_horizon"] = state.pop("horizon", 64)
    with pytest.raises(ValueError) as err:
        _actor(STICKY).restore_state(pickle.dumps(state))
    msg = str(err.value)
    assert "KeyedStateActor" in msg
    assert "['horizon', 'sticky']" in msg and "['_hist_horizon', '_sticky']" in msg
    fresh = _actor(STICKY)
    fresh.restore_state(actor.checkpoint_state())  # its own build's blob restores
    assert fresh.sticky == {} and fresh.horizon == actor.horizon


def test_restore_rejects_a_checkpoint_carrying_the_outbox():
    """The keyed actor no longer keeps an outbox: a blob written by a build
    that checkpointed ``_outbox`` must fail loudly, naming it as extra, not
    restore a field nothing drains."""
    state = pickle.loads(_actor(TUMBLING).checkpoint_state())
    state["_outbox"] = []
    with pytest.raises(ValueError) as err:
        _actor(TUMBLING).restore_state(pickle.dumps(state))
    assert "missing fields []" in str(err.value)
    assert "extra fields ['_outbox']" in str(err.value)


def test_checkpoint_carries_the_held_output():
    """In driver-collect mode the actor holds what it emits until
    ``take_held``.  A snapshot taken with output and late rows held
    restores into a fresh actor that takes the same rows."""
    table = generate_stream(
        300, seed=3, n_sources=4, n_tok_lo=16, n_tok_hi=32, disorder=0, cfg=TUMBLING
    )
    mid = int(np.median(np.asarray(table["event_ts"])))
    actor = _actor(TUMBLING)
    actor.ingest(table, -HIGH_WM)  # buffers every row
    actor.ingest(table.slice(0, 0), mid)  # emits the windows that end by mid
    actor.ingest(table.slice(0, 5), mid)  # a replay of early rows: late
    blob = actor.checkpoint_state()

    restored = _actor(TUMBLING)
    restored.restore_state(blob)
    out, late = restored.take_held()
    want_out, want_late = actor.take_held()
    assert out and late and actor.n_late == restored.n_late == 5
    assert pa.concat_tables(out).equals(pa.concat_tables(want_out))
    assert pa.concat_tables(late).equals(pa.concat_tables(want_late))
    assert restored.take_held() == ([], [])  # a take clears what it returns
