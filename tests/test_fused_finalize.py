"""Fused finalize rounds of ``KeyedStateActor`` (no Ray: the actor class runs
in-process).

Every finalize path decides each due window's (or session's) token on its
own and then rewrites the whole round with one ``process_batch_flat`` call
per ``_FUSED_REWRITE_ROWS`` rows.  These tests count the kernel calls and
check the output byte for byte against rewriting each window alone with its
token.  The driver's empty output must carry the schema of a collected one.
"""

import math

import numpy as np
import pyarrow as pa
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.pipelines import streaming
from pdf_watermark_removal_otsu_inpaint_ray.stages import kernels
from pdf_watermark_removal_otsu_inpaint_ray.stages.inpaint import rewritten_table
from pdf_watermark_removal_otsu_inpaint_ray.state import keyed_state
from pdf_watermark_removal_otsu_inpaint_ray.synth import generate_stream

CAP = 64  # a small cap keeps the inputs small; flush also runs at the real one
LOW_WM = -(1 << 40)  # buffers everything, finalizes nothing
HIGH_WM = 1 << 40  # past every window end: one round finalizes them all


def _actor(cfg):
    return keyed_state.KeyedStateActor.__ray_metadata__.modified_class(cfg)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Row count of every ``process_batch_flat`` call the actor makes;
    clear it before the call under test."""
    sizes: list[int] = []
    kernel = keyed_state.process_batch_flat

    def counted(fb, wm_row, cfg, *a, **kw):
        sizes.append(fb.n_rows)
        return kernel(fb, wm_row, cfg, *a, **kw)

    monkeypatch.setattr(keyed_state, "process_batch_flat", counted)
    return sizes


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(keyed_state, "_FUSED_REWRITE_ROWS", CAP)


def _stream(cfg, n=600, seed=3):
    return generate_stream(
        n, seed=seed, n_sources=6, n_tok_lo=16, n_tok_hi=48, disorder=0, cfg=cfg
    )


def _hand_rows(source, items, schema):
    """items: (doc_id, tokens, ts)."""
    return pa.table(
        {
            "doc_id": [i[0] for i in items],
            "tokens": [list(i[1]) for i in items],
            "n_tok": [len(i[1]) for i in items],
            "source": [source] * len(items),
            "event_ts": [i[2] for i in items],
        },
        schema=schema,
    )


def _per_window(table, row_key, token_of):
    """The reference: each window's rows rewritten ALONE with its token,
    through the kernel module itself, so no reference call is counted as
    an actor kernel call."""
    keys = list(zip(table["source"].to_pylist(), row_key.tolist()))
    out = []
    for k in sorted(set(keys)):
        rows = table.take(pa.array([i for i, kk in enumerate(keys) if kk == k]))
        fb = kernels.flatten_list_column(rows["tokens"])
        wm_row = np.full(rows.num_rows, token_of(k), np.int64)
        out.append(rewritten_table(rows, fb, kernels.process_batch_flat(fb, wm_row, DEFAULT_CONFIG)))
    return pa.concat_tables(out).sort_by("doc_id")


def _collect(tables):
    return pa.concat_tables(tables).sort_by("doc_id")


def _held_output(actor):
    """The output the actor emitted since the last take, which clears it."""
    out, _late = actor.take_held()
    return out


def _golden_token(table, cfg):
    wm = golden.golden_wm_table(table, cfg)
    return lambda k: wm.get(k, (-1, 0.0))[0]


@pytest.mark.parametrize(
    "window",
    [
        dict(window_kind="tumbling", window_size=16),
        dict(window_kind="sliding", window_size=32, window_slide=8),
    ],
    ids=["tumbling", "sliding"],
)
@pytest.mark.parametrize("mode", ["windowed", "fixed"])
def test_ingest_round_fuses_windows(window, mode, small_cap, kernel_calls):
    cfg = DEFAULT_CONFIG.with_(**window)
    if mode == "fixed":
        cfg = cfg.with_(fixed_wm_token=130)
    table = _stream(cfg)
    row_key = golden.governing_window(np.asarray(table["event_ts"]), cfg)
    token_of = (lambda k: 130) if mode == "fixed" else _golden_token(table, cfg)
    expected = _per_window(table, row_key, token_of)

    actor = _actor(cfg)
    actor.ingest(table, LOW_WM)
    assert _held_output(actor) == []
    n_windows = len(actor.buffers)
    assert n_windows > 20 and len({s for s, _ in actor.buffers}) == 6
    kernel_calls.clear()
    actor.ingest(table.slice(0, 0), HIGH_WM)
    out = _held_output(actor)
    assert actor.n_late == 0
    assert len(kernel_calls) == math.ceil(table.num_rows / CAP) < n_windows
    assert max(kernel_calls) <= CAP
    got = _collect(out)
    assert got.equals(expected)
    assert actor.n_emitted == table.num_rows and not actor.buffers


def test_sticky_first_detection_inside_the_round(small_cap, kernel_calls):
    """Source ``hand`` detects first in window 1: window 0, finalized in the
    same round, keeps its own -1 and window 2 takes window 1's token."""
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16, detection_mode="sticky")
    bulk = _stream(cfg, n=400)
    hand = _hand_rows(
        "hand",
        [
            ("h0", [50] * 100, 2),  # window 0: nothing to detect
            ("h1", [50] * 100 + [110] * 5, 18),  # window 1: detects 110
            ("h2", [50] * 100 + [200] * 5, 35),  # window 2 alone would detect 200
        ],
        bulk.schema,
    )
    table = pa.concat_tables([bulk, hand])
    wm = golden.golden_wm_table(table, cfg)
    assert [wm[("hand", w)][0] for w in range(3)] == [-1, 110, 110]
    h2 = golden.hist_of(golden.gray_of(np.array(hand["tokens"][2].as_py()), cfg), cfg)
    assert golden.detect_wm_token(h2, cfg)[0] == 200
    row_key = golden.governing_window(np.asarray(table["event_ts"]), cfg)
    expected = _per_window(table, row_key, _golden_token(table, cfg))

    actor = _actor(cfg)
    actor.ingest(table, LOW_WM)
    assert _held_output(actor) == []
    kernel_calls.clear()
    actor.ingest(table.slice(0, 0), HIGH_WM)
    out = _held_output(actor)
    assert len(kernel_calls) == math.ceil(table.num_rows / CAP)
    got = _collect(out)
    assert got.equals(expected)
    by_id = dict(zip(got["doc_id"].to_pylist(), got["wm_token"].to_pylist()))
    assert [by_id["h0"], by_id["h1"], by_id["h2"]] == [-1, 110, 110]


def test_window_without_histogram_keeps_minus_one(small_cap, kernel_calls):
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16)
    table = _stream(cfg)
    actor = _actor(cfg)
    actor.ingest(table, LOW_WM)
    bare = sorted(actor.buffers)[len(actor.buffers) // 2]
    del actor.hists[bare]  # as if every contribution to it had been dropped
    token = _golden_token(table, cfg)
    row_key = golden.governing_window(np.asarray(table["event_ts"]), cfg)
    expected = _per_window(table, row_key, lambda k: -1 if k == bare else token(k))
    assert token(bare) >= 0  # the hist would have detected: -1 comes from its absence

    kernel_calls.clear()
    actor.ingest(table.slice(0, 0), HIGH_WM)
    out = _held_output(actor)
    assert len(kernel_calls) == math.ceil(table.num_rows / CAP)
    assert _collect(out).equals(expected)


def test_finalize_windows_fuses_the_fan_out(small_cap, kernel_calls):
    """The salted aggregator's fan-out: every listed key is finalized, only
    the buffered ones emit, each with the token it was given."""
    cfg = DEFAULT_CONFIG.with_(window_kind="sliding", window_size=32, window_slide=8)
    table = _stream(cfg)
    actor = _actor(cfg)
    actor.ingest_partial(table, LOW_WM)
    keys = actor.buffered_keys()
    given = {k: (-1, 120, 200, 150)[i % 4] for i, k in enumerate(keys)}
    row_key = golden.governing_window(np.asarray(table["event_ts"]), cfg)
    expected = _per_window(table, row_key, given.__getitem__)
    items = [(s, w, tok) for (s, w), tok in given.items()] + [("absent", 3, 120)]

    kernel_calls.clear()
    actor.finalize_windows(items)
    out = _held_output(actor)
    assert len(kernel_calls) == math.ceil(table.num_rows / CAP) < len(keys)
    assert _collect(out).equals(expected)
    assert not actor.buffers and ("absent", 3) in actor.finalized


def test_finalize_sessions_salted_fuses_and_keeps_open_rows(small_cap, kernel_calls):
    """Two of every three sessions close: their rows emit with their own
    tokens, the open ones' rows stay buffered, and each source's horizon is
    its last closed session's end plus the gap."""
    cfg = DEFAULT_CONFIG.with_(window_kind="session", session_gap=2)
    table = _stream(cfg, n=800)
    actor = _actor(cfg)
    srcs, spans, _hm, _ = actor.ingest_partial(table, LOW_WM)
    merged = {}
    for s, (lo, hi) in zip(srcs, spans):
        merged.setdefault(s, []).append({"start": lo, "last": hi, "hist": np.zeros(1)})
    sessions = sorted(
        (s, f["start"], f["last"])
        for s in merged
        for f in keyed_state.merge_session_intervals(merged[s], cfg.session_gap)
    )
    assert len(sessions) > 20
    closed = [ses for i, ses in enumerate(sessions) if i % 3]  # every third stays open
    given = {ses: (-1, 120, 200, 150)[i % 4] for i, ses in enumerate(closed)}
    items = [(s, lo, hi, tok) for (s, lo, hi), tok in given.items()]

    ts = np.asarray(table["event_ts"])
    src = table["source"].to_pylist()
    session_of = np.full(table.num_rows, -1, np.int64)
    for i, (s, lo, hi) in enumerate(sessions):
        session_of[[j for j in range(table.num_rows) if src[j] == s and lo <= ts[j] <= hi]] = i
    is_closed = np.array([sessions[i] in given for i in session_of])
    closed_rows = table.filter(pa.array(is_closed))
    expected = _per_window(
        closed_rows, session_of[is_closed], lambda k: given[sessions[k[1]]]
    )

    kernel_calls.clear()
    actor.finalize_sessions_salted(items)
    out = _held_output(actor)
    assert len(kernel_calls) == math.ceil(closed_rows.num_rows / CAP) < len(closed)
    assert _collect(out).equals(expected)
    assert actor.state_stats()["buffered_rows"] == table.num_rows - closed_rows.num_rows
    for s in merged:
        his = [hi for (ss, _lo, hi) in closed if ss == s]
        assert actor.session_horizon.get(s) == (max(his) + cfg.session_gap if his else None)


def test_flush_groups_stay_under_the_cap(kernel_calls):
    """A flush over more buffered rows than the real cap: several calls, in
    ceil(rows / cap) groups, none over the cap."""
    cap = keyed_state._FUSED_REWRITE_ROWS
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16)
    table = generate_stream(
        2 * cap + cap // 2, seed=5, n_sources=6, n_tok_lo=8, n_tok_hi=24, disorder=0, cfg=cfg
    )
    actor = _actor(cfg)
    actor.ingest(table, LOW_WM)
    assert _held_output(actor) == []
    kernel_calls.clear()
    actor.flush()
    out = _held_output(actor)
    assert len(kernel_calls) == math.ceil(table.num_rows / cap) >= 2
    assert max(kernel_calls) <= cap and sum(kernel_calls) == table.num_rows
    assert sum(t.num_rows for t in out) == table.num_rows


def test_empty_output_has_the_collected_schema():
    """``_inpaint_output([])`` is the empty table of exactly the schema a
    non-empty driver-collected inpaint output has."""
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=16)
    table = _stream(cfg, n=200)
    actor = _actor(cfg)
    actor.ingest(table, LOW_WM)
    actor.flush()
    collected = streaming._inpaint_output(_held_output(actor))
    assert collected.num_rows == table.num_rows
    empty = streaming._inpaint_output([])
    assert empty.num_rows == 0
    assert empty.schema.equals(collected.schema, check_metadata=True)
