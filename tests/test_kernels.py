"""Flat vectorized kernels must match the per-row golden oracle byte-for-byte
on randomized inputs (including empty rows, fully-flagged rows, multi-pass,
motif max-span overrides)."""

import numpy as np
import pyarrow as pa
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
from pdf_watermark_removal_otsu_inpaint_ray.stages import kernels


def random_batch(rng, n_rows, max_len=200):
    rows = []
    for _ in range(n_rows):
        n = int(rng.integers(0, max_len))
        kind = rng.integers(0, 3)
        if kind == 0:
            t = rng.integers(0, 600, size=n).astype(np.int32)
        else:
            # structured: background + planted wm spans + content
            t = np.full(n, 252, dtype=np.int32)
            for _ in range(int(rng.integers(0, 3))):
                if n < 5:
                    break
                s = int(rng.integers(0, n - 4))
                ln = int(rng.integers(2, min(40, n - s) + 1))
                t[s : s + ln] = int(rng.integers(100, 251))
            for _ in range(int(rng.integers(0, 2))):
                if n < 5:
                    break
                s = int(rng.integers(0, n - 4))
                ln = int(rng.integers(2, min(20, n - s) + 1))
                t[s : s + ln] = int(rng.integers(0, 141))
        rows.append(t)
    return rows


def to_flat(rows):
    col = pa.array([r.tolist() for r in rows], pa.list_(pa.int32()))
    return kernels.flatten_list_column(col)


def test_morphology_matches_golden():
    rng = np.random.default_rng(7)
    rows = random_batch(rng, 30)
    fb = to_flat(rows)
    flag = rng.integers(0, 2, size=fb.values.size).astype(bool)
    for r in (1, 2, 3):
        d = kernels.flat_dilate(flag, r, fb)
        e = kernels.flat_erode(flag, r, fb)
        for i, row in enumerate(rows):
            s, t = fb.offsets[i], fb.offsets[i + 1]
            assert (d[s:t] == golden.dilate(flag[s:t], r)).all()
            assert (e[s:t] == golden.erode(flag[s:t], r)).all()


def test_filter_runs_matches_golden():
    rng = np.random.default_rng(8)
    rows = random_batch(rng, 30)
    fb = to_flat(rows)
    flag = rng.integers(0, 2, size=fb.values.size).astype(bool)
    out = kernels.filter_runs(flag, fb, 2, 5)
    for i in range(len(rows)):
        s, t = fb.offsets[i], fb.offsets[i + 1]
        exp = np.zeros(t - s, dtype=bool)
        for a, b in golden.runs(flag[s:t]):
            if 2 <= b - a <= 5:
                exp[a:b] = True
        assert (out[s:t] == exp).all()


def test_detect_and_inpaint_match_golden():
    rng = np.random.default_rng(9)
    for trial in range(5):
        rows = random_batch(rng, 40)
        fb = to_flat(rows)
        wm_row = np.array(
            [rng.choice([-1, 100, 125, 150, 200, 250]) for _ in rows], dtype=np.int64
        )
        wm_pos = kernels.per_position(wm_row, fb)
        flag = kernels.detect_mask_flat(fb.values, wm_pos, fb, DEFAULT_CONFIG)
        inp = kernels.inpaint_flat(fb.values, flag, fb)
        for i, row in enumerate(rows):
            s, t = fb.offsets[i], fb.offsets[i + 1]
            if wm_row[i] < 0:
                assert not flag[s:t].any()
                continue
            g = golden.detect_mask(row, int(wm_row[i]))
            assert (flag[s:t] == g).all(), f"trial {trial} row {i}"
            assert (inp[s:t] == golden.inpaint_row(row, g)).all()


def test_process_batch_matches_golden_multipass():
    rng = np.random.default_rng(10)
    for passes in (1, 2, 3):
        cfg = DEFAULT_CONFIG.with_(passes=passes)
        rows = random_batch(rng, 30)
        fb = to_flat(rows)
        wm_row = np.array(
            [rng.choice([-1, 120, 150, 200]) for _ in rows], dtype=np.int64
        )
        max_span_row = np.array(
            [len(r) if rng.integers(0, 4) == 0 else cfg.max_span for r in rows],
            dtype=np.int64,
        )
        res = kernels.process_batch_flat(fb, wm_row, cfg, max_span_row)
        for i, row in enumerate(rows):
            s, t = fb.offsets[i], fb.offsets[i + 1]
            ms = int(max_span_row[i])
            g = golden.process_row(row, int(wm_row[i]), cfg, max_span=ms)
            assert (res.values[s:t] == g.tokens).all(), f"passes={passes} row {i}"
            assert res.n_passes[i] == g.n_passes
            assert res.radius[i] == g.radius or g.n_passes == 0
            np.testing.assert_allclose(res.coverage_pct[i], g.coverage_pct)


def test_batch_histograms_matches_bincount():
    rng = np.random.default_rng(11)
    rows = random_batch(rng, 25)
    fb = to_flat(rows)
    key_row = np.array([rng.integers(-1, 3) for _ in rows], dtype=np.int64)
    H = kernels.batch_histograms(fb, key_row, 3, DEFAULT_CONFIG)
    exp = np.zeros((3, 256), dtype=np.int64)
    for i, row in enumerate(rows):
        if key_row[i] >= 0:
            exp[key_row[i]] += np.bincount(row % 256, minlength=256)
    assert (H == exp).all()


def test_process_cache_distinct_configs_and_bound():
    """Regression: the per-worker stage cache must key on cfg itself (dict
    __eq__ resolves hash collisions), and must stay bounded under many
    successive runs with fresh keys."""
    from pdf_watermark_removal_otsu_inpaint_ray.stages import inpaint as inp

    inp._PROCESS_CACHE.clear()
    wm = {}
    cfg_a = DEFAULT_CONFIG.with_(tolerance=10)
    cfg_b = DEFAULT_CONFIG.with_(tolerance=20)
    fn_a = inp.make_inpaint_fn(wm, cfg_a)
    fn_b = inp.make_inpaint_fn(wm, cfg_b)
    batch = pa.table(
        {
            "doc_id": pa.array(["d"], pa.string()),
            "tokens": pa.array([[5, 6, 7]], pa.list_(pa.int64())),
            "n_tok": pa.array([3], pa.int32()),
            "source": pa.array(["s"], pa.string()),
            "event_ts": pa.array([0], pa.int64()),
        }
    )
    fn_a(batch)
    fn_b(batch)
    stages = [v for k, v in inp._PROCESS_CACHE.items() if k[0] == "stage"]
    assert len(stages) == 2
    assert {s.cfg.tolerance for s in stages} == {10, 20}
    # LRU bound: flooding with distinct configs never exceeds the cap
    for tol in range(3, 3 + inp._PROCESS_CACHE_MAX + 10):
        inp.make_inpaint_fn(wm, DEFAULT_CONFIG.with_(tolerance=tol))(batch)
    assert len(inp._PROCESS_CACHE) <= inp._PROCESS_CACHE_MAX
    inp._PROCESS_CACHE.clear()


@pytest.mark.parametrize(
    "window",
    [
        dict(window_kind="tumbling", window_size=16),
        dict(window_kind="sliding", window_size=20, window_slide=8),
        dict(window_kind="global"),
    ],
    ids=["tumbling", "sliding", "global"],
)
def test_histogram_partials_match_golden_windows(window):
    """Phase 1's partial rows (``contributing_windows`` + ``window_partials``,
    which the keyed state actor runs too) equal the oracle's per-(source,
    window) histograms: every row counted once in each window covering it."""
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import HistogramPartials
    from pdf_watermark_removal_otsu_inpaint_ray.synth import generate_stream

    cfg = DEFAULT_CONFIG.with_(**window)
    table = generate_stream(300, seed=4, n_sources=5, n_tok_lo=8, n_tok_hi=40, cfg=cfg)
    expected: dict = {}
    for s, t, toks in zip(
        table["source"].to_pylist(), table["event_ts"].to_pylist(), table["tokens"].to_pylist()
    ):
        h = golden.hist_of(golden.gray_of(np.asarray(toks, np.int64), cfg), cfg)
        for w in golden.contributing_windows(t, cfg):
            expected[(s, w)] = expected.get((s, w), 0) + h
    out = HistogramPartials(cfg)(table)
    got: dict = {}  # a sliding key gets one partial row per shift it appears in
    for s, w, h in zip(*(out[c].to_pylist() for c in ("source", "window_id", "hist"))):
        got[(s, w)] = got.get((s, w), 0) + np.asarray(h)
    assert got.keys() == expected.keys()
    assert all(np.array_equal(got[k], expected[k]) for k in expected)
