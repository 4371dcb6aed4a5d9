"""Benchmark harness.

Headline: the flagship two-phase pipeline (windowed watermark detection +
token-span inpainting + exactly-once sink) over a deterministic synthetic
sequence stream sized to the scale factor, plus a breakdown of
representative pipelines over ``$GRAFT_SF_DIR`` tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "rows_per_sec": ...}

``--scaling``: reruns the headline in fresh processes at two CPU levels
(``GRAFT_SCALE_LO``/``GRAFT_SCALE_HI``, default 8/32; the criterion runs
2 vs 8 — see BASELINE.md) on the same cached input and reports both throughputs + scaling efficiency
(the sandbox substitute for the N vs 4N-node cluster rule; SURVEY.md §4.3).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CACHE_DIR = "/tmp/graft_bench_cache"
# sink target for the timed runs: tmpfs by default — the criterion measures
# ENGINE scaling, and this sandbox's virtio disk tops out at ~84 MB/s which
# would put a hard non-scaling floor under any e2e run (override with
# GRAFT_BENCH_OUT=/tmp/... to measure the disk-bound variant)
BENCH_OUT = os.environ.get("GRAFT_BENCH_OUT", "/dev/shm/graft_bench_out")

# bench stream size scales with the sf dir (sf0.1 -> 120k rows, ~40M tokens)
ROWS_BY_SF = {"sf0.001": 2_000, "sf0.01": 12_000, "sf0.1": 120_000}
# --scaling uses a larger stream so compute dominates fixed costs (the
# efficiency criterion measures the scalable part, not Ray session startup).
# Capped at ~10 GB: beyond that the 37 GiB object store + tmpfs sink spill
# to this sandbox's 84 MB/s disk and the measurement collapses into disk IO.
SCALING_ROWS = int(os.environ.get("GRAFT_SCALING_ROWS", "7200000"))


def bench_rows() -> int:
    override = os.environ.get("GRAFT_BENCH_ROWS")
    if override:
        return int(override)
    return ROWS_BY_SF.get(os.path.basename(SF_DIR.rstrip("/")), 120_000)


def ensure_stream(n_rows: int) -> str:
    """Generate (once, cached) the deterministic bench stream in parallel Ray
    tasks — chunk-deterministic, so parallel generation is bit-identical to
    serial.  Written as a DIRECTORY of parquet files (one per chunk) so the
    read parallelizes across tasks — a single giant file reads serially.

    ``rows_per_ts`` scales with the row count so the EVENT-TIME RANGE (and
    with it the (source, window) key space, the watermark table, and the
    driver-side partial volume) stays FIXED as data grows — bigger scale
    means more data per window, not more windows.  Without this, per-key
    state grows linearly with input size and poisons scaling."""
    import ray

    rows_per_ts = max(4, n_rows // 30_000)
    n_sources = int(os.environ.get("GRAFT_STREAM_SOURCES", "8"))
    suffix = "" if n_sources == 8 else f"_s{n_sources}"
    path = os.path.join(CACHE_DIR, f"seq_{n_rows}_r{rows_per_ts}{suffix}")
    if os.path.isdir(path) and os.listdir(path):
        return path
    os.makedirs(CACHE_DIR, exist_ok=True)

    from pdf_watermark_removal_otsu_inpaint_ray import synth

    chunk = 5_000

    @ray.remote
    def gen(start: int, n: int, out: str):
        import pyarrow.parquet as pq

        t = synth.generate_stream(
            n, start_row=start, n_sources=n_sources, n_tok_lo=128, n_tok_hi=512,
            disorder=8, rows_per_ts=rows_per_ts,
        )
        pq.write_table(t, out)
        return out

    tmp = f"{path}.tmp-{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    refs = [
        gen.remote(s, min(chunk, n_rows - s), os.path.join(tmp, f"chunk-{s:010d}.parquet"))
        for s in range(0, n_rows, chunk)
    ]
    ray.get(refs)
    try:
        os.replace(tmp, path)
    except OSError:
        # concurrent generator won the publish: its cache is identical
        # (deterministic synth) — drop ours and use theirs
        import shutil as _sh

        if os.path.isdir(path):
            _sh.rmtree(tmp, ignore_errors=True)
        else:
            raise
    return path


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
    from pdf_watermark_removal_otsu_inpaint_ray.queries import QUERIES
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import write_exactly_once
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    n_rows = bench_rows()
    stream = ensure_stream(n_rows)
    # warm page cache so both scaling runs measure compute, not first read
    for name in os.listdir(stream):
        with open(os.path.join(stream, name), "rb") as f:
            while f.read(1 << 24):
                pass
    # untimed warmup: spin up the worker pool AND pre-import the library in
    # every worker by running a miniature end-to-end job (session/worker
    # startup isn't what the scaling criterion measures)
    import ray.data as _rd

    from pdf_watermark_removal_otsu_inpaint_ray import synth as _synth

    _warm = _rd.from_arrow(_synth.generate_stream(512, n_tok_lo=64, n_tok_hi=128))
    _warm = _warm.repartition(NUM_CPUS * 2)
    _wcfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=64)
    write_exactly_once(
        run_flagship(_warm, _wcfg, batch_size=64),
        os.path.join(BENCH_OUT, f"warmup_{NUM_CPUS}_{int(time.time() * 1e6)}"),
        num_partitions=NUM_CPUS,
    )

    timings: dict[str, float] = {}
    cfg = DEFAULT_CONFIG.with_(window_kind="tumbling", window_size=64)

    if os.environ.get("GRAFT_STREAMING_ONLY"):
        # stateful-tier scaling probe: the multi-consumer streaming engine
        # (run_streaming_salted_partitioned at its default salting) with the
        # sink-direct exactly-once output (the multi-node ingestion shape) —
        # run alone so --scaling-streaming can measure the stateful tier at
        # two parallelism levels (VERDICT r4 item 7)
        import shutil as _sh

        from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
            run_streaming_salted_partitioned,
        )

        # topology scales WITH the cluster (the faithful multi-node read:
        # more nodes bring more log consumers AND more state actors).
        # Measured split at this workload: the state actors carry ~3x the
        # consumer-side work (state + rewrite + sink staging vs decode +
        # route), so actors get 3/4 of the cpus; mb=8192 amortizes
        # per-micro-batch coordination (knob sweep in round 5: 4/4@2048
        # 26.5s → 6/2@8192 17.2s at 8 cpus, 1.2M rows).
        n_actors_p = max(1, NUM_CPUS * 3 // 4)
        n_consumers_p = max(1, NUM_CPUS // 4)
        best = None
        for _ in range(2):
            psink = os.path.join(
                BENCH_OUT, f"pscale_{NUM_CPUS}_{int(time.time() * 1e6)}"
            )
            t0 = time.perf_counter()
            res, _pm = run_streaming_salted_partitioned(
                stream, cfg, n_actors=n_actors_p,
                n_partitions=n_consumers_p, micro_batch_rows=8192,
                out_dir=psink, num_partitions=max(16, NUM_CPUS),
            )
            dt = time.perf_counter() - t0
            committed = int(res.commit_report["row_count"].to_pandas().sum())
            assert committed + res.n_late == n_rows, (committed, res.n_late)
            _sh.rmtree(psink, ignore_errors=True)
            best = dt if best is None else min(best, dt)
        print(
            json.dumps(
                {
                    "metric": "streaming_partitioned_sink sec",
                    "value": round(best, 3),
                    "unit": "sec",
                    "queries": {"streaming_partitioned_sink": round(best, 3)},
                    "sf": SF_DIR,
                    "num_cpus": NUM_CPUS,
                    "bench_rows": n_rows,
                    "rows_per_sec": round(n_rows / best, 1),
                }
            )
        )
        ray.shutdown()
        return

    # headline: full flagship incl. exactly-once sink (phases timed separately
    # for transparency; e2e = detect + rewrite+sink)
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import (
        compute_wm_table as _cwt,
    )

    # two iterations; report the best (steady-state throughput — the first
    # full-size execution pays one-off block-transfer/object-store setup that
    # is identical at every parallelism level and isn't what the scaling
    # criterion measures)
    import shutil

    iters = 2 if os.environ.get("GRAFT_HEADLINE_ONLY") else 1
    t_detect, t_sink, headline = [], [], []
    for it in range(iters):
        out_dir = os.path.join(BENCH_OUT, f"run_{NUM_CPUS}_{int(time.time() * 1e6)}")
        t0 = time.perf_counter()
        wm_table = _cwt(read_sequences(stream), cfg)
        td = time.perf_counter() - t0
        t0 = time.perf_counter()
        out = run_flagship(read_sequences(stream), cfg, wm=wm_table, batch_size=1024)
        write_exactly_once(out, out_dir, num_partitions=max(64, NUM_CPUS * 2))
        ts = time.perf_counter() - t0
        t_detect.append(td)
        t_sink.append(ts)
        headline.append(td + ts)
        shutil.rmtree(out_dir, ignore_errors=True)  # don't accumulate output
    headline = min(headline)
    timings["flagship_e2e"] = round(headline, 3)
    timings["flagship_detect"] = round(min(t_detect), 3)
    timings["flagship_rewrite_sink"] = round(min(t_sink), 3)

    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        # compute-path scaling (detect + rewrite, no sink): isolates engine
        # compute from sink IO, reported alongside e2e in the scaling output
        import pyarrow as _pa

        def _cnt(b: "_pa.Table") -> "_pa.Table":
            return _pa.table({"n": _pa.array([b.num_rows], _pa.int64())})

        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            wm_table = _cwt(read_sequences(stream), cfg)
            o = run_flagship(read_sequences(stream), cfg, wm=wm_table, batch_size=1024)
            n = sum(
                x for b in o.map_batches(_cnt, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                ) for x in b["n"].to_pylist()
            )
            dt = time.perf_counter() - t0
            assert n == n_rows, (n, n_rows)
            best = dt if best is None else min(best, dt)
        timings["flagship_nosink"] = round(best, 3)

    if not os.environ.get("GRAFT_HEADLINE_ONLY"):
        # phase 1 alone (detection scan)
        from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import compute_wm_table

        t0 = time.perf_counter()
        compute_wm_table(read_sequences(stream), cfg)
        timings["wm_detect"] = round(time.perf_counter() - t0, 3)

        # incremental streaming engine (single read, keyed state actors)
        from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import run_streaming

        t0 = time.perf_counter()
        res = run_streaming(stream, cfg, n_actors=max(2, NUM_CPUS // 4), micro_batch_rows=2048)
        timings["streaming_incremental"] = round(time.perf_counter() - t0, 3)
        assert res.output.num_rows == n_rows

        # sink-direct streaming: actors stage straight into the exactly-once
        # layout; driver commits manifests only (the scale path)
        sink_dir = os.path.join(BENCH_OUT, f"stream_sink_{NUM_CPUS}_{int(time.time() * 1e6)}")
        t0 = time.perf_counter()
        res2 = run_streaming(
            stream, cfg, n_actors=max(2, NUM_CPUS // 4), micro_batch_rows=2048,
            out_dir=sink_dir, num_partitions=max(16, NUM_CPUS),
        )
        timings["streaming_sink_direct"] = round(time.perf_counter() - t0, 3)
        assert res2.output is None
        shutil.rmtree(sink_dir, ignore_errors=True)

        # sink-direct streaming WITH periodic state checkpoints: the delta
        # vs streaming_sink_direct is the checkpoint overhead (barrier +
        # state pickle + manifest snapshot every 16 micro-batches)
        ck_dir = os.path.join(BENCH_OUT, f"stream_ck_{NUM_CPUS}_{int(time.time() * 1e6)}")
        t0 = time.perf_counter()
        res2c = run_streaming(
            stream, cfg, n_actors=max(2, NUM_CPUS // 4), micro_batch_rows=2048,
            out_dir=ck_dir, num_partitions=max(16, NUM_CPUS),
            checkpoint_every=16,
        )
        timings["streaming_checkpointed"] = round(time.perf_counter() - t0, 3)
        assert res2c.output is None
        shutil.rmtree(ck_dir, ignore_errors=True)

        # session-windowed streaming (vectorized gap-merge state)
        t0 = time.perf_counter()
        res3 = run_streaming(
            stream, cfg.with_(window_kind="session", session_gap=4),
            n_actors=max(2, NUM_CPUS // 4), micro_batch_rows=2048,
        )
        timings["streaming_session"] = round(time.perf_counter() - t0, 3)
        assert res3.output.num_rows + res3.n_late == n_rows

        # multi-consumer streaming: parallel consumers, per-partition
        # watermarks (the multi-node ingestion shape), default salting
        from pdf_watermark_removal_otsu_inpaint_ray.pipelines.streaming import (
            run_streaming_salted_partitioned,
        )

        t0 = time.perf_counter()
        res4, _pmetrics = run_streaming_salted_partitioned(
            stream, cfg, n_actors=max(2, NUM_CPUS // 4),
            n_partitions=max(2, NUM_CPUS // 8), micro_batch_rows=2048,
        )
        timings["streaming_partitioned"] = round(time.perf_counter() - t0, 3)
        assert res4.output.num_rows + res4.n_late == n_rows

        # the same consumers + sink-direct exactly-once output: the full
        # multi-node ingestion shape (no rewritten or late row on the driver)
        psink = os.path.join(BENCH_OUT, f"pstream_sink_{NUM_CPUS}_{int(time.time() * 1e6)}")
        t0 = time.perf_counter()
        res5, _pm5 = run_streaming_salted_partitioned(
            stream, cfg, n_actors=max(2, NUM_CPUS // 4),
            n_partitions=max(2, NUM_CPUS // 8), micro_batch_rows=2048,
            out_dir=psink, num_partitions=max(16, NUM_CPUS),
        )
        timings["streaming_partitioned_sink"] = round(time.perf_counter() - t0, 3)
        assert res5.output is None
        committed = int(res5.commit_report["row_count"].to_pandas().sum())
        assert committed + res5.n_late == n_rows, (committed, res5.n_late)
        shutil.rmtree(psink, ignore_errors=True)

    # representative table queries over $GRAFT_SF_DIR (skipped in scaling
    # subruns, which time the headline only)
    if not os.environ.get("GRAFT_HEADLINE_ONLY"):
        for name in (
            "gray_histogram", "dedup_exact", "minhash_lsh", "simhash",
            "embedding_knn", "learned_detector", "motif_doc_join", "tumbling_counts",
            "events_asof_join", "events_asof_join_broadcast",
            "orders_lineitem_window", "top_docs_per_source",
            "chunk_documents", "doc_top_terms",
            "decontaminate", "repetition_stats",
            "dup_ngrams", "kmeans_embeddings", "approx_distinct_words",
            "events_bloom_semi", "redact_grams",
            "priority_revenue", "events_rolling_sum", "unigram_logprob",
            "heavy_hitter_tokens", "collapse_repeats", "semdedup",
            "nation_revenue", "price_quantiles", "training_shuffle_head",
            "streaming_dedup", "streaming_stream_join", "streaming_temporal_join",
            "events_funnel", "window_top_users", "source_corr", "pca_embeddings",
            "bm25_topk", "events_latest_state", "bpe_token_counts", "events_rolling_outlier",
            "media_phash_near_dup", "events_json_props",
            "events_skew_join", "events_ntile", "events_sessionize",
            "dedup_incremental", "user_cohort_retention",
            "normalize_text", "cross_source_texts", "media_audio_energy",
            "source_top_docs_agg", "events_percent_rank",
            "price_quantiles_by_flag", "lineitem_unpivot_stats",
            # doc_pair_cosine is correctness-only: the synth corpus has no
            # mid-df vocabulary band, so its exact APSS output is inherently
            # ~N^2/2 pairs — a deliberate-quadratic op, not a throughput probe
            "events_transitions", "dedup_keep_best", "source_mad",
            "source_token_entropy", "term_cooccurrence",
            "small_qty_revenue", "customer_revenue_pareto",
            "events_zonemap_scan", "part_pagerank", "events_twap",
            "streaming_window_topk", "streaming_window_distinct", "pq_topk",
            "edit_distance_join", "cms_heavy_words", "jaccard_prefix_join",
            "knn_ivf_pq", "streaming_sliding_topk", "streaming_outer_join",
            "streaming_full_outer_join", "events_rolling_median",
            "events_interval_agg", "source_regression",
            "streaming_window_quantiles", "dedup_cc_distributed",
            "streaming_timeouts", "prefix_dup", "cdc_chunks",
            "streaming_sliding_quantiles", "streaming_funnel",
            "streaming_latest_state", "dup_spans", "part_triangles",
            "events_funnel_within", "streaming_funnel_within",
            "streaming_near_dup", "events_coverage", "part_truss_support",
            "vocab_growth", "strip_dup_spans", "streaming_rate_limit",
            "events_range_frame", "events_resample", "dsir_weights", "pack_examples",
            "part_bfs_hops", "part_kcore", "streaming_coverage", "streaming_pack", "source_token_moments",
            "zipf_slope", "gray_equalize", "doc_novelty", "orders_backlog", "bigram_logprob", "events_attribution", "streaming_attribution", "price_winsorized", "events_first_touch", "region_supplier_revenue", "part_lift_pairs", "streaming_first_touch", "streaming_first_touch_skew", "streaming_salted_mc", "media_scene_cuts", "events_session_stats", "events_gap_hist", "ship_latency_stats", "supplier_acctbal_quantiles", "orders_weekday_mix", "streaming_session_stats", "lang_confusion",
            "session_windows",
        ):
            t0 = time.perf_counter()
            r = QUERIES[name](SF_DIR)
            if hasattr(r, "materialize"):
                r.materialize()
            timings[name] = round(time.perf_counter() - t0, 3)

        # exact dedup at 10x corpus (dup-heavy: every text appears >= 10x) —
        # shows the coarse-partition groupby-agg stage is key-vectorized,
        # not per-row/per-group bound
        import pyarrow as _pa
        import pyarrow.compute as _pc
        import pyarrow.parquet as _pq

        import ray.data as _rd

        from pdf_watermark_removal_otsu_inpaint_ray.functions.dedup import exact_dedup

        os.makedirs(CACHE_DIR, exist_ok=True)
        # cache key covers the SOURCE CONTENT (size+mtime), not just the sf
        # name — a regenerated documents.parquet must invalidate the 10x file
        st10 = os.stat(f"{SF_DIR}/documents.parquet")
        dpath = os.path.join(
            CACHE_DIR,
            f"docs10x_{os.path.basename(SF_DIR.rstrip('/'))}_{st10.st_size}_{st10.st_mtime_ns}.parquet",
        )
        if not os.path.exists(dpath):
            docs = _pq.read_table(
                f"{SF_DIR}/documents.parquet", columns=["doc_id", "text", "source"]
            )
            copies = [
                docs.set_column(
                    0, "doc_id", _pc.add(docs["doc_id"], _pa.scalar(k * 10_000_000, _pa.int64()))
                )
                for k in range(10)
            ]
            _pq.write_table(_pa.concat_tables(copies), dpath)
        t0 = time.perf_counter()
        n10 = sum(
            len(b)
            for b in exact_dedup(_rd.read_parquet(dpath)).iter_batches(batch_format="pyarrow")
        )
        timings["dedup_exact_10x"] = round(time.perf_counter() - t0, 3)
        assert n10 > 0

        # dup-ngram stats on the same 10x corpus: the gram-partition and
        # per-doc shuffles carry int64 triples only, so 10x the documents
        # should cost well under 10x the 1x entry (amortizing fixed cost)
        from pdf_watermark_removal_otsu_inpaint_ray.functions.dupspans import (
            cross_doc_dup_stats,
        )

        t0 = time.perf_counter()
        nd10 = sum(
            len(b)
            for b in cross_doc_dup_stats(_rd.read_parquet(dpath)).iter_batches(
                batch_format="pyarrow"
            )
        )
        timings["dup_ngrams_10x"] = round(time.perf_counter() - t0, 3)
        assert nd10 > 0

        # term-df fold on 1x and the same 10x corpus: the vocab-safe keyed
        # fold (functions/vocabfold.py) bounds the Aggregate to the coarse
        # partition count, so 10x the rows over the SAME vocabulary should
        # cost well under 10x (the sort-based groupby("term") it replaced
        # scaled with distinct-key count and row count both)
        from pdf_watermark_removal_otsu_inpaint_ray.functions.text import (
            term_df_partials,
        )
        from pdf_watermark_removal_otsu_inpaint_ray.functions.vocabfold import (
            keyed_fold,
        )

        def _term_df_rows(path: str) -> int:
            ds1 = _rd.read_parquet(path, columns=["doc_id", "text", "source"])
            folded = keyed_fold(
                ds1.map_batches(term_df_partials, batch_format="pyarrow"),
                key="term",
                sums=("df",),
            )
            return sum(
                len(b) for b in folded.iter_batches(batch_format="pyarrow")
            )

        t0 = time.perf_counter()
        nt1 = _term_df_rows(f"{SF_DIR}/documents.parquet")
        timings["term_df_fold"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        nt10 = _term_df_rows(dpath)
        timings["term_df_fold_10x"] = round(time.perf_counter() - t0, 3)
        assert nt1 > 0 and nt10 == nt1  # same vocabulary, 10x the rows

        # per-partkey (sum_qty, cnt) fold — the q_small_qty_revenue /
        # q_customer_revenue_pareto dimension-key fold, routed through the
        # same vocab-safe keyed_fold since round 5: 10x the lineitem rows
        # over the same partkey space should cost well under 10x (the
        # native groupby("partkey") it replaced scaled with key count)
        import numpy as _np

        stli = os.stat(f"{SF_DIR}/lineitem.parquet")
        lpath = os.path.join(
            CACHE_DIR,
            f"li10x_{os.path.basename(SF_DIR.rstrip('/'))}_{stli.st_size}_{stli.st_mtime_ns}.parquet",
        )
        if not os.path.exists(lpath):
            li = _pq.read_table(
                f"{SF_DIR}/lineitem.parquet", columns=["l_partkey", "l_quantity"]
            )
            _pq.write_table(_pa.concat_tables([li] * 10), lpath)

        def _qty_fold_rows(path: str) -> int:
            def qty_partials(b: _pa.Table) -> _pa.Table:
                pk = _np.asarray(b["l_partkey"], _np.int64)
                q = _np.asarray(b["l_quantity"], _np.float64).astype(_np.int64)
                uk, inv = _np.unique(pk, return_inverse=True)
                s = _np.bincount(inv, weights=q, minlength=uk.size).astype(_np.int64)
                c = _np.bincount(inv, minlength=uk.size).astype(_np.int64)
                return _pa.table(
                    {"partkey": _pa.array(uk, _pa.int64()),
                     "s": _pa.array(s, _pa.int64()),
                     "c": _pa.array(c, _pa.int64())}
                )

            folded = keyed_fold(
                _rd.read_parquet(path, columns=["l_partkey", "l_quantity"])
                .map_batches(qty_partials, batch_format="pyarrow"),
                key="partkey",
                sums=("s", "c"),
            )
            return sum(len(b) for b in folded.iter_batches(batch_format="pyarrow"))

        t0 = time.perf_counter()
        nq1 = _qty_fold_rows(f"{SF_DIR}/lineitem.parquet")
        timings["qty_fold"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        nq10 = _qty_fold_rows(lpath)
        timings["qty_fold_10x"] = round(time.perf_counter() - t0, 3)
        assert nq1 > 0 and nq10 == nq1  # same partkey space, 10x the rows

    print(
        json.dumps(
            {
                "metric": "flagship end-to-end sec (detect+inpaint+exactly-once sink)",
                "value": timings["flagship_e2e"],
                "unit": "sec",
                "queries": timings,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "bench_rows": n_rows,
                "rows_per_sec": round(n_rows / headline, 1),
            }
        )
    )
    ray.shutdown()


def scaling() -> None:
    lo_cpus = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi_cpus = int(os.environ.get("GRAFT_SCALE_HI", "32"))

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_ROWS=str(SCALING_ROWS),
            GRAFT_HEADLINE_ONLY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # pre-generate the scaling stream at full parallelism so the 8-cpu run
    # doesn't pay generation cost
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ensure_stream(SCALING_ROWS)
    ray.shutdown()

    # writeback barrier between runs so the second run doesn't inherit the
    # first's dirty-page flush backlog
    os.sync()
    lo = run(lo_cpus)
    os.sync()
    hi = run(hi_cpus)
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (hi_cpus / lo_cpus)
    ns_lo = lo["queries"].get("flagship_nosink")
    ns_hi = hi["queries"].get("flagship_nosink")
    eff_nosink = (
        round((ns_lo / ns_hi) / (hi_cpus / lo_cpus), 3) if ns_lo and ns_hi else None
    )
    print(
        json.dumps(
            {
                "metric": f"scaling efficiency {lo_cpus}->{hi_cpus} cpus (flagship e2e)",
                "cpus": [lo_cpus, hi_cpus],
                "sec_lo": t_lo,
                "sec_hi": t_hi,
                "rows_per_sec_lo": lo["rows_per_sec"],
                "rows_per_sec_hi": hi["rows_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "scaling_efficiency_nosink": eff_nosink,
                "nosink_sec_lo": ns_lo,
                "nosink_sec_hi": ns_hi,
                "bench_rows": hi["bench_rows"],
                "phases_lo": lo["queries"],
                "phases_hi": hi["queries"],
            }
        )
    )


def _kernel_worker_body(seed: int, reps: int, n_rows: int) -> int:
    """One compute-bound task: generate a small deterministic batch once,
    then run the REAL fused detect+inpaint kernel ``reps`` times over it.
    No object-store traffic, no parquet — pure engine compute."""
    import numpy as np

    from pdf_watermark_removal_otsu_inpaint_ray import synth
    from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG
    from pdf_watermark_removal_otsu_inpaint_ray.stages.kernels import (
        flatten_list_column,
        process_batch_flat,
    )

    t = synth.generate_stream(n_rows, seed=seed, n_sources=8, n_tok_lo=128, n_tok_hi=512)
    fb = flatten_list_column(t["tokens"])
    wm_row = np.full(t.num_rows, 130, dtype=np.int64)
    cfg = DEFAULT_CONFIG
    total = 0
    for _ in range(reps):
        res = process_batch_flat(fb, wm_row, cfg)
        total += res.values.size
    return total


def kernel_scaling() -> None:
    """Compute-bound two-level scaling: the fused kernel as a task fan-out
    with no data plane.  Separates ENGINE compute scaling from the
    single-VM shared-memory/object-store ceiling that caps the e2e run."""
    import json as _json

    lo_cpus = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi_cpus = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    n_tasks = int(os.environ.get("GRAFT_KERNEL_TASKS", "192"))
    reps = int(os.environ.get("GRAFT_KERNEL_REPS", "12"))
    rows = int(os.environ.get("GRAFT_KERNEL_ROWS", "2000"))

    def run(ncpu: int) -> dict:
        code = (
            "import json, time, ray\n"
            f"ray.init(address='local', num_cpus={ncpu}, include_dashboard=False,"
            " logging_level='ERROR')\n"
            "import sys; sys.path.insert(0, %r)\n" % os.path.dirname(os.path.abspath(__file__))
            + "from bench import _kernel_worker_body\n"
            "worker = ray.remote(num_cpus=1)(_kernel_worker_body)\n"
            # warm imports in EVERY worker, not just one: cold numpy imports
            # in the timed region would hit ~(ncpu-1) workers and inflate the
            # hi-cpu run disproportionately
            f"ray.get([worker.remote(0, 1, {rows}) for _ in range({ncpu})])\n"
            "t0 = time.perf_counter()\n"
            f"done = ray.get([worker.remote(i, {reps}, {rows}) for i in range({n_tasks})])\n"
            "dt = time.perf_counter() - t0\n"
            "print(json.dumps({'sec': round(dt, 3), 'positions': sum(done)}))\n"
            "ray.shutdown()\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return _json.loads(out.strip().splitlines()[-1])

    lo = run(lo_cpus)
    hi = run(hi_cpus)
    eff = (lo["sec"] / hi["sec"]) / (hi_cpus / lo_cpus)
    ctrl = _raw_numpy_control(lo_cpus, hi_cpus)
    print(
        _json.dumps(
            {
                "metric": f"compute-bound kernel scaling {lo_cpus}->{hi_cpus} cpus",
                "cpus": [lo_cpus, hi_cpus],
                "sec_lo": lo["sec"],
                "sec_hi": hi["sec"],
                "positions": hi["positions"],
                "mpos_per_sec_lo": round(lo["positions"] / lo["sec"] / 1e6, 1),
                "mpos_per_sec_hi": round(hi["positions"] / hi["sec"] / 1e6, 1),
                "scaling_efficiency": round(eff, 3),
                # PLATFORM CONTROL: the same two-level ratio for raw numpy in
                # bare multiprocessing (no Ray, no engine).  If this matches
                # the engine's ratio, the ceiling is the machine's memory
                # subsystem, not the engine.
                "raw_numpy_control_efficiency": ctrl,
            }
        )
    )


def _raw_numpy_control(lo_cpus: int, hi_cpus: int) -> float:
    """Two-level scaling of a plain numpy kernel under multiprocessing —
    the platform's own ceiling, independent of Ray and this engine."""
    script = r"""
import multiprocessing as mp, time, json

def work(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=60000, dtype=np.int32)
    t = 0
    for _ in range(400):
        g = a.astype(np.int64) % 256
        f = (np.abs(g - 130) < 30) & (g <= 250)
        cs = np.concatenate([[0], np.cumsum(f.astype(np.int64))])
        t += int(cs[-1])
    return t

def run(nproc, ntasks=96):
    with mp.get_context("spawn").Pool(nproc) as p:
        # warm every pool worker (numpy import happens inside work); a
        # partial warmup leaves more cold imports in the hi run's timed
        # region than the lo run's, skewing the control ratio
        p.map(work, range(nproc))
        t0 = time.perf_counter()
        p.map(work, range(ntasks))
        return time.perf_counter() - t0

if __name__ == "__main__":
    import sys
    lo_n, hi_n = int(sys.argv[1]), int(sys.argv[2])
    lo = run(lo_n); hi = run(hi_n)
    print(json.dumps(round((lo / hi) / (hi_n / lo_n), 3)))
"""
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".py", delete=False) as f:
        f.write(script)
        path = f.name
    out = subprocess.run(
        [sys.executable, path, str(lo_cpus), str(hi_cpus)],
        capture_output=True, text=True, check=True,
    ).stdout
    os.unlink(path)
    return _json.loads(out.strip().splitlines()[-1])


def parity() -> None:
    """Driver-format correctness sweep: run a seeded sample of queries()
    entries AND their oracle_sql() twins side-by-side at the correctness
    sf, emitting one CORRECTNESS_r*.json-shaped row per query — so the
    coverage gap between the driver's 50-query sample and the full
    registry can be closed in-repo (VERDICT r3 item 4).

    Usage: python bench.py parity [--sample N] [--seed S] [--sf DIR]
           [--names a,b,c] [--never-sampled] [--out FILE]
    --never-sampled restricts the pool to names absent from every
    CORRECTNESS_r*.json next to this file.  Without --sample, the whole
    pool runs.  Queries with no oracle SQL record a rows-only row
    (hash_match null), same as the driver."""
    import hashlib

    import duckdb
    import numpy as np
    import pandas as pd

    argv = sys.argv[1:]

    def opt(flag: str, default=None):
        if flag in argv:
            return argv[argv.index(flag) + 1]
        return default

    sf_dir = opt("--sf", os.environ.get("GRAFT_PARITY_SF", "/root/testdata/sf0.01"))
    seed = int(opt("--seed", "0"))
    sample_n = opt("--sample")
    out_path = opt("--out", "PARITY.json")
    names_arg = opt("--names")

    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from pdf_watermark_removal_otsu_inpaint_ray.queries import ORACLE_SQL, QUERIES

    pool = sorted(QUERIES)
    if names_arg:
        pool = [n for n in names_arg.split(",") if n in QUERIES]
    elif "--never-sampled" in argv:
        seen: set[str] = set()
        here = os.path.dirname(os.path.abspath(__file__))
        for f in sorted(os.listdir(here)):
            if f.startswith("CORRECTNESS_r") and f.endswith(".json"):
                with open(os.path.join(here, f)) as fh:
                    seen |= set(json.load(fh))
        pool = [n for n in pool if n not in seen]
    if sample_n is not None:
        rng = np.random.default_rng(seed)
        k = min(int(sample_n), len(pool))
        pool = sorted(rng.choice(pool, size=k, replace=False).tolist())

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    def to_df(res) -> pd.DataFrame:
        import pyarrow as _pa

        import ray.data as _rdd

        if isinstance(res, _rdd.Dataset):
            names = res.schema().names
            res = res.to_pandas()
            if res.empty and list(res.columns) != names:
                res = pd.DataFrame({n: [] for n in names})
        if isinstance(res, _pa.Table):
            res = res.to_pandas()
        return res

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            s = df[c]
            if s.dtype.kind == "M":
                df[c] = s.astype("datetime64[us]").astype("int64")
        return df.sort_values(by=list(df.columns), ignore_index=True)

    def value_hash(df: pd.DataFrame) -> str:
        h = hashlib.sha256()
        for c in df.columns:
            s = df[c]
            if s.dtype.kind == "f" or str(s.dtype) in ("Float64",):
                vals = ["∅" if pd.isna(x) else f"{float(x):.12g}" for x in s]
            else:
                vals = ["∅" if (x is None or (not isinstance(x, (list, np.ndarray)) and pd.isna(x))) else str(x) for x in s]
            h.update(("\x1f".join(vals) + "\x1e").encode())
        return h.hexdigest()

    results: dict[str, dict] = {}
    for name in pool:
        row = {"rows_match": None, "schema_match": None, "hash_match": None,
               "spark_rows": None, "oracle_rows": None, "err": None}
        try:
            rdf = canon(to_df(QUERIES[name](sf_dir)))
            row["spark_rows"] = int(len(rdf))
            if name in ORACLE_SQL:
                # golden-backed oracles: this harness KNOWS the sf, so read
                # the per-sf golden subtree directly instead of the
                # 'current' symlink (immune to a concurrent run at another
                # sf repointing it between materialization and execution)
                from pdf_watermark_removal_otsu_inpaint_ray.oracle_data import (
                    GOLDEN_QUERIES, golden_sql,
                )

                sql = (golden_sql(name, sf_dir) if name in GOLDEN_QUERIES
                       else ORACLE_SQL[name])
                odf = canon(con.execute(sql).fetchdf())
                row["oracle_rows"] = int(len(odf))
                row["rows_match"] = len(rdf) == len(odf)
                row["schema_match"] = list(rdf.columns) == list(odf.columns)
                row["hash_match"] = (
                    row["rows_match"]
                    and row["schema_match"]
                    and value_hash(rdf) == value_hash(odf)
                )
            else:
                row["rows_match"] = row["spark_rows"] >= 0  # rows-only check
        except Exception as err:  # noqa: BLE001 — per-query isolation
            row["err"] = f"{type(err).__name__}: {err}"[:400]
        results[name] = row
        status = ("ERR" if row["err"] else
                  "green" if row.get("hash_match") else
                  "rows-only" if name not in ORACLE_SQL and row["rows_match"]
                  else "FAIL")
        print(f"[parity] {name}: {status}", file=sys.stderr)
    ray.shutdown()
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)
    n_green = sum(1 for r in results.values() if r.get("hash_match"))
    n_rows_only = sum(
        1 for n, r in results.items()
        if n not in ORACLE_SQL and r["rows_match"] and not r["err"]
    )
    n_bad = len(results) - n_green - n_rows_only
    print(json.dumps({"metric": "parity", "sf": sf_dir, "n": len(results),
                      "hash_green": n_green, "rows_only_green": n_rows_only,
                      "failed": n_bad, "out": out_path}))


def scaling_streaming() -> None:
    """Two-level scaling of the STATEFUL tier
    (run_streaming_salted_partitioned, sink-direct) — same protocol as --scaling: fresh processes per
    parallelism level on the same cached, page-warm stream."""
    lo_cpus = int(os.environ.get("GRAFT_SCALE_LO", "2"))
    hi_cpus = int(os.environ.get("GRAFT_SCALE_HI", "8"))

    os.environ.setdefault("GRAFT_STREAM_SOURCES", "64")

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_ROWS=str(SCALING_ROWS),
            GRAFT_STREAMING_ONLY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ensure_stream(SCALING_ROWS)
    ray.shutdown()

    os.sync()
    lo = run(lo_cpus)
    os.sync()
    hi = run(hi_cpus)
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (hi_cpus / lo_cpus)
    print(
        json.dumps(
            {
                "metric": (
                    f"scaling efficiency {lo_cpus}->{hi_cpus} cpus "
                    "(streaming_partitioned_sink)"
                ),
                "cpus": [lo_cpus, hi_cpus],
                "sec_lo": t_lo,
                "sec_hi": t_hi,
                "rows_per_sec_lo": lo["rows_per_sec"],
                "rows_per_sec_hi": hi["rows_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "bench_rows": hi["bench_rows"],
            }
        )
    )


if __name__ == "__main__":
    if "--scaling-kernel" in sys.argv:
        kernel_scaling()
    elif "--scaling-streaming" in sys.argv:
        scaling_streaming()
    elif "--scaling" in sys.argv:
        scaling()
    elif "parity" in sys.argv[1:2]:
        parity()
    else:
        main()
