"""Command-line entry point + driver-side config parsers (M14/M15).

Engine analog of the reference CLI (cli.py:370-1100): parse config, build
the pipeline, run, summarize.  The interactive color/QR selection flows are
driver/UI concerns and are not ported (SURVEY.md non-goals); their batch
equivalents are ``--wm-token`` (fixed token override) and the motif
removal-category flags.

Usage::

    python -m pdf_watermark_removal_otsu_inpaint_ray run \
        --input /path/seqs --output /tmp/out \
        [--window tumbling --window-size 64 --rows 1,5,10-20 \
         --wm-token 150 --method auto --passes 2 --streaming]
"""

from __future__ import annotations

import argparse
import json


def parse_rows(spec: str) -> list[int]:
    """``"1,3,5-10"`` → sorted unique ints (M14, reference cli.py:112-171).

    Selections are 1-indexed like the reference's page numbers; validation
    mirrors the reference (empty / malformed / reversed ranges rejected).
    """
    if not spec or not spec.strip():
        raise ValueError("empty row spec")

    def _num(s: str) -> int:
        # strict decimal: int() alone would accept Python literal quirks
        # like '1_0' or '+5' and silently select the wrong rows
        if not (s.isascii() and s.isdigit()):
            raise ValueError(f"bad row number {s!r}")
        return int(s)

    out: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty segment in row spec {spec!r}")
        if "-" in part:
            lo_s, _, hi_s = part.partition("-")
            lo, hi = _num(lo_s), _num(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError(f"bad range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            v = _num(part)
            if v < 1:
                raise ValueError(f"bad row number {part!r}")
            out.add(v)
    return sorted(out)


def parse_wm_token(spec: str, gray_mod: int = 256) -> int:
    """``"150"`` or ``"r,g,b"`` → watermark token (M15, cli.py:174-197).

    An r,g,b triple maps to its mean gray (stats.py:316 luminance analog is
    intentionally NOT used — the reference takes the channel mean,
    watermark_detector.py:439)."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) == 1:
        v = int(parts[0])
    elif len(parts) == 3:
        vals = [int(p) for p in parts]
        if any(not (0 <= x < gray_mod) for x in vals):
            raise ValueError(f"channel out of range in {spec!r}")
        v = int(sum(vals) / 3)
    else:
        raise ValueError(f"bad token spec {spec!r} (want T or R,G,B)")
    if not (0 <= v < gray_mod):
        raise ValueError(f"token {v} out of [0, {gray_mod})")
    return v


def build_config(args) -> "EngineConfig":
    from .config import DEFAULT_CONFIG
    from .registry import _DETECTORS

    if args.method not in _DETECTORS:
        raise SystemExit(
            f"unknown --method {args.method!r}; registered detectors: "
            f"{', '.join(sorted(_DETECTORS))}"
        )
    cfg = DEFAULT_CONFIG.with_(
        window_kind=args.window,
        window_size=args.window_size,
        window_slide=args.window_slide,
        session_gap=args.session_gap,
        allowed_lateness=args.lateness,
        detection_method=args.method,
        tolerance=args.tolerance,
        kernel_size=args.kernel_size,
        strength=args.strength,
        passes=args.passes,
    )
    if args.wm_token:
        cfg = cfg.with_(fixed_wm_token=parse_wm_token(args.wm_token, cfg.gray_mod))
    if args.preset:
        from . import registry

        try:
            cfg = registry.apply_preset(args.preset, cfg)
        except KeyError:
            raise ValueError(
                f"unknown preset {args.preset!r} "
                "(want electronic | scanned | mixed | electronic-color)"
            ) from None
    return cfg


def select_rows_file(input_path: str, rows: list[int]) -> str:
    """Materialize the 1-indexed selected rows to a temp parquet file.

    Position = the input's STORAGE order (files in lexicographic order, rows
    in file order — the same log order the streaming reader uses), exactly
    like the reference's 1-indexed page numbers index the PDF's page order
    (cli.py:112-171).  Stops reading at the highest selected position, so
    the scan cost is bounded by max(rows), not the stream length."""
    import os
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_

    paths = (
        sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
        if os.path.isdir(input_path)
        else [input_path]
    )
    wanted = np.asarray(rows, dtype=np.int64)
    mx = int(wanted.max())
    taken: list[pa.Table] = []
    pos = 0
    for path in paths:
        pf = pq_.ParquetFile(path)
        for rb in pf.iter_batches(batch_size=8192):
            t = pa.Table.from_batches([rb])
            idx = np.nonzero(np.isin(pos + 1 + np.arange(t.num_rows), wanted))[0]
            if idx.size:
                taken.append(t.take(pa.array(idx)))
            pos += t.num_rows
            if pos >= mx:
                break
        if pos >= mx:
            break
    sel = pa.concat_tables(taken) if taken else None
    if sel is None or sel.num_rows == 0:
        raise ValueError(f"row spec selects nothing: input has {pos} rows")
    fd, tmp = tempfile.mkstemp(suffix=".parquet", prefix="graft_rows_")
    os.close(fd)
    pq_.write_table(sel, tmp)
    return tmp


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="pdf_watermark_removal_otsu_inpaint_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the flagship pipeline")
    r.add_argument("--input", required=True, help="sequence parquet file/dir")
    r.add_argument("--output", required=True, help="exactly-once sink dir")
    r.add_argument("--window", default="tumbling",
                   choices=["tumbling", "sliding", "session", "global"])
    r.add_argument("--window-size", type=int, default=64)
    r.add_argument("--window-slide", type=int, default=32)
    r.add_argument("--session-gap", type=int, default=16)
    r.add_argument("--lateness", type=int, default=16)
    # any registered detector name is accepted (registry dispatch, §2.10);
    # "learned" is the built-in T3 LUT detector (the reference's yolo path,
    # watermark_detector.py:72-126).  Validated at run time against the
    # registry so user-registered detectors work without a CLI change.
    r.add_argument("--method", default="color",
                   help="detector name: color | auto | learned | any registered")
    r.add_argument("--tolerance", type=int, default=30)
    r.add_argument("--kernel-size", type=int, default=3)
    r.add_argument("--strength", type=float, default=1.0)
    r.add_argument("--passes", type=int, default=1)
    r.add_argument("--wm-token", default=None, help="fixed token T or R,G,B")
    r.add_argument("--preset", default=None,
                   help="electronic | scanned | mixed | electronic-color")
    r.add_argument("--rows", default=None,
                   help="1-indexed row spec 1,3,5-10 (input storage order)")
    r.add_argument("--partitions", type=int, default=None,
                   help="sink partition count (default: 32 scaled to "
                        "cluster CPUs; pinned per sink dir for resume)")
    r.add_argument("--streaming", action="store_true",
                   help="incremental engine (single read, keyed state actors)")
    r.add_argument("--streaming-topology", default="single",
                   choices=("single", "salted"),
                   help="streaming only: single (one consumer, keyed "
                        "actors, checkpointable), salted (one consumer "
                        "per input file-partition + salted actors — the "
                        "hot-source scale path)")
    r.add_argument("--checkpoint-every", type=int, default=None,
                   help="streaming topology=single only: snapshot actor "
                        "state every N micro-batches; a rerun resumes "
                        "from the last checkpoint replaying only the log "
                        "tail (the salted topology recovers by whole-run "
                        "replay against the exactly-once sink)")
    r.add_argument("--overwrite", action="store_true",
                   help="recommit over an existing output dir instead of "
                        "resuming (skipping already-committed partitions)")
    args = p.parse_args(argv)

    import sys as _sys

    from .i18n import t

    def summary(*lines: str) -> None:  # localized, on stderr; stdout stays JSON
        for line in lines:
            print(line, file=_sys.stderr)

    try:
        cfg = build_config(args)
        if args.rows:
            parse_rows(args.rows)  # fail fast on a malformed spec
    except (ValueError, KeyError) as err:
        print(t("error", err=err), file=_sys.stderr)
        return 2

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        # no explicit address: ray.init() honors RAY_ADDRESS, so the SAME
        # entrypoint works standalone (RAY_ADDRESS=local in this sandbox)
        # and under `ray job submit` on a multi-node cluster (the job
        # runner injects the cluster address — hardcoding "local" there
        # would silently start a one-node Ray beside the real cluster)
        ray.init(include_dashboard=False, logging_level="ERROR")
    sel_tmp = None
    try:
        import os as _os
        import shutil as _shutil

        if args.overwrite:
            _shutil.rmtree(args.output, ignore_errors=True)
        else:
            from .sinks.exactly_once import committed_partitions

            already = len(committed_partitions(args.output))
            if already:
                # resuming is the intended default, but never silently: a
                # rerun with DIFFERENT input into the same dir would keep
                # the stale committed partitions
                summary(t("resume_notice", parts=already))
            ckdir = _os.path.join(args.output, "_checkpoints")
            if _os.path.isdir(ckdir) and _os.listdir(ckdir):
                # same never-silently rule for streaming state checkpoints
                # (the engine validates cfg/source fingerprints and raises
                # on mismatch, but an intentional resume should be visible)
                summary(f"[resume] streaming checkpoint found under {ckdir}; "
                        "resuming from the latest snapshot")
        from .config import scaled_parts
        from .sinks.exactly_once import pinned_partitions

        # CLI base 32 (the tuned dev-box default), scaled to the cluster;
        # resolved AFTER ray.init so cluster_resources() sees the real
        # size.  A RESUMED sink adopts its pinned layout count first —
        # re-deriving from a changed cluster would trip the layout guard
        # instead of resuming (an explicit --partitions still wins, and a
        # mismatched explicit value still fails loudly).
        if args.partitions is None:
            args.partitions = pinned_partitions(args.output)
        args.partitions = scaled_parts(32, args.partitions)
        run_input = args.input
        if args.rows:
            # materialize the selected rows once (storage order, 1-indexed)
            # so BOTH engines see the identical filtered stream
            sel_tmp = select_rows_file(args.input, parse_rows(args.rows))
            run_input = sel_tmp
        if args.streaming:
            if args.streaming_topology != "single" and args.checkpoint_every is not None:
                raise SystemExit(
                    "--checkpoint-every requires "
                    "--streaming-topology single (the salted topology "
                    "recovers by whole-run replay)"
                )
            if args.streaming_topology == "salted":
                from .pipelines.streaming import (
                    run_streaming_salted_partitioned,
                )

                res, _metrics = run_streaming_salted_partitioned(
                    run_input, cfg, out_dir=args.output,
                    num_partitions=args.partitions,
                )
            else:
                from .pipelines.streaming import run_streaming

                res = run_streaming(run_input, cfg, out_dir=args.output,
                                    num_partitions=args.partitions,
                                    checkpoint_every=args.checkpoint_every)
            # sink mode: rows staged by the actors; output lives under
            # --output (res.output is None by design)
            rows = sum(s["n_emitted"] for s in res.actor_stats)
            committed = (
                res.commit_report.num_rows if res.commit_report is not None else 0
            )
            print(json.dumps({"rows": rows, "late": res.n_late,
                              "partitions": committed}))
            summary(t("streaming_mode"), t("completed"),
                    t("rows_processed", rows=rows),
                    t("late_rows", late=res.n_late),
                    t("output_saved", path=args.output))
        else:
            from .pipelines.flagship import run_flagship
            from .sinks.exactly_once import write_exactly_once
            from .sources import read_sequences

            ds = read_sequences(run_input)
            out = run_flagship(ds, cfg)
            report = write_exactly_once(out, args.output, num_partitions=args.partitions)
            from .stats import manifest_metrics

            m = manifest_metrics(args.output)
            print(json.dumps({"partitions": m["partitions"], "rows": m["total_rows"]}))
            summary(t("batch_mode"), t("completed"),
                    t("rows_processed", rows=m["total_rows"]),
                    t("partitions_committed", parts=m["partitions"]),
                    t("output_saved", path=args.output))
        return 0
    finally:
        if sel_tmp is not None:
            import os as _os2

            try:
                _os2.remove(sel_tmp)
            except OSError:
                pass
        if owns_ray:
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
