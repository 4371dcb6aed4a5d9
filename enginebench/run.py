"""Engine benchmark: one workload per run, end to end or traced per layer.

    python3 enginebench/run.py --workload stream_keyed_ckpt --seed 1 \
        --seconds 6 --trace 0

Run from the repository root.  The run generates (or loads from its cache)
the seeded input, sets Ray up several times and keeps the last session,
repeats the workload's job until ``--seconds`` have passed, checks every
committed output, and prints one JSON object as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".enginebench"  # inputs cache, sink outputs, Ray session files
N_SETUPS = 2
WARMUP_ROWS = 512
NUM_CPUS = 1  # Ray's cpu count for every run, whatever the machine has
RAY_TMP_MAX = 40  # Ray's socket paths under its temp dir must stay < 108 bytes


# every metric a run prints, with its unit (BENCHMARK.json lists the same)
E2E_UNITS = {"rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "floor.ray_init_s": "s",
    "floor.warmup_s": "s",
    "sources.parquet.scan_s": "s",
    "stages.kernels.hist_mpos_per_s": "Mpos/s",
    "stages.kernels.rewrite_mpos_per_s": "Mpos/s",
    "stages.detect.wm_table_s": "s",
    "pipelines.flagship.rewrite_s": "s",
    "sinks.exactly_once.write_s": "s",
    "sinks.exactly_once.finalize_busy_s": "s",
    "sinks.exactly_once.committed_mb": "MB",
    "state.keyed_state.ingest_busy_s": "s",
    "state.keyed_state.finalize_busy_s": "s",
    "state.keyed_state.checkpoint_busy_s": "s",
    "state.keyed_state.ingest_calls": "count",
    "pipelines.streaming.driver_cpu_s": "s",
    "pipelines.streaming.consumer_busy_s": "s",
    "pipelines.streaming.aggregator_busy_s": "s",
    "pipelines.streaming.remote_calls": "count",
    "transfer.arg_deserialize_s": "s",
    "ray.system_cpu_s": "s",
    "trace.rows_per_s": "rows/s",
    "trace.span_coverage": "share",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Rep:
    seconds: float  # wall time less the share the host stole (tracing.StealClock)
    wall_s: float
    driver_cpu_s: float
    result: object = None  # workloads.JobResult, None when the job raised
    out_dir: str = ""
    passed: bool = False  # the job returned and its output passed the checks


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=None, help="override the workload's input size")
    return p.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_stamp() -> dict:
    """Machine state at the start of the run: a record, not a metric."""
    import numpy as np

    x = np.random.default_rng(0).random(1 << 20)
    probe = []
    for _ in range(3):
        t = time.perf_counter()
        np.sort(x)
        probe.append(time.perf_counter() - t)
    return {
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "cpu_probe_ms": round(min(probe) * 1e3, 2),
        "git_sha": git_sha(),
        "cpus": len(os.sched_getaffinity(0)),
        "ray_cpus": NUM_CPUS,
    }


def cached_input(wl, seed: int, rows: int) -> Path:
    """Seeded input directory, generated once per (seed, rows, sources)."""
    from workloads import write_input

    path = WORK / "inputs" / f"seed{seed}-rows{rows}-src{wl.n_sources}"
    if not path.exists():
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        write_input(str(tmp), rows, seed, wl.n_sources)
        os.replace(tmp, path)
    return path


def read_input(path: Path):
    import pyarrow.parquet as pq

    return pq.read_table(sorted(str(p) for p in path.glob("*.parquet")))


class RaySession:
    """One Ray session of ``NUM_CPUS`` cpus; ``close`` stops every process
    it started and removes its session files."""

    def __init__(self, ray, trace_mod):
        self.ray, self.trace = ray, trace_mod
        kw = {}
        tmp = WORK / "ray"
        if len(str(tmp)) <= RAY_TMP_MAX:
            tmp.mkdir(parents=True, exist_ok=True)
            kw["_temp_dir"] = str(tmp)
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=512 << 20,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            **kw,
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()

    def close(self) -> None:
        pids = self.trace.descendants()
        t = time.perf_counter()
        self.ray.shutdown()
        killed = self.trace.wait_gone(pids)
        log(f"ray down in {time.perf_counter() - t:.2f} s; killed {killed}")
        shutil.rmtree(self.session_dir, ignore_errors=True)


def run_job(tr, wl, src: Path, out_dir: Path) -> Rep:
    shutil.rmtree(out_dir, ignore_errors=True)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    clock = tr.StealClock()
    try:
        res = wl.job(wl, str(src), str(out_dir))
    except Exception:
        log(f"{wl.name}: job failed\n{traceback.format_exc()}")
        res = None
    wall, dt = clock.read()
    ru2 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru2.ru_utime - ru.ru_utime) + (ru2.ru_stime - ru.ru_stime)
    log(f"{wl.name} job on {src.name}: {wall:.3f} s wall, {dt:.3f} s not stolen")
    return Rep(dt, wall, cpu, res, str(out_dir))


def committed_bytes(out_dir: str) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).glob("part=*/data.parquet"))


@dataclass
class Timed:
    """What the timed region measured."""

    reps: list
    t0: float  # wall clock at its start and end
    t1: float
    peak_rss: int  # 0 unless sampled
    system_cpu_s: float
    steal_share: float


def set_up(ray, tr, wl, warm: Path, out_root: Path):
    """Ray up plus a warm-up job, ``N_SETUPS`` times; the last session stays
    up.  Returns it with the Ray init and warm-up times of every set-up."""
    session, inits, warms = None, [], []
    try:
        for i in range(N_SETUPS):
            if session is not None:
                session.close()
                session = None
            clock = tr.StealClock()
            session = RaySession(ray, tr)
            inits.append(clock.read()[1])
            rep = run_job(tr, wl, warm, out_root / f"warmup-{i}")
            shutil.rmtree(rep.out_dir, ignore_errors=True)
            if rep.result is None:
                raise RuntimeError("warm-up job failed")
            warms.append(rep.seconds)
    except BaseException:
        if session is not None:
            session.close()
        raise
    return session, inits, warms


def run_timed(tr, wl, src: Path, out_root: Path, seconds: float, sample_rss: bool) -> Timed:
    """Repeat the job until ``seconds`` have passed (at least once).  The RSS
    sampler's thread would add its CPU to ``driver_cpu_s``, so it runs only
    when asked."""
    reps: list[Rep] = []
    sys_cpu0 = tr.system_cpu_seconds()
    ticks0 = tr.machine_cpu_ticks()
    with tr.RssSampler() if sample_rss else contextlib.nullcontext() as rss:
        t0 = time.time()
        deadline = time.perf_counter() + seconds
        while not reps or time.perf_counter() < deadline:
            reps.append(run_job(tr, wl, src, out_root / f"rep-{len(reps)}"))
        t1 = time.time()
    return Timed(
        reps, t0, t1, rss.peak if sample_rss else 0,
        tr.cpu_delta(sys_cpu0, tr.system_cpu_seconds()),
        tr.steal_share(ticks0, tr.machine_cpu_ticks()),
    )


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(BENCH), str(ROOT)]
    import tracing as tr

    import_clock = tr.StealClock()
    # Ray workers import the engine from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if args.trace:
        # flush task events often, so the spans of actors that exit at the
        # end of each streaming call reach the timeline
        os.environ["RAY_task_events_report_interval_ms"] = "100"
    try:
        import ray

        from check import check_output, golden_slice, read_committed
        from workloads import WORKLOADS
    except ImportError as e:
        log(f"cannot import the engine: {e}")
        return 2
    # process age at this point, less the share the host stole while importing
    stolen = tr.steal_share(import_clock.ticks0, tr.machine_cpu_ticks())
    import_s = tr.process_age_s() * (1.0 - stolen)
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]
    if args.rows:
        wl = replace(wl, rows=args.rows)

    stamp = load_stamp()
    src = cached_input(wl, args.seed, wl.rows)
    warm = cached_input(wl, args.seed, WARMUP_ROWS)
    inp = read_input(src)
    expected = golden_slice(inp, wl.cfg, args.seed)
    out_root = WORK / "out" / str(os.getpid())
    try:
        session, inits, warms = set_up(ray, tr, wl, warm, out_root)
        try:
            timed = run_timed(tr, wl, src, out_root, args.seconds, sample_rss=not args.trace)
            # output checks, outside the timed region
            wrong, sizes = 0, []
            for i, rep in enumerate(r for r in timed.reps if r.result is not None):
                bad = check_output(
                    read_committed(rep.out_dir), rep.result.n_late, inp, expected, wl.cfg
                )
                sizes.append(committed_bytes(rep.out_dir))
                shutil.rmtree(rep.out_dir, ignore_errors=True)
                rep.passed = not bad
                if bad:
                    log(f"{wl.name} repetition {i}: " + "; ".join(bad))
                    wrong += 1
            good = [r for r in timed.reps if r.passed]
            rows_per_s = statistics.median(wl.rows / r.seconds for r in good) if good else 0.0
            if args.trace:
                metrics = traced_metrics(
                    ray, tr, wl, src, inp, out_root, timed, inits, warms, sizes, rows_per_s
                )
            else:
                values = {
                    "rows_per_s": rows_per_s,
                    "setup_s": statistics.median(import_s + i + w for i, w in zip(inits, warms)),
                    "peak_rss_mb": timed.peak_rss / 2**20,
                }
                metrics = {k: (values[k], unit) for k, unit in E2E_UNITS.items()}
        finally:
            session.close()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted, failed = len(timed.reps), len(timed.reps) - len(good)
    wall_rows_per_s = statistics.median(wl.rows / r.wall_s for r in good) if good else 0.0
    stamp.update(
        steal_share=round(timed.steal_share, 3),
        wall_rows_per_s=round(wall_rows_per_s, 1),
        attempted=attempted,
        failed=failed,
    )
    print("load_stamp " + json.dumps(stamp), flush=True)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


def traced_metrics(
    ray, tr, wl, src, inp, out_root, timed: Timed, inits, warms, sizes, rows_per_s
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per repetition of the job."""
    import probes

    reps = timed.reps
    ran = [r for r in reps if r.result is not None]
    good = [r for r in reps if r.passed]
    time.sleep(1.0)  # let the last task events reach the GCS
    spans = tr.spans_in(ray.timeline(), timed.t0, timed.t1)
    # Ray keeps a bounded number of task events: every finalize task and
    # every actor's sink flush must have a span, or the timeline is partial
    want_fin = sum(r.result.finalize_tasks for r in ran)
    got_fin = tr.count(spans, r"task::_finalize_partition$")
    want_flush = wl.n_actors * len(ran)
    got_flush = tr.count(spans, r"task::KeyedStateActor\.sink_flush$")
    if got_fin != want_fin or got_flush != want_flush:
        raise RuntimeError(
            f"Ray timeline truncated: {got_fin}/{want_fin} finalize spans, "
            f"{got_flush}/{want_flush} sink_flush spans"
        )
    layers = {k: v / len(reps) for k, v in tr.attribute(spans).items()}
    stream = wl.n_actors > 0
    if not stream:  # the flagship runs no state actor or streaming loop
        for k in layers:
            if k.startswith(("state.", "pipelines.streaming.")):
                layers[k] = 0.0
    layers["pipelines.streaming.driver_cpu_s"] = (
        statistics.median(r.driver_cpu_s for r in good) if stream and good else 0.0
    )
    layers["floor.ray_init_s"] = statistics.median(inits)
    layers["floor.warmup_s"] = statistics.median(warms)
    layers["ray.system_cpu_s"] = timed.system_cpu_s / len(reps)
    layers["sinks.exactly_once.committed_mb"] = statistics.median(sizes) / 2**20 if sizes else 0.0
    layers["trace.rows_per_s"] = rows_per_s
    layers["trace.span_coverage"] = tr.coverage(spans, timed.t0, timed.t1)

    from pdf_watermark_removal_otsu_inpaint_ray.sources.parquet import read_sequences
    from pdf_watermark_removal_otsu_inpaint_ray.stages.detect import compute_wm_table

    wm = compute_wm_table(read_sequences(str(src)), wl.cfg)
    layers.update(probes.kernels(inp, wm, wl.cfg))
    if stream:  # the streams run no Ray Data read, phase-1 job or batch sink
        layers.update(dict.fromkeys(probes.FLAGSHIP_PHASES, 0.0))
    else:
        layers.update(probes.flagship_phases(str(src), wl.cfg, wl.rows, str(out_root)))
    return {k: (layers[k], unit) for k, unit in PER_LAYER_UNITS.items()}

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
