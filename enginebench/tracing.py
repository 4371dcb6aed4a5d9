"""Measurement from outside the engine: ``/proc`` counters and Ray's timeline.

Nothing here changes the engine.  Process figures come from ``/proc`` for
the benchmark process and every Ray process it started; layer busy times
come from the spans Ray already records for every task and actor method
(``ray.timeline()``).
"""

from __future__ import annotations

import os
import re
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 onward)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    return s[s.rindex(")") + 2 :].split()


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def descendants(root: int | None = None) -> list[int]:
    """Every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        if st is not None:
            children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def is_worker(pid: int) -> bool:
    """Ray worker and actor processes run ``default_worker.py`` and retitle
    themselves ``ray::<name>`` once started."""
    cmd = _cmdline(pid)
    return cmd.startswith("ray::") or "default_worker.py" in cmd


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def cpu_seconds(pid: int) -> float:
    st = _stat(pid)
    return (int(st[11]) + int(st[12])) / _TICK if st else 0.0


def system_cpu_seconds() -> dict[int, float]:
    """utime+stime per Ray system process (GCS, raylet, agents, monitors)."""
    return {p: cpu_seconds(p) for p in descendants() if not is_worker(p)}


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two snapshots by processes in both."""
    return sum(after[p] - before[p] for p in before.keys() & after.keys())


def machine_cpu_ticks() -> list[int]:
    """The machine-wide cpu line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal, ..."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the cpu time this guest wanted that the host gave to others."""
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6]
    return d[7] / (busy + d[7]) if busy + d[7] else 0.0


class StealClock:
    """Wall time scaled by the share of its CPU time the host gave this
    guest.  The guest shares its host with others; the time the host steals
    from it moves from run to run with their load, not with the engine."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.ticks0 = machine_cpu_ticks()

    def read(self) -> tuple[float, float]:
        """(wall seconds, wall seconds less the stolen share) since start."""
        wall = time.perf_counter() - self.t0
        return wall, wall * (1.0 - steal_share(self.ticks0, machine_cpu_ticks()))


def process_age_s() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - int(_stat(os.getpid())[19]) / _TICK


class RssSampler:
    """Peak total RSS of this process plus its Ray workers, sampled in a
    thread.  Actor processes exit when their streaming call returns, so the
    peak must be taken while the call runs."""

    def __init__(self, period_s: float = 0.2):
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        pids = [os.getpid()] + [p for p in descendants() if is_worker(p)]
        self.peak = max(self.peak, sum(rss_bytes(p) for p in pids))

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def wait_gone(pids: list[int], timeout_s: float = 10.0) -> list[str]:
    """Wait until every pid has exited; kill what is left at the timeout and
    return the command lines of the processes killed."""
    deadline = time.monotonic() + timeout_s
    live = list(pids)
    while live:
        for p in live:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        live = [p for p in live if (_stat(p) or ["Z"])[0] != "Z"]
        if not live or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    killed = []
    for p in live:
        cmd = _cmdline(p)
        try:
            os.kill(p, 9)
            killed.append(cmd[:100])
        except ProcessLookupError:
            pass
    return killed


# ---------------------------------------------------------------------------
# timeline attribution
# ---------------------------------------------------------------------------

# layer -> pattern on the span category ("task::<Class>.<method>" or
# "task::<function>"), matched from the start
BUSY = {
    "sinks.exactly_once.finalize_busy_s": r"task::_finalize_partition$",
    "state.keyed_state.ingest_busy_s": r"task::KeyedStateActor\.ingest(_partial)?$",
    "state.keyed_state.finalize_busy_s": r"task::KeyedStateActor\.(finalize_windows|flush|sink_flush)$",
    "state.keyed_state.checkpoint_busy_s": r"task::KeyedStateActor\.checkpoint_state$",
    "pipelines.streaming.consumer_busy_s": r"task::_consume_\w*partition$",
    "pipelines.streaming.aggregator_busy_s": r"task::_SaltedAggregator\.",
    "transfer.arg_deserialize_s": r"task:deserialize_arguments$",
}
COUNT = {
    "state.keyed_state.ingest_calls": r"task::KeyedStateActor\.ingest(_partial)?$",
    "pipelines.streaming.remote_calls": r"task::",
}


def spans_in(events: list[dict], t0: float, t1: float) -> list[dict]:
    """Timeline events that start inside the wall-clock window [t0, t1]."""
    lo, hi = t0 * 1e6, t1 * 1e6
    return [e for e in events if lo <= e["ts"] <= hi]


def count(spans: list[dict], pattern: str) -> int:
    rx = re.compile(pattern)
    return sum(1 for e in spans if rx.match(e["cat"]))


def attribute(spans: list[dict]) -> dict[str, float]:
    """Busy seconds and span counts per layer."""
    out: dict[str, float] = {}
    for name, pattern in BUSY.items():
        rx = re.compile(pattern)
        out[name] = sum(e["dur"] for e in spans if rx.match(e["cat"])) / 1e6
    for name, pattern in COUNT.items():
        out[name] = float(count(spans, pattern))
    return out


def coverage(spans: list[dict], t0: float, t1: float) -> float:
    """Share of the wall window covered by the union of task spans."""
    iv = sorted(
        (e["ts"], e["ts"] + e["dur"]) for e in spans if e["cat"].startswith("task::")
    )
    covered, end = 0.0, t0 * 1e6
    for a, b in iv:
        a, b = max(a, end), min(b, t1 * 1e6)
        if b > a:
            covered += b - a
            end = b
    return covered / ((t1 - t0) * 1e6)
