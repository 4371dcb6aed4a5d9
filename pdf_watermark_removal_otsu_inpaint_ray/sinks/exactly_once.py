"""Idempotent exactly-once Parquet sink with per-partition lineage manifests.

Engine analog of the reference's single-shot ``images_to_pdf`` writer
(pdf_processor.py:130-155), upgraded for distributed retry + resume
(SURVEY.md S4, §4.2):

* output layout: ``out_dir/part=K/data.parquet`` — one directory per
  hash(doc_id) partition (fixed P → stable layout for resume; never one
  giant file);
* commit protocol per partition: write temp file → fsync → atomic rename →
  write manifest JSON (temp + rename).  A replayed task that finds the
  manifest already committed skips all work (idempotent);
* rows are deduplicated by ``doc_id`` and sorted within the partition, so
  upstream replays cannot duplicate output and bytes are deterministic;
* resume: ``write_exactly_once`` drops rows of already-committed partitions
  before the shuffle, so a restarted job only processes the missing ones.

Exactly-once is verified by the kill-and-replay test (tests/test_sink.py):
a run aborted mid-write, then resumed, yields byte-identical output to an
uninterrupted run.
"""

from __future__ import annotations

from ..config import scaled_parts

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_HASH_MOD = (1 << 31) - 1
_HASH_BASE = 131
_POW_CACHE: dict[int, np.ndarray] = {}


def _pow_table(n: int) -> np.ndarray:
    cached = _POW_CACHE.get(0)
    if cached is None or cached.size < n:
        size = max(n, 4096)
        p = np.empty(size, dtype=np.int64)
        p[0] = 1
        for i in range(1, size):
            p[i] = (p[i - 1] * _HASH_BASE) % _HASH_MOD
        _POW_CACHE[0] = p
        cached = p
    return cached


def hash_partition_ids(doc_ids: pa.Array | pa.ChunkedArray, num_partitions: int) -> np.ndarray:
    """Vectorized deterministic partition id per doc_id: polynomial hash of
    the utf-8 bytes (mod 2^31-1) over the flattened string buffer — no
    per-row Python."""
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    if pa.types.is_integer(doc_ids.type):
        # integer row ids (the streaming-dedup layout) hash over their
        # decimal utf-8 form — same function, one deterministic mapping
        doc_ids = doc_ids.cast(pa.string())
    arr = doc_ids.cast(pa.binary())
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = np.diff(off)
    if lens.sum() == 0:
        return np.zeros(len(arr), dtype=np.int64)
    flat = data[off[0] : off[-1]].astype(np.int64)
    off0 = off - off[0]
    pos = np.arange(flat.size, dtype=np.int64) - np.repeat(off0[:-1], lens)
    term = (flat * _pow_table(int(lens.max()))[pos]) % _HASH_MOD
    # reduceat only over NON-EMPTY keys' starts: empty keys occupy zero
    # bytes, so clamping starts would truncate the last non-empty key's hash
    # whenever a batch ends with empty keys — making the same key's
    # partition depend on batch composition (breaks exactly-once dedup)
    nz = lens > 0
    h = np.zeros(len(arr), dtype=np.int64)
    h[nz] = np.add.reduceat(term, off0[:-1][nz]) % _HASH_MOD
    return h % num_partitions


def _manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "_manifests", f"part-{part:05d}.json")


def _fsync_dir(path: str) -> None:
    """fsync a DIRECTORY so a just-renamed entry survives power loss —
    without this the data/manifest renames are not crash-durable and could
    be reordered by the journal (manifest says committed, data file gone)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# out_dir -> (num_partitions, marker identity) of a validated layout marker
_LAYOUT_CACHE: dict[str, tuple[int, tuple[int, int] | None]] = {}


def _marker_id(marker: str) -> tuple[int, int] | None:
    try:
        st = os.stat(marker)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns


def pinned_partitions(out_dir: str) -> int | None:
    """The partition count recorded in ``out_dir``'s layout marker, or
    None for a fresh sink.  Default-resume paths should adopt this value:
    with cluster-derived partition defaults, a resume after a cluster-size
    change would otherwise derive a DIFFERENT count and hit the
    layout-mismatch guard below instead of resuming."""
    marker = os.path.join(out_dir, "_manifests", "_layout.json")
    try:
        with open(marker) as f:
            return int(json.load(f)["num_partitions"])
    except (OSError, ValueError, KeyError):
        return None


def _check_layout(out_dir: str, num_partitions: int) -> None:
    """Pin the sink's partition count in a layout marker: resuming with a
    DIFFERENT count would re-hash uncommitted rows into other partition ids
    while committed_partitions() still reflects the old ones — the same
    doc_id could then commit twice.  First writer records; later callers
    must match.  The per-process cache is keyed by the marker's identity:
    long-lived workers and pooled actors outlive a sink directory that is
    deleted and written afresh, and must then record and check again."""
    mdir = os.path.join(out_dir, "_manifests")
    marker = os.path.join(mdir, "_layout.json")
    if _LAYOUT_CACHE.get(out_dir) == (num_partitions, _marker_id(marker)):
        return
    os.makedirs(mdir, exist_ok=True)
    if not os.path.exists(marker):
        # atomic-exclusive publish via hard link: exactly ONE concurrent
        # first writer records the count (os.link fails with FileExistsError
        # for everyone else), and the marker only ever appears fully
        # written.  A check-then-replace would let two first writers both
        # pass with different counts — the exact corruption this marker
        # exists to prevent; losers fall through and validate against the
        # winner's value.
        tmp = f"{marker}.claim-{uuid.uuid4().hex}"
        with open(tmp, "wb") as f:
            f.write(json.dumps({"num_partitions": num_partitions}).encode())
            f.flush()
            os.fsync(f.fileno())
        try:
            os.link(tmp, marker)
        except FileExistsError:
            pass
        finally:
            os.remove(tmp)
    with open(marker) as f:
        existing = int(json.load(f)["num_partitions"])
    if existing != num_partitions:
        raise RuntimeError(
            f"sink {out_dir} was written with num_partitions={existing}; "
            f"resuming with {num_partitions} would break exactly-once "
            "(doc_ids re-hash across committed partitions)"
        )
    _LAYOUT_CACHE[out_dir] = (num_partitions, _marker_id(marker))


def committed_partitions(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "_manifests")
    out = set()
    if not os.path.isdir(mdir):
        return out
    for f in os.listdir(mdir):
        if f.startswith("part-") and f.endswith(".json"):
            try:
                with open(os.path.join(mdir, f)) as fh:
                    m = json.load(fh)
                if m.get("committed"):
                    out.add(int(m["partition_id"]))
            except (ValueError, OSError):
                continue
    return out


def _atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _commit_partition(
    out_dir: str,
    part: int,
    table: pa.Table,
    fail_partitions: frozenset[int],
    overwrite: bool = False,
) -> pa.Table:
    """Commit one partition: dedup by doc_id, stable sort, temp+fsync+rename,
    manifest.  Idempotent: a committed manifest short-circuits replays —
    unless ``overwrite`` (the resume=False path), which recommits over it
    (previously a non-resume rewrite staged fresh rows and then silently
    discarded them here, leaving stale output)."""
    mpath = _manifest_path(out_dir, part)
    if not overwrite and os.path.exists(mpath):
        with open(mpath) as f:
            if json.load(f).get("committed"):
                return _manifest_row(part, "skipped", 0)
    if part in fail_partitions:  # fault injection for the kill test
        raise RuntimeError(f"injected failure before commit of part {part}")
    table = table.sort_by("doc_id")
    ids = np.asarray(table["doc_id"].combine_chunks())
    keep = np.concatenate([[True], ids[1:] != ids[:-1]]) if len(ids) > 1 else np.ones(len(ids), bool)
    table = table.filter(pa.array(keep))

    pdir = os.path.join(out_dir, f"part={part:05d}")
    os.makedirs(pdir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "_manifests"), exist_ok=True)
    final = os.path.join(pdir, "data.parquet")
    tmp = f"{final}.tmp-{uuid.uuid4().hex}"
    pq.write_table(table, tmp)
    with open(tmp, "rb+") as f:
        os.fsync(f.fileno())
    os.replace(tmp, final)
    _fsync_dir(pdir)  # the DATA rename must be durable before the manifest
    fingerprint = f"{table.num_rows}:{int(hash_partition_ids(table['doc_id'], _HASH_MOD).sum())}"
    manifest = {
        "partition_id": part,
        "input_fingerprint": fingerprint,
        "output_file": final,
        "row_count": table.num_rows,
        "committed": True,
    }
    _atomic_write_bytes(mpath, json.dumps(manifest).encode())
    _fsync_dir(os.path.dirname(mpath))
    return _manifest_row(part, "committed", table.num_rows)


def _staged_dir(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "_staged", f"part={part:05d}")


def begin_epoch(out_dir: str) -> int:
    """Allocate a monotonically increasing staging epoch for one producing
    run.  Finalize keeps only the NEWEST epoch's staged rows per partition,
    so a crashed attempt whose pipeline replays nondeterministically (e.g.
    watermark-timing races in the streaming consumers deciding a borderline
    row main-vs-late differently) can never mix attempt-1 rows into an
    attempt-2 commit — the committed bytes are always those of a single
    attempt.  Call once per run, from the driver, before any staging."""
    mdir = os.path.join(out_dir, "_manifests")
    os.makedirs(mdir, exist_ok=True)
    path = os.path.join(mdir, "_epoch.json")
    cur = 0
    if os.path.exists(path):
        try:
            with open(path) as f:
                cur = int(json.load(f)["epoch"])
        except (ValueError, OSError, KeyError):
            cur = 0
    # the read-modify-write above is NOT atomic: two near-simultaneous
    # producers would both allocate cur+1 and finalize would merge the two
    # attempts' staged rows — the exact mixing epochs exist to prevent.
    # An O_EXCL claim file is the atomic arbiter: exactly one producer can
    # create _epoch-<n>.claim, the loser probes n+1.  (Concurrent STEADY
    # production into one layout is still one-live-producer-at-a-time by
    # contract; the claim makes crashed-attempt restarts race-free.)
    n = cur + 1
    while True:
        try:
            fd = os.open(
                os.path.join(mdir, f"_epoch-{n}.claim"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
            os.close(fd)
            break
        except FileExistsError:
            n += 1
    _atomic_write_bytes(path, json.dumps({"epoch": n}).encode())
    # claims STRICTLY below the published epoch are spent (the publish
    # supersedes them; our own claim n stays as the probe guard so a stale
    # unordered _epoch.json write from a dead producer can never cause n to
    # be re-allocated) — without cleanup every run leaves one file forever
    for f in os.listdir(mdir):
        if f.startswith("_epoch-") and f.endswith(".claim"):
            try:
                if int(f[7:-6]) < n:
                    os.remove(os.path.join(mdir, f))
            except (ValueError, OSError):
                continue
    return n


def _stage_epoch_of(fname: str) -> int:
    """Epoch encoded in a staged file name; legacy unepoched names → 0."""
    if fname.startswith("stage-e"):
        try:
            return int(fname[7 : fname.index("-", 7)])
        except ValueError:
            return 0
    return 0


def adopt_epoch(out_dir: str, epoch: int) -> None:
    """Record ``epoch`` as a layout's live staging epoch — used to keep a
    side layout (e.g. the late-data dir) in lockstep with the main layout's
    :func:`begin_epoch` allocation, so both judge staleness identically."""
    mdir = os.path.join(out_dir, "_manifests")
    os.makedirs(mdir, exist_ok=True)
    _atomic_write_bytes(
        os.path.join(mdir, "_epoch.json"), json.dumps({"epoch": int(epoch)}).encode()
    )


def _current_epoch(out_dir: str) -> int:
    """The layout's live staging epoch (0 when begin_epoch was never run —
    then every staged file is epoch 0 and nothing is discarded)."""
    path = os.path.join(out_dir, "_manifests", "_epoch.json")
    if not os.path.exists(path):
        return 0
    try:
        with open(path) as f:
            return int(json.load(f)["epoch"])
    except (ValueError, OSError, KeyError):
        return 0


def _finalize_partition(
    out_dir: str,
    part: int,
    fail_partitions: frozenset[int],
    overwrite: bool = False,
    epoch: int | None = None,
) -> pa.Table:
    """Merge a partition's staged files → sort/dedup → atomic commit.

    Only the run's staging epoch's files are merged (see
    :func:`begin_epoch`): leftovers from a crashed earlier attempt are
    deleted, not deduped in — a replayed pipeline need not be
    deterministic for the commit to reflect exactly one attempt, and a
    partition the current attempt never touched commits nothing rather
    than resurrecting the stale attempt's rows.

    ``epoch``: the epoch THIS run allocated via :func:`begin_epoch` —
    callers that have it must pass it (review finding: re-reading
    ``_epoch.json`` here is racy — two restarting producers' unordered
    publishes could make a finalize classify its own run's staged files
    as stale and commit the other attempt's leftovers).  ``None`` falls
    back to the published epoch for layouts staged by older code."""
    sdir = _staged_dir(out_dir, part)
    names = sorted(
        f for f in os.listdir(sdir) if f.endswith(".parquet")
    ) if os.path.isdir(sdir) else []
    cur = epoch if epoch is not None else _current_epoch(out_dir)
    files = [os.path.join(sdir, f) for f in names]
    live = [os.path.join(sdir, f) for f in names if _stage_epoch_of(f) == cur]
    if not live:
        for f in files:  # stale-only partition: drop the dead attempt
            os.remove(f)
        return _manifest_row(part, "empty", 0)
    data = pa.concat_tables([pq.read_table(f) for f in live])
    report = _commit_partition(out_dir, part, data, fail_partitions, overwrite=overwrite)
    for f in files:
        os.remove(f)
    try:
        os.rmdir(sdir)
    except OSError:
        pass
    return report


def stage_table(
    out_dir: str,
    table: pa.Table,
    num_partitions: int,
    done: frozenset[int] = frozenset(),
    epoch: int = 0,
) -> int:
    """Append one table to the staged layout: split by hash(doc_id), one
    parquet file per touched partition, atomic rename.  Safe from any
    process (map task or state actor — the sink dir is shared storage).
    Rows of already-committed partitions are dropped.  ``epoch`` tags the
    files with the producing run's staging epoch (:func:`begin_epoch`) so
    finalize can discard stale attempts.  Returns rows staged.

    Within-RUN task retries: a Ray task replayed mid-run stages its rows
    again under the SAME epoch; finalize's doc_id dedup then commits one
    copy, which is byte-correct iff the producing transform is
    deterministic per row (true of every batch pipeline in this engine —
    quantized, order-free kernels).  A NON-deterministic producer must not
    rely on task retries: disable them (the streaming consumers run with
    ``max_retries=0``) so recovery always goes through a fresh epoch."""
    _check_layout(out_dir, num_partitions)
    part = hash_partition_ids(table["doc_id"], num_partitions)
    if done:
        keep = ~np.isin(part, list(done))
        table = table.filter(pa.array(keep))
        part = part[keep]
    for p in np.unique(part):
        sub = table.filter(pa.array(part == p))
        sdir = _staged_dir(out_dir, int(p))
        os.makedirs(sdir, exist_ok=True)
        tmp = os.path.join(sdir, f".tmp-{uuid.uuid4().hex}")
        pq.write_table(sub, tmp)
        os.replace(tmp, os.path.join(sdir, f"stage-e{epoch:08d}-{uuid.uuid4().hex}.parquet"))
    return table.num_rows


def finalize_staged(
    out_dir: str,
    *,
    resume: bool = True,
    fail_partitions: frozenset[int] = frozenset(),
    epoch: int | None = None,
) -> pa.Table:
    """Commit every staged partition (one Ray task each) and return the
    per-partition report.  The driver only moves manifests — never rows.
    ``epoch``: the producing run's allocated staging epoch (pass it
    whenever the caller ran :func:`begin_epoch`; see
    :func:`_finalize_partition`)."""
    import ray

    done = committed_partitions(out_dir) if resume else set()
    sroot = os.path.join(out_dir, "_staged")
    all_parts = sorted(
        int(d.split("=")[1]) for d in os.listdir(sroot) if d.startswith("part=")
    ) if os.path.isdir(sroot) else []
    parts = [p for p in all_parts if p not in done]
    # stale stages of ALREADY-COMMITTED partitions (leftovers of a crashed
    # earlier attempt) are dead weight forever if left: their rows were
    # dropped source-side and finalize skips them — clean them up here
    import shutil as _sh

    for p in all_parts:
        if p in done:
            _sh.rmtree(_staged_dir(out_dir, p), ignore_errors=True)
    fin = ray.remote(num_cpus=1)(_finalize_partition)
    reports: list[pa.Table] = []
    errors: list[Exception] = []
    for p, ref in [
        (p, fin.remote(out_dir, p, fail_partitions, not resume, epoch)) for p in parts
    ]:
        try:
            reports.append(ray.get(ref))
        except Exception as e:  # let healthy partitions commit, then raise
            errors.append(e)
    if errors:
        raise errors[0]
    return pa.concat_tables(reports) if reports else _manifest_row(-1, "empty", 0).slice(0, 0)


def _manifest_row(part: int, status: str, rows: int) -> pa.Table:
    return pa.table(
        {
            "partition_id": pa.array([part], pa.int32()),
            "status": pa.array([status], pa.string()),
            "row_count": pa.array([rows], pa.int64()),
        }
    )


def write_exactly_once(
    ds,
    out_dir: str,
    *,
    num_partitions: int | None = None,
    num_writers: int | None = None,  # kept for API compat; staging is task-parallel
    stage_batch_size: int = 32768,
    resume: bool = True,
    fail_partitions: frozenset[int] = frozenset(),
) -> pa.Table:
    """Write a Dataset to the partitioned exactly-once layout.

    Two fully parallel phases, no actors, no sort shuffle:

    1. **stage** — each map task splits its batch by hash(doc_id) and
       appends one parquet file per touched partition under
       ``out_dir/_staged/part=K/`` (the sink directory is shared storage by
       definition — the same assumption every distributed sink makes).
    2. **finalize** — one Ray task per partition merges its staged files,
       sorts + dedups by doc_id, commits atomically (temp+fsync+rename+
       manifest) and deletes the stage.

    Returns the per-partition commit report.  With ``resume=True``, rows of
    already-committed partitions are dropped at the source side (a restarted
    job redoes only missing partitions); stale staged files from a crashed
    attempt are DISCARDED at finalize (epoch-tagged — see
    :func:`begin_epoch` — so the commit reflects exactly one attempt even
    when the replayed pipeline is not bit-deterministic).  With
    ``resume=False`` every partition that receives rows is RE-committed
    over any prior manifest (for a fully fresh layout, delete ``out_dir``).
    The partition count is pinned in a layout marker — resuming with a
    different ``num_partitions`` raises instead of silently re-hashing
    doc_ids across committed partitions, and resuming with none adopts
    the pinned count.
    ``fail_partitions`` is test-only fault injection (raise before commit).
    """
    if num_partitions is None:
        num_partitions = pinned_partitions(out_dir)
    num_partitions = scaled_parts(16, num_partitions)
    os.makedirs(out_dir, exist_ok=True)
    done = frozenset(committed_partitions(out_dir)) if resume else frozenset()
    epoch = begin_epoch(out_dir)

    def stage(batch: pa.Table) -> pa.Table:
        n = stage_table(out_dir, batch, num_partitions, done, epoch)
        return _manifest_row(-1, "staged", n)

    # large stage batches keep the staged-file count ~ (rows/batch) * P
    for _ in ds.map_batches(
        stage, batch_format="pyarrow", batch_size=stage_batch_size
    ).iter_batches():
        pass

    return finalize_staged(
        out_dir, resume=resume, fail_partitions=fail_partitions, epoch=epoch
    )


def late_dir(out_dir: str) -> str:
    """The late-data side-output layout nested under a sink dir (same
    staged/commit protocol as the main output)."""
    return os.path.join(out_dir, "_late")


def read_late(out_dir: str):
    """Read back the committed late-data side output of a sink-mode
    streaming run (raises FileNotFoundError when no late rows were
    committed)."""
    return read_output(late_dir(out_dir))


def read_output(out_dir: str):
    """Read back only committed partitions (a crashed run's torn temp files
    are invisible: data.parquet only appears via atomic rename)."""
    import ray.data

    parts = sorted(committed_partitions(out_dir))
    paths = [os.path.join(out_dir, f"part={p:05d}", "data.parquet") for p in parts]
    if not paths:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    return ray.data.read_parquet(paths)


def compact_output(
    src_dir: str,
    dst_dir: str,
    *,
    factor: int = 4,
    fail_partitions: frozenset[int] = frozenset(),
) -> pa.Table:
    """Small-files maintenance (the Iceberg/Hudi compaction analog): merge
    the committed N-partition layout at ``src_dir`` into an N//factor-
    partition layout at ``dst_dir``.

    Partition-id consistency is what makes this safe: with ``M | N``,
    ``hash(doc_id) % N % M == hash(doc_id) % M``, so destination partition
    ``j`` is exactly the union of source partitions ``{p : p % M == j}`` —
    the compacted layout is bit-identical to what a direct M-partition
    write of the same rows would have produced, and doc_id-hash routing
    (resume, dedup, late side outputs) keeps working unchanged.

    Crash-safety by construction instead of an in-place swap: the
    destination is a NEW directory built under the SAME manifest protocol
    — one Ray task per destination partition reads its ``factor`` source
    files, concatenates, and commits atomically; a crashed compaction is
    simply rerun and skips destination partitions that already committed
    (``fail_partitions`` is the test fault-injection hook).  The caller
    flips readers to ``dst_dir`` and deletes ``src_dir`` once the returned
    report shows every partition committed.  Requires a fully-committed
    source (compacting around holes would bake missing data into the new
    layout); raises when N % factor != 0.
    """
    import ray

    src_parts = sorted(committed_partitions(src_dir))
    n = len(src_parts)
    if n == 0:
        raise FileNotFoundError(f"no committed partitions under {src_dir}")
    if src_parts != list(range(n)):
        missing = sorted(set(range(max(src_parts) + 1)) - set(src_parts))
        raise RuntimeError(
            f"source layout incomplete (uncommitted partitions {missing}); "
            "finish or resume the producing job before compacting"
        )
    if factor < 1 or n % factor != 0:
        raise ValueError(
            f"factor {factor} must divide the source partition count {n} "
            "(hash(doc_id) % N % M == hash % M only when M | N)"
        )
    m = n // factor
    os.makedirs(dst_dir, exist_ok=True)
    _check_layout(dst_dir, m)
    done = committed_partitions(dst_dir)

    @ray.remote
    def compact_one(j: int) -> pa.Table:
        srcs = [
            os.path.join(src_dir, f"part={p:05d}", "data.parquet")
            for p in range(j, n, m)
        ]
        table = pa.concat_tables([pq.read_table(p) for p in srcs])
        return _commit_partition(dst_dir, j, table, fail_partitions)

    todo = [j for j in range(m) if j not in done]
    reports = list(ray.get([compact_one.remote(j) for j in todo]))
    reports.extend(_manifest_row(j, "skipped", 0) for j in sorted(done))
    report = pa.concat_tables(reports).sort_by("partition_id")

    # row-conservation check: the compacted layout must carry exactly the
    # source's committed rows (manifest sums, no data re-read)
    def _rows(d: str) -> int:
        total = 0
        for p in committed_partitions(d):
            with open(_manifest_path(d, p)) as f:
                total += int(json.load(f)["row_count"])
        return total

    if len(committed_partitions(dst_dir)) == m:
        src_rows, dst_rows = _rows(src_dir), _rows(dst_dir)
        if src_rows != dst_rows:
            raise RuntimeError(
                f"compaction row mismatch: src {src_rows} vs dst {dst_rows}"
            )
    return report
