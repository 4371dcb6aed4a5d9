"""Streaming state checkpointing (the Flink checkpoint/restore analog).

A checkpoint of a sink-mode streaming run is three things, written
atomically as one directory:

1. **actor state snapshots** — each state actor flushes its staged
   output durable and pickles its mutable state (``checkpoint_state`` of
   ``state/staging.py``'s base: the actor's ``_CKPT_FIELDS`` plus its
   watermark and late-row count);
2. **a staged-file manifest** — the exact set of files present under the
   sink's ``_staged/`` trees (main + late) at snapshot time.  On restore
   the staged log is TRUNCATED to this manifest: anything a crashed
   continuation staged after the checkpoint is deleted, so every
   post-checkpoint decision (window finalization, main-vs-late routing)
   is made exactly once by the resumed attempt — the same
   single-attempt-consistency the staging epoch gives whole runs;
3. **driver meta** — consumed batch count, driver watermark, staging
   epoch, and the routing parameters (n_actors, micro_batch_rows) that
   must match for the hash routing and batch numbering to line up.

Resume = restore actor state + adopt the SAME staging epoch + truncate
the staged log + skip the first ``batch_index`` micro-batches of the
source (the log re-read is the lineage; only the tail replays).  The
sink's doc_id dedup then makes the commit byte-identical to an
uninterrupted run.  A successful finalize deletes the checkpoints — they
exist only to shorten crash recovery.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

CKPT_DIRNAME = "_checkpoints"


def _ckpt_root(out_dir: str) -> str:
    return os.path.join(out_dir, CKPT_DIRNAME)


def _staged_tree(out_dir: str) -> list[str]:
    root = os.path.join(out_dir, "_staged")
    out: list[str] = []
    if not os.path.isdir(root):
        return out
    for part in os.listdir(root):
        pdir = os.path.join(root, part)
        if not os.path.isdir(pdir):
            continue
        for f in os.listdir(pdir):
            out.append(os.path.join("_staged", part, f))
    return out


def staged_file_manifest(out_dir: str) -> dict[str, list[str]]:
    """Relative paths of every staged file of the main and late layouts."""
    from ..sinks.exactly_once import late_dir

    return {
        "main": sorted(_staged_tree(out_dir)),
        "late": sorted(_staged_tree(late_dir(out_dir))),
    }


def truncate_staged(out_dir: str, manifest: dict[str, list[str]]) -> int:
    """Delete staged files NOT in the checkpoint manifest (a crashed
    continuation's post-checkpoint output).  Returns the removed count."""
    from ..sinks.exactly_once import late_dir

    removed = 0
    for key, base in (("main", out_dir), ("late", late_dir(out_dir))):
        keep = set(manifest.get(key, []))
        for rel in _staged_tree(base):
            if rel not in keep:
                os.remove(os.path.join(base, rel))
                removed += 1
    return removed


def write_checkpoint(
    out_dir: str, batch_index: int, blobs: list[bytes], meta: dict
) -> str:
    """Atomically publish checkpoint ``batch_index`` (tmp dir + rename +
    parent-dir fsync — without the fsync the journal could drop the rename
    on power loss and recovery would silently fall back to a much older
    checkpoint, the exact failure mode _fsync_dir documents for the
    sink).  Stale ``.tmp-`` dirs from crashed earlier publishes are swept
    here (only the driver writes checkpoints, so the sweep cannot race a
    live publish)."""
    from ..sinks.exactly_once import _fsync_dir

    root = _ckpt_root(out_dir)
    os.makedirs(root, exist_ok=True)
    for stale in os.listdir(root):
        if ".tmp-" in stale:
            shutil.rmtree(os.path.join(root, stale), ignore_errors=True)
    final = os.path.join(root, f"ckpt-{batch_index:08d}")
    tmp = f"{final}.tmp-{uuid.uuid4().hex}"
    os.makedirs(tmp)
    for j, blob in enumerate(blobs):
        with open(os.path.join(tmp, f"actor-{j}.bin"), "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({**meta, "batch_index": batch_index}, f)
        f.flush()
        os.fsync(f.fileno())
    _fsync_dir(tmp)
    os.replace(tmp, final)
    _fsync_dir(root)
    return final


def latest_checkpoint(out_dir: str) -> tuple[int, dict, list[bytes]] | None:
    """Newest COMPLETE checkpoint (meta.json present), or None."""
    root = _ckpt_root(out_dir)
    if not os.path.isdir(root):
        return None
    best = None
    for name in sorted(os.listdir(root), reverse=True):
        if not name.startswith("ckpt-") or ".tmp-" in name:
            continue
        d = os.path.join(root, name)
        mpath = os.path.join(d, "meta.json")
        if not os.path.exists(mpath):
            continue
        with open(mpath) as f:
            meta = json.load(f)
        blobs = []
        # n_blobs covers consumers that snapshot EXTRA driver-side state
        # (e.g. the near-dup metadata buffer) beyond the actor blobs
        for j in range(int(meta.get("n_blobs", meta["n_actors"]))):
            with open(os.path.join(d, f"actor-{j}.bin"), "rb") as f:
                blobs.append(f.read())
        best = (int(meta["batch_index"]), meta, blobs)
        break
    return best


def clear_checkpoints(out_dir: str) -> None:
    shutil.rmtree(_ckpt_root(out_dir), ignore_errors=True)
