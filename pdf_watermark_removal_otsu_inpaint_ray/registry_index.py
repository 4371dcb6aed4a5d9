"""Machine-generated query-registry index (VERDICT r4 item 8).

``REGISTRY.md`` at the repo root is generated FROM the registry itself
(name → implementing module:line → oracle kind → last driver/parity-green
round), so prose claims about coverage can be checked mechanically instead
of drifting — ``tests/test_stats_registry.py`` regenerates the index and
fails on any mismatch with the committed file.  The header pins the
correctness/parity records the index was built from, and the check reads
exactly those: a record added to the repo later does not stale the index
until it is regenerated.

Regenerate with::

    python -m pdf_watermark_removal_otsu_inpaint_ray.registry_index
"""

from __future__ import annotations

import inspect
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _green(row: dict) -> bool:
    """A driver/parity row counts as green when every recorded check
    passed (hash when present, rows-only otherwise) and no error fired."""
    if row.get("err"):
        return False
    if row.get("hash_match") is not None:
        return bool(row["hash_match"])
    return bool(row.get("rows_match"))


_RECORD_KINDS = {"CORRECTNESS_r": ("c", 1), "PARITY_r": ("p", 0)}
_PIN_PREFIX = "Built from: "


def record_files() -> list[str]:
    """Every CORRECTNESS_r*.json / PARITY_r*.json at the repo root, sorted."""
    return sorted(
        f
        for f in os.listdir(REPO_ROOT)
        if f.endswith(".json") and f.startswith(tuple(_RECORD_KINDS))
    )


def pinned_records(markdown: str) -> list[str]:
    """The record files a rendered index pins in its header."""
    for line in markdown.splitlines():
        if line.startswith(_PIN_PREFIX):
            return [f.strip(" `.") for f in line[len(_PIN_PREFIX):].split(",")]
    raise ValueError("REGISTRY.md has no pinned record list — regenerate it")


def last_green_rounds(files: list[str], root: str = REPO_ROOT) -> dict[str, str]:
    """name -> latest round tag (e.g. ``c4`` driver / ``p4`` parity) with a
    green row, scanning the given CORRECTNESS_r*.json / PARITY_r*.json
    files under ``root`` (later rounds win; driver beats parity within a
    round)."""
    out: dict[str, tuple[int, int, str]] = {}
    for fname in sorted(files):
        kind, prio = next(v for k, v in _RECORD_KINDS.items() if fname.startswith(k))
        rnd = int("".join(ch for ch in fname.split("_r")[1][:2] if ch.isdigit()))
        with open(os.path.join(root, fname)) as f:
            data = json.load(f)
        rows = data.get("queries", data) if isinstance(data, dict) else {}
        for name, row in rows.items():
            if not isinstance(row, dict) or not _green(row):
                continue
            cur = out.get(name)
            if cur is None or (rnd, prio) > (cur[0], cur[1]):
                out[name] = (rnd, prio, f"{kind}{rnd}")
    return {k: v[2] for k, v in out.items()}


def build_index(files: list[str], root: str = REPO_ROOT) -> list[dict]:
    """One row per registered query, derived from the live registry and
    the given record files."""
    from .oracle_data import GOLDEN_QUERIES
    from .queries import ORACLE_SQL, QUERIES

    greens = last_green_rounds(files, root)
    rows = []
    for name in sorted(QUERIES):
        fn = QUERIES[name]
        fn = inspect.unwrap(fn)
        code = getattr(fn, "__code__", None)
        if code is not None:
            src = os.path.relpath(code.co_filename, REPO_ROOT)
            where = f"{src}:{code.co_firstlineno}"
        else:  # functools.partial / callable object
            where = f"{type(fn).__module__}.{type(fn).__qualname__}"
        if name in GOLDEN_QUERIES:
            oracle = "golden"
        elif name in ORACLE_SQL:
            oracle = "sql"
        else:
            oracle = "rows-only"
        rows.append(
            {
                "name": name,
                "where": where,
                "oracle": oracle,
                "last_green": greens.get(name, "—"),
            }
        )
    return rows


def render_markdown(rows: list[dict], files: list[str]) -> str:
    n_sql = sum(r["oracle"] == "sql" for r in rows)
    n_gold = sum(r["oracle"] == "golden" for r in rows)
    n_rows_only = sum(r["oracle"] == "rows-only" for r in rows)
    n_green = sum(r["last_green"] != "—" for r in rows)
    lines = [
        "# REGISTRY — generated query index",
        "",
        "Generated by `python -m pdf_watermark_removal_otsu_inpaint_ray.registry_index`; do not",
        "edit by hand (`tests/test_stats_registry.py` fails on drift).",
        "",
        _PIN_PREFIX + ", ".join(f"`{f}`" for f in files) + ".",
        "",
        f"**{len(rows)} queries** — oracle kinds: {n_sql} SQL twin, "
        f"{n_gold} independent golden, {n_rows_only} rows-only; "
        f"{n_green} with a recorded driver (cN) or parity (pN) green row.",
        "",
        "| query | implemented at | oracle | last green |",
        "|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['name']} | `{r['where']}` | {r['oracle']} | {r['last_green']} |"
        )
    lines.append("")
    return "\n".join(lines)


def expected_registry(root: str = REPO_ROOT) -> str:
    """What ``root``/REGISTRY.md must read: the index rebuilt from the
    records its own header pins."""
    with open(os.path.join(root, "REGISTRY.md")) as f:
        files = pinned_records(f.read())
    return render_markdown(build_index(files, root), files)


def main() -> None:
    out = os.path.join(REPO_ROOT, "REGISTRY.md")
    files = record_files()
    with open(out, "w") as f:
        f.write(render_markdown(build_index(files), files))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
