"""Engine configuration.

Defaults mirror the reference CLI defaults (``/root/reference/src/pdf_watermark_removal/cli.py:204-232``):
``--tolerance 30 --kernel-size 3 --inpaint-radius 2 --strength 1.0`` and the
detection rule constants in ``watermark_detector.py`` (see field comments).
2-D pixel-area parameters are scaled to 1-D token-span equivalents, documented
per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any


@dataclass(frozen=True)
class EngineConfig:
    # ---- flagging (reference: watermark_detector.py:439-441) ----
    tolerance: int = 30          # |gray - wm| < tolerance (strict <)
    gray_mod: int = 256          # gray projection = token % gray_mod
    detection_method: str = "color"  # "color" (wm-token mask) | "auto"
                                     # (M3/M4 local-mean + saturation,
                                     # watermark_detector.py:483-545)

    # user-specified watermark token (reference --color, cli.py:174-197);
    # >= 0 skips the detection phase entirely (every row uses this token)
    fixed_wm_token: int = -1

    # ---- automatic detection mode (watermark_detector.py:497-508) ----
    auto_block: int = 11         # local-mean window (adaptiveThreshold block)
    auto_c: int = 2              # offset C; flag iff (gray+C)*w > window_sum
    sat_floor: int = 30          # saturation threshold max(30, 0.6*mean)
                                 # sat channel = (token // 256) % 256

    # ---- watermark-candidate rule (watermark_detector.py:172-189) ----
    wm_gray_lo: int = 100        # 100 <= gray <= 250, inclusive
    wm_gray_hi: int = 250
    wm_cov_lo: float = 1.0       # 1% <= coverage <= 20%, inclusive
    wm_cov_hi: float = 20.0
    wm_topk: int = 10            # scan top-10 histogram bins by count desc

    # ---- protection (watermark_detector.py:193-229, 455-467) ----
    protect_text: bool = True
    text_threshold: int = 140     # gray <= 140 is core text (THRESH_BINARY_INV)
    text_expand: int = 3          # dilate text protection ±3 positions
    text_min_run: int = 2         # open(2x2): drop protect runs shorter than 2
    background_threshold: int = 250  # gray > 250 protected (THRESH_BINARY)
    skip_text_protect_lo: int = 100  # skip text protect if 100 <= wm <= 150
    skip_text_protect_hi: int = 150  # (watermark_detector.py:463)

    # ---- morphological refine (watermark_detector.py:470-479) ----
    kernel_size: int = 3          # OPEN(k) x1 then CLOSE(k) x2; 1-D radius = k//2

    # ---- span filter, 1-D analog of connectedComponentsWithStats
    # (watermark_detector.py:772-789: 100 <= area <= 5000; aspect<10 has no
    # 1-D analog).  Scaled to token-span lengths:
    min_span: int = 3
    max_span: int = 1000

    # ---- inpaint / blend (watermark_remover.py:78-99, 143-172) ----
    inpaint_radius: int = 2       # base of dynamic radius formula (reported metric)
    strength: float = 1.0         # >= 0.5 -> flagged takes inpainted (int-safe select)
    passes: int = 1               # multi-pass (watermark_remover.py:234-302)

    # ---- motif / span-event join (qr_detector.py:373-400; watermark_detector.py:264-270)
    motif_pad: int = 5            # span padding +-5 positions, clamped
    removal_categories: tuple[str, ...] = ("advertisement", "unknown", "website")

    # ---- windowing / streaming (engine-only; SURVEY.md §2.9) ----
    window_kind: str = "tumbling"   # tumbling | sliding | session | global
    window_size: int = 64           # event_ts units
    window_slide: int = 32          # sliding only
    session_gap: int = 16           # session only
    allowed_lateness: int = 16
    detection_mode: str = "windowed"  # "windowed" (per source+window) or
                                      # "sticky" (first detection wins per
                                      # source; mirrors watermark_detector.py:562-568,188)

    def with_(self, **kw: Any) -> "EngineConfig":
        return replace(self, **kw)

    @property
    def refine_radius(self) -> int:
        return self.kernel_size // 2


DEFAULT_CONFIG = EngineConfig()


# ---------------------------------------------------------------------------
# Cluster-derived execution knobs
# ---------------------------------------------------------------------------
# Every tuned constant in this repo (shuffle fanouts, sink partition counts,
# actor-pool caps) was measured on the 32-cpu dev box.  On the north star's
# N-node cluster a hard-coded 64 caps shuffle parallelism and bloats
# partitions at 100 TB, so fanout defaults resolve AT CALL TIME from
# ``ray.cluster_resources()`` with the measured constant as the 32-cpu
# special case: the value scales proportionally with total cluster CPUs and
# never drops below the tuned base (small dev boxes keep the bench-verified
# layout; partitions stay the same size PER CORE as the cluster grows).

_REFERENCE_CPUS = 32  # the box every base constant was tuned on


def cluster_cpus(default: int = _REFERENCE_CPUS) -> int:
    """Total cluster CPUs, or ``default`` when Ray isn't initialised (pure
    driver-side planning — e.g. unit tests constructing plans without a Ray
    session)."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", default)))
    except Exception:
        pass
    return int(default)


def scaled_parts(base: int, num_parts: int | None = None) -> int:
    """Resolve a shuffle/sink fanout: an explicit ``num_parts`` wins;
    otherwise ``base`` (the 32-cpu tuned constant) scaled linearly with the
    cluster's CPU count and floored at ``base``.  32 cpus → exactly
    ``base`` (bench numbers unchanged); a 256-node × 32-cpu cluster →
    ``256 × base`` so per-partition bytes stay constant as data and nodes
    grow together."""
    if num_parts is not None:
        return int(num_parts)
    return max(int(base), int(base) * cluster_cpus() // _REFERENCE_CPUS)


def scaled_pool(base_min: int, base_max: int) -> tuple[int, int]:
    """Actor-pool ``concurrency=(min, max)`` range: the max cap (tuned so a
    pool shares the 32-cpu box with its peers) scales with the cluster so
    pools can widen onto new nodes; the min stays put (warm-start cost) but
    never exceeds ``cluster cpus - 1``: a minimum that holds every cpu
    leaves none for the read tasks that feed the pool, and the job stalls."""
    cpus = cluster_cpus()
    lo = min(int(base_min), max(1, cpus - 1))
    return (lo, max(lo, int(base_max) * max(1, cpus // _REFERENCE_CPUS)))
