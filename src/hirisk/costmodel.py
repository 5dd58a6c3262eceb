"""Analytic compute and memory model for the resolution scaling study.

Compares two ways of raising input resolution for a video captioner built
from a large vision transformer feeding a large language model:

* baseline: every frame is re-encoded at the test resolution and all visual
  tokens enter the language model, so its sequence grows with resolution;
* dual-branch: the language model always sees a fixed pooled-query prefix,
  and only a small convolutional extractor touches the high-resolution
  frame.

Conventions, declared once and used throughout: one multiply-accumulate is
two flops; a transformer layer costs 4ND^2 + 2N^2D multiply-accumulates for
attention plus 8ND^2 for its 4x MLP; embeddings and norms are ignored;
activation memory counts, per layer, the attention score matrix (heads * N^2)
plus eight N*D residual-stream buffers, held in 16-bit floats. The memory
budget models a single 32 GB accelerator.

Everything is exact integer arithmetic; no floats enter until ratios.
"""

from __future__ import annotations

# Frozen reference architecture (large vision encoder + language model).
ENC_D = 1024
ENC_LAYERS = 24
ENC_HEADS = 16
ENC_PATCH = 14

LLM_D = 4096
LLM_LAYERS = 32
LLM_HEADS = 32

N_TEXT = 256          # prompt + answer token allowance
N_QUERY_TOKENS = 32   # pooled visual prefix of the dual-branch model
CLIP_FRAMES = 5
DUAL_LR_RES = 224     # the dual-branch encoder never leaves this resolution

CNN_WIDTHS = (64, 128, 256, 512)

FLOPS_PER_MAC = 2
BYTES_PER_ELEMENT = 2
MEMORY_BUDGET_BYTES = 32 * 10**9

RESOLUTION_GRID = (224, 320, 400, 448, 560, 672, 784, 896, 1000)

CSV_COLUMNS = (
    "resolution",
    "baseline_flops",
    "hilmd_flops",
    "baseline_mem",
    "hilmd_mem",
    "oom_flag",
    "hilmd_oom",
)


def transformer_layer_macs(n: int, d: int) -> int:
    return 12 * n * d * d + 2 * n * n * d


def transformer_macs(n: int, d: int, layers: int) -> int:
    return layers * transformer_layer_macs(n, d)


def transformer_activation_bytes(n: int, d: int, layers: int, heads: int) -> int:
    return layers * (heads * n * n + 8 * n * d) * BYTES_PER_ELEMENT


def vision_tokens(res: int) -> int:
    """Patch tokens per frame at a given square resolution.

    Resolutions that are not a multiple of the patch pad up to the next
    full patch grid, the usual practice for fixed-patch encoders. On
    patch-divisible resolutions the token count is an exact affine
    function of the pixel count, which is what makes the baseline curve
    provably convex there.
    """
    return ((res + ENC_PATCH - 1) // ENC_PATCH) ** 2


def encoder_macs(res: int) -> int:
    n = vision_tokens(res) + 1  # class token
    return transformer_macs(n, ENC_D, ENC_LAYERS)


def encoder_activation_bytes(res: int) -> int:
    n = vision_tokens(res) + 1
    return transformer_activation_bytes(n, ENC_D, ENC_LAYERS, ENC_HEADS)


def cnn_macs(res: int) -> int:
    """Four stride-2 3x3 convolutions, widths 64/128/256/512."""
    total = 0
    c_in = 3
    side = res
    for c_out in CNN_WIDTHS:
        side = side // 2
        total += side * side * 9 * c_in * c_out
        c_in = c_out
    return total


def cnn_activation_bytes(res: int) -> int:
    total = 0
    side = res
    for c_out in CNN_WIDTHS:
        side = side // 2
        total += side * side * c_out
    return total * BYTES_PER_ELEMENT


def baseline_cost(res: int) -> dict:
    """Re-encode every frame at `res`; all visual tokens enter the LLM."""
    n_llm = CLIP_FRAMES * vision_tokens(res) + N_TEXT
    macs = CLIP_FRAMES * encoder_macs(res) + transformer_macs(n_llm, LLM_D, LLM_LAYERS)
    mem = CLIP_FRAMES * encoder_activation_bytes(res) + transformer_activation_bytes(
        n_llm, LLM_D, LLM_LAYERS, LLM_HEADS
    )
    return {"flops": macs * FLOPS_PER_MAC, "mem": mem, "oom": mem > MEMORY_BUDGET_BYTES}


def hilmd_cost(res: int) -> dict:
    """Fixed low-resolution trunk plus a high-resolution convolutional probe."""
    n_llm = N_QUERY_TOKENS + N_TEXT
    macs = (
        CLIP_FRAMES * encoder_macs(DUAL_LR_RES)
        + transformer_macs(n_llm, LLM_D, LLM_LAYERS)
        + cnn_macs(res)
    )
    mem = (
        CLIP_FRAMES * encoder_activation_bytes(DUAL_LR_RES)
        + transformer_activation_bytes(n_llm, LLM_D, LLM_LAYERS, LLM_HEADS)
        + cnn_activation_bytes(res)
    )
    return {"flops": macs * FLOPS_PER_MAC, "mem": mem, "oom": mem > MEMORY_BUDGET_BYTES}


def profile(grid=None) -> list[dict]:
    rows = []
    for res in grid or RESOLUTION_GRID:
        b = baseline_cost(res)
        h = hilmd_cost(res)
        rows.append(
            {
                "resolution": res,
                "baseline_flops": b["flops"],
                "hilmd_flops": h["flops"],
                "baseline_mem": b["mem"],
                "hilmd_mem": h["mem"],
                "oom_flag": int(b["oom"]),
                "hilmd_oom": int(h["oom"]),
            }
        )
    return rows


def scaling_summary(rows=None) -> dict:
    """Headline ratios across the resolution grid."""
    rows = rows or profile()
    first, last = rows[0], rows[-1]
    oom_res = [r["resolution"] for r in rows if r["oom_flag"]]
    return {
        "baseline_flops_ratio": last["baseline_flops"] / first["baseline_flops"],
        "hilmd_flops_ratio": last["hilmd_flops"] / first["hilmd_flops"],
        "baseline_first_oom": oom_res[0] if oom_res else None,
        "hilmd_any_oom": any(r["hilmd_oom"] for r in rows),
        "budget_bytes": MEMORY_BUDGET_BYTES,
    }
