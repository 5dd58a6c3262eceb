"""Closed-form checks on the analytic compute and memory model."""

import csv

from hirisk import costmodel as cm
from hirisk.files import write_csv


# -- independent integer re-derivation (kept deliberately separate) ------------


def _pieces_baseline_flops(res):
    """Same quantities summed from separately written pieces."""
    t = ((res + 13) // 14) ** 2
    ne = t + 1
    enc_attn = 4 * ne * 1024 * 1024 + 2 * ne * ne * 1024
    enc_mlp = 8 * ne * 1024 * 1024
    enc = 24 * (enc_attn + enc_mlp)
    nl = 5 * t + 256
    llm_attn = 4 * nl * 4096 * 4096 + 2 * nl * nl * 4096
    llm_mlp = 8 * nl * 4096 * 4096
    llm = 32 * (llm_attn + llm_mlp)
    return 2 * (5 * enc + llm)


def test_layer_macs_small_hand_value():
    # n=2, d=3: 12*2*9 + 2*4*3 = 216 + 24
    assert cm.transformer_layer_macs(2, 3) == 240


def test_doubling_width_quadruples_projection_terms():
    n, d = 7, 16
    proj = cm.transformer_layer_macs(n, d) - 2 * n * n * d
    proj2 = cm.transformer_layer_macs(n, 2 * d) - 2 * n * n * 2 * d
    assert proj2 == 4 * proj


def test_vision_tokens_and_padding():
    assert cm.vision_tokens(224) == 256          # 16x16 grid
    assert cm.vision_tokens(322) == 529          # 23x23, exact multiple
    assert cm.vision_tokens(230) == 289          # pads up to 17 patches
    assert cm.vision_tokens(1000) == 5184        # pads up to 72 patches


def test_frozen_anchor_totals():
    assert cm.baseline_cost(224)["flops"] == 21836738297856
    assert cm.baseline_cost(1000)["flops"] == 725380713906176
    assert cm.hilmd_cost(224)["flops"] == 4564347322368
    assert cm.hilmd_cost(1000)["flops"] == 4591281838080
    assert cm.baseline_cost(224)["mem"] == 8811974400
    assert cm.baseline_cost(1000)["mem"] == 1571579334400


def test_matches_independent_derivation_across_grid():
    for res in cm.RESOLUTION_GRID:
        assert cm.baseline_cost(res)["flops"] == _pieces_baseline_flops(res)


def test_scaling_ratios():
    s = cm.scaling_summary()
    assert s["baseline_flops_ratio"] >= 10.0
    assert s["hilmd_flops_ratio"] <= 2.0
    assert s["hilmd_flops_ratio"] > 1.0  # the HR probe is not free


def test_oom_ordering_at_default_budget():
    rows = cm.profile()
    fits = [r["resolution"] for r in rows if not r["oom_flag"]]
    ooms = [r["resolution"] for r in rows if r["oom_flag"]]
    assert 224 in fits and 320 in fits
    assert min(ooms) < 448
    assert not any(r["hilmd_oom"] for r in rows)


def test_memory_dominance_any_budget():
    # pointwise dominance means the baseline hits any budget first
    for r in cm.profile():
        assert r["baseline_mem"] > r["hilmd_mem"]


def test_curves_monotone_in_resolution():
    rows = cm.profile()
    for a, b in zip(rows, rows[1:]):
        assert b["baseline_flops"] > a["baseline_flops"]
        assert b["baseline_mem"] > a["baseline_mem"]
        assert b["hilmd_flops"] > a["hilmd_flops"]
        assert b["hilmd_mem"] >= a["hilmd_mem"]


def test_baseline_convex_in_pixels_on_divisible_grid():
    grid = [224, 448, 672, 896, 1120, 1344]
    flops = [cm.baseline_cost(r)["flops"] for r in grid]
    pix = [r * r for r in grid]
    for i in range(len(grid) - 2):
        left = (flops[i + 1] - flops[i]) / (pix[i + 1] - pix[i])
        right = (flops[i + 2] - flops[i + 1]) / (pix[i + 2] - pix[i + 1])
        assert right > left


def test_lr_branch_term_constant_across_hr_resolution():
    fixed = [cm.hilmd_cost(r)["flops"] - 2 * cm.cnn_macs(r) for r in cm.RESOLUTION_GRID]
    assert len(set(fixed)) == 1


def test_cnn_term_small_but_growing():
    assert cm.cnn_macs(1000) > cm.cnn_macs(224)
    # the probe stays under one percent of the fixed trunk at 1000
    assert 2 * cm.cnn_macs(1000) < 0.01 * cm.hilmd_cost(224)["flops"]


def test_csv_export(tmp_path):
    path = tmp_path / "costs.csv"
    write_csv(path, cm.profile(), cm.CSV_COLUMNS)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cm.CSV_COLUMNS)
    assert len(rows) == 1 + len(cm.RESOLUTION_GRID)
    assert rows[1][0] == "224"


def test_runtime_is_trivially_fast():
    import time

    t0 = time.time()
    for _ in range(10):
        cm.profile()
        cm.scaling_summary()
    assert time.time() - t0 < 1.0
