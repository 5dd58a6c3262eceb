"""Command line interface: artifacts, exit codes, overrides."""

import csv
import json
import os

import pytest

from hirisk.cli import main
from hirisk.config import (
    ModelConfig,
    RunConfig,
    SceneConfig,
    TrainConfig,
    save_config,
)


def tiny_cfg() -> RunConfig:
    scene = SceneConfig(n_train=12, n_test=4, clip_len=4, lr_size=16, hr_size=64, seed=5)
    model = ModelConfig(patch=8, d_v=16, n_layers=2, n_heads=2, adapter_dim=4,
                        n_queries=4, d_l=32, lm_layers=1, lm_heads=2, cnn_width=4,
                        qdh_dim=16, qdh_heads=2)
    train = TrainConfig(steps=2, batch_size=4, highlight_pretrain_steps=2,
                        log_every=100, eval_batch=4)
    return RunConfig(model=model, scene=scene, train=train)


@pytest.fixture()
def cfg_file(tmp_path):
    path = str(tmp_path / "cfg.json")
    save_config(tiny_cfg(), path)
    return path


def test_profile_flops_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "profile.csv")
    assert main(["profile-flops", "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["resolution"] == "224"
    assert rows[-1]["oom_flag"] == "1"
    text = capsys.readouterr().out
    assert "baseline flops ratio" in text


def test_profile_flops_custom_grid(capsys):
    assert main(["profile-flops", "--resolutions", "224,448"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # header, two rows, summary
    assert len(lines) == 4


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all kernels within" in out
    assert "views " in out
    assert "attention " in out
    assert "conv2d_s2_bias " in out
    assert "relu_mul_index " in out


def test_generate_train_evaluate_cycle(tmp_path, cfg_file, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    assert os.path.exists(os.path.join(data_dir, "train_manifest.json"))

    run_dir = str(tmp_path / "run")
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", run_dir])
    assert code == 0
    for name in ("metrics.json", "metrics.csv", "history.json",
                 "checkpoint", "config.snapshot", "log.txt"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    with open(os.path.join(run_dir, "metrics.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["n"] == 4

    out_json = str(tmp_path / "eval.json")
    code = main(["evaluate", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--data", data_dir, "--out", out_json])
    assert code == 0
    with open(out_json, encoding="utf-8") as fh:
        again = json.load(fh)
    assert again["miou"] == report["miou"]
    assert "miou" in capsys.readouterr().out


def test_train_honors_overrides(tmp_path, cfg_file):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    run_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", run_dir, "--set", "train.steps=3"]) == 0
    with open(os.path.join(run_dir, "history.json"), encoding="utf-8") as fh:
        assert len(json.load(fh)) == 3


def test_ablate_subset(tmp_path, cfg_file, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    run_dir = str(tmp_path / "grid")
    code = main(["ablate", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", run_dir, "--seeds", "0",
                 "--rows", "full,baseline_only", "--set", "train.steps=1"])
    assert code == 0
    assert os.path.exists(os.path.join(run_dir, "ablation.csv"))
    text = capsys.readouterr().out
    assert "baseline_only" in text


def test_ablate_rejects_unknown_row(cfg_file, tmp_path):
    with pytest.raises(SystemExit):
        main(["ablate", "--config", cfg_file, "--run-dir", str(tmp_path / "g"),
              "--rows", "nonsense"])


def test_malformed_override_is_rejected(tmp_path, cfg_file):
    with pytest.raises(SystemExit):
        main(["train", "--config", cfg_file, "--run-dir", str(tmp_path / "r"),
              "--set", "train.steps"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_abort_exit_code(tmp_path, cfg_file):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "r"),
                 "--set", "train.lr=1e38", "--set", "train.steps=30"])
    assert code == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_highlight_warmup_exit_code(tmp_path, cfg_file):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "r"),
                 "--set", "train.highlight_pretrain_lr=1e38",
                 "--set", "train.highlight_pretrain_steps=30"])
    assert code == 3


def test_gate_failure_exit_code(tmp_path, cfg_file, monkeypatch):
    import hirisk.train as train_mod

    monkeypatch.setattr(train_mod, "gating_gap", lambda *a, **k: 1.0)
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "r")])
    assert code == 2


def test_evaluate_rejects_a_split_with_other_input_shapes(tmp_path, cfg_file):
    from hirisk.grammar import build_vocab
    from hirisk.model import DualBranchModel
    from hirisk.optim import AdamW
    from hirisk.train import save_checkpoint

    cfg = tiny_cfg()
    model = DualBranchModel(cfg, build_vocab(), 35, cfg.train.seed)
    ckpt = str(tmp_path / "checkpoint")
    save_checkpoint(ckpt, model, AdamW(model.param_groups(1.0), lr=1e-3), cfg, 0, 35, {})
    data_dir = str(tmp_path / "data")
    # the seed differs too, but it does not shape the model
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir,
                 "--set", "scene.clip_len=3", "--set", "scene.hr_size=128",
                 "--set", "scene.seed=9"]) == 0
    with pytest.raises(ValueError, match=r"\['clip_len', 'hr_size'\]"):
        main(["evaluate", "--checkpoint", ckpt, "--data", data_dir])
