"""Command line interface: artifacts, exit codes, overrides."""

import csv
import json
import os
import re

import numpy as np
import pytest

from hirisk.cli import main
from hirisk.config import RunConfig, SceneConfig, TrainConfig, canonical_json
from hirisk.train import CHECKPOINT_FORMAT
from tiny_model import tiny_model


def tiny_cfg() -> RunConfig:
    scene = SceneConfig(n_train=12, n_test=4, clip_len=4, lr_size=16, hr_size=64, seed=5)
    train = TrainConfig(steps=2, batch_size=4, highlight_pretrain_steps=2,
                        log_every=100, eval_batch=4)
    return RunConfig(model=tiny_model(), scene=scene, train=train)


@pytest.fixture()
def cfg_file(tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        fh.write(canonical_json(tiny_cfg()))
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


def _log_text(run_dir) -> str:
    with open(os.path.join(run_dir, "log.txt"), encoding="utf-8") as fh:
        return fh.read()


# the abort line names the phase, the step and the error the step raised
ABORT_LINE = (r"abort: non-finite value in {phase} step \d+ \(lr .*\): "
              r"(non-finite values produced by op '\w+'|loss value \w+)\n")
GATE_LINE = "gate failed: logit gap 1.000e+00 exceeds 1e-6\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_abort_exit_code(tmp_path, cfg_file):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "r"),
                 "--set", "train.lr=1e38", "--set", "train.steps=30"])
    assert code == 3
    assert re.search(ABORT_LINE.format(phase="train"), _log_text(tmp_path / "r"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_highlight_warmup_exit_code(tmp_path, cfg_file):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "r"),
                 "--set", "train.highlight_pretrain_lr=1e38",
                 "--set", "train.highlight_pretrain_steps=30"])
    assert code == 3
    assert re.search(ABORT_LINE.format(phase="highlight_warmup"), _log_text(tmp_path / "r"))


def test_gate_failure_exit_code(tmp_path, cfg_file, monkeypatch):
    import hirisk.train as train_mod

    monkeypatch.setattr(train_mod, "gating_gap", lambda *a, **k: 1.0)
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    code = main(["train", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "r")])
    assert code == 2
    assert _log_text(tmp_path / "r").endswith(GATE_LINE)


@pytest.mark.parametrize("fault, code", [
    ("gate", 2),
    pytest.param("abort", 3, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_ablate_exit_codes_match_train(tmp_path, cfg_file, monkeypatch, fault, code):
    import hirisk.train as train_mod

    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    if fault == "gate":
        monkeypatch.setattr(train_mod, "gating_gap", lambda *a, **k: 1.0)
        sets = []
    else:
        sets = ["--set", "train.lr=1e38", "--set", "train.steps=30"]
    assert main(["ablate", "--config", cfg_file, "--data", data_dir,
                 "--run-dir", str(tmp_path / "g"), "--rows", "full", *sets]) == code
    log = _log_text(tmp_path / "g")
    assert log.endswith(GATE_LINE) if fault == "gate" else re.search(
        ABORT_LINE.format(phase="train"), log)


# overrides a config section refuses when it is built, with the reason it gives
SECTION_REJECTS = [
    ("scene.hr_size=40", "SceneConfig.hr_size=40 leaves no HR-critical object size"),
    ("scene.clip_len=2", "SceneConfig.clip_len must be at least 3, got 2"),
    ("train.batch_size=0", "TrainConfig.batch_size must be at least 1, got 0"),
    ("train.steps=-1", "TrainConfig.steps must be at least 0, got -1"),
    ("train.eval_batch=0", "TrainConfig.eval_batch must be at least 1, got 0"),
    ("train.log_every=0", "TrainConfig.log_every must be at least 1, got 0"),
    ("model.n_heads=3", "ModelConfig.d_v=64 must divide by n_heads=3"),
    ("model.lm_heads=5", "ModelConfig.d_l=96 must divide by lm_heads=5"),
    ("model.qdh_heads=3", "ModelConfig.qdh_dim=64 must divide by qdh_heads=3"),
    ("model.cnn_width=0", "ModelConfig.cnn_width must be at least 1, got 0"),
    ("model.dtype=float16", "ModelConfig.dtype must be one of ('float32', 'float64'), got 'float16'"),
    ("model.dtype=foo", "ModelConfig.dtype must be one of ('float32', 'float64'), got 'foo'"),
]

# overrides each section takes but the run refuses, checked once after the last one
RUN_REJECTS = [
    (["scene.hr_critical_frac=0", "scene.hr_size=72"],
     "--set: scene.hr_size=72 must divide by HR stride 16"),
    (["scene.lr_size=18"], "--set: scene.lr_size=18 must divide by model.patch=4"),
    (["model.patch=5"], "--set: scene.lr_size=32 must divide by model.patch=5"),
]


@pytest.mark.parametrize("argv, message", [
    (["train", "--set", "train.freeze_backbone=ture"],
     "--set train.freeze_backbone=ture: 'train.freeze_backbone' takes a bool"),
    (["train", "--set", "train.steps=abc"],
     "--set train.steps=abc: 'train.steps' takes an int, got 'abc'"),
    (["train", "--set", "train.nope=1"],
     "--set train.nope=1: no config field 'nope' in 'train.nope'"),
    (["train", "--config", "OLD_CONFIG"], "no config field 'train.warmup_steps'"),
    (["ablate", "--seeds", "a"], "--seeds takes comma-separated integers, got 'a'"),
    *((["train", "--set", item], f"--set {item}: {why}") for item, why in SECTION_REJECTS),
    *((["train", *(a for item in items for a in ("--set", item))], why)
      for items, why in RUN_REJECTS),
], ids=["bad_bool", "bad_int", "unknown_field", "old_config", "bad_seeds",
        *(item for item, _ in SECTION_REJECTS), *(items[-1] for items, _ in RUN_REJECTS)])
def test_a_usage_error_exits_2_with_one_line(tmp_path, capsys, argv, message):
    old = json.loads(canonical_json(tiny_cfg()))
    old["train"]["warmup_steps"] = 0
    old_config = tmp_path / "old.json"
    old_config.write_text(json.dumps(old))
    run_dir = tmp_path / "r"
    argv = [str(old_config) if a == "OLD_CONFIG" else a for a in argv]
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--run-dir", str(run_dir)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("hirisk: error: ") and message in err
    assert err.count("\n") == 1
    assert not run_dir.exists()


def _tiny_checkpoint(path):
    from hirisk.grammar import build_vocab
    from hirisk.model import DualBranchModel
    from hirisk.optim import AdamW
    from hirisk.train import save_checkpoint

    cfg = tiny_cfg()
    model = DualBranchModel(cfg, build_vocab(), 35, cfg.train.seed)
    save_checkpoint(path, model, AdamW(model.param_groups(1.0), lr=1e-3), cfg, 0, 35, {})
    return model


def _evaluate_usage_error(capsys, argv) -> str:
    """Run `hirisk evaluate`, check it ends with one line and exit 2, return the line."""
    with pytest.raises(SystemExit) as exit_:
        main(["evaluate", *argv])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("hirisk: error: ") and err.count("\n") == 1
    return err


def test_evaluate_rejects_a_split_with_other_input_shapes(tmp_path, cfg_file, capsys):
    ckpt = str(tmp_path / "checkpoint")
    _tiny_checkpoint(ckpt)
    data_dir = str(tmp_path / "data")
    # the seed differs too, but it does not shape the model
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir,
                 "--set", "scene.clip_len=3", "--set", "scene.hr_size=128",
                 "--set", "scene.seed=9"]) == 0
    capsys.readouterr()
    err = _evaluate_usage_error(capsys, ["--checkpoint", ckpt, "--data", data_dir])
    assert "--data: test split in" in err and "['clip_len', 'hr_size']" in err
    err = _evaluate_usage_error(capsys, ["--checkpoint", ckpt, "--data", str(tmp_path / "none")])
    assert "--data: [Errno 2] No such file or directory" in err


def test_evaluate_rejects_a_checkpoint_of_the_old_layout(tmp_path, cfg_file, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    capsys.readouterr()
    ckpt = str(tmp_path / "checkpoint")
    model = _tiny_checkpoint(ckpt)
    with np.load(ckpt) as z:
        meta = z["meta"]
    # format 1 wrote one member per parameter
    with open(ckpt, "wb") as fh:
        np.savez(fh, meta=meta, **{"param/" + n: p.data for n, p in model.named_parameters()})
    err = _evaluate_usage_error(capsys, ["--checkpoint", ckpt, "--data", data_dir])
    assert "--checkpoint: " in err and f"not a format {CHECKPOINT_FORMAT} checkpoint" in err
    err = _evaluate_usage_error(capsys, ["--checkpoint", ckpt + "x", "--data", data_dir])
    assert "--checkpoint: [Errno 2] No such file or directory" in err


def test_evaluate_rejects_a_format_2_checkpoint(tmp_path, cfg_file, capsys):
    """Format 2 held an attention key bias per projected attention."""
    data_dir = str(tmp_path / "data")
    assert main(["generate-data", "--config", cfg_file, "--out", data_dir]) == 0
    capsys.readouterr()
    ckpt = str(tmp_path / "checkpoint")
    _tiny_checkpoint(ckpt)
    with np.load(ckpt) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["format"] = 2
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    err = _evaluate_usage_error(capsys, ["--checkpoint", ckpt, "--data", data_dir])
    assert err.startswith("hirisk: error: --checkpoint: ")
    assert f"checkpoint format 2, but this version reads format {CHECKPOINT_FORMAT}" in err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny config file, its cached dataset, a checkpoint, and a plain file."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"CFG": str(root / "cfg.json"), "DATA": str(root / "data"),
             "CKPT": str(root / "checkpoint"), "FILE": str(root / "file")}
    with open(paths["CFG"], "w") as fh:
        fh.write(canonical_json(tiny_cfg()))
    with open(paths["FILE"], "w") as fh:
        fh.write("not a directory\n")
    assert main(["generate-data", "--config", paths["CFG"], "--out", paths["DATA"]]) == 0
    _tiny_checkpoint(paths["CKPT"])
    return paths


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a command ran past a bad input")


@pytest.mark.parametrize("argv, arg", [
    (["train", "--config", "FILE.missing", "--run-dir", "TMP/r"], "--config"),
    (["train", "--config", "CFG", "--data", "DATA", "--set", "scene.seed=6",
      "--run-dir", "TMP/r"], "--data"),
    (["generate-data", "--config", "CFG", "--set", "scene.seed=6", "--out", "DATA"], "--out"),
    (["train", "--config", "CFG", "--data", "DATA", "--run-dir", "FILE"], "--run-dir"),
    (["evaluate", "--checkpoint", "CKPT", "--data", "DATA", "--out", "FILE/new/x.json"],
     "--out"),
    (["evaluate", "--checkpoint", "CKPT", "--data", "DATA", "--out", "DATA"], "--out"),
    (["ablate", "--config", "CFG", "--data", "DATA", "--seeds", "", "--run-dir", "TMP/g"],
     "--seeds"),
    (["profile-flops", "--resolutions", "224,abc"], "--resolutions"),
    (["profile-flops", "--out", "FILE/new/p.csv"], "--out"),
], ids=["missing_config", "data_of_another_config", "out_of_another_config",
        "run_dir_is_a_file", "evaluate_out_dir", "evaluate_out_is_a_dir", "empty_seeds",
        "bad_resolutions", "profile_out_dir"])
def test_a_bad_input_exits_2_before_any_work(tmp_path, capsys, monkeypatch, inputs, argv, arg):
    import hirisk.cli as cli

    for name in ("train_model", "evaluate_model", "run_ablation_grid"):
        monkeypatch.setattr(cli, name, _refuse_to_run)
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    for key, path in inputs.items():
        argv = [a.replace(key, path) if a.startswith(key) else a for a in argv]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hirisk: error: {arg}") and err.count("\n") == 1


def test_evaluate_creates_the_out_directory(tmp_path, capsys, inputs):
    out = tmp_path / "new" / "x.json"
    assert main(["evaluate", "--checkpoint", inputs["CKPT"], "--data", inputs["DATA"],
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 4
    assert f"report written to {out}" in capsys.readouterr().out
