"""Configuration round-trips, overrides, and flag implications."""

import json

import pytest

from hirisk.config import (
    Ablation,
    ModelConfig,
    RunConfig,
    SceneConfig,
    apply_override,
    canonical_json,
    config_hash,
    from_dict,
    load_config,
    to_dict,
)
from tiny_model import baseline_only


def test_defaults_are_full_model():
    cfg = RunConfig()
    ab = cfg.model.ablation
    assert not any([ab.no_st_adapter, ab.no_em, ab.no_im, ab.no_qdh, ab.no_hrse])
    assert cfg.train.box_weight == 2.0
    assert cfg.train.hr_lr_mult == 4.0


def test_baseline_only_implies_branch_flags():
    ab = baseline_only()
    assert ab.no_em and ab.no_im and ab.no_qdh and ab.no_hrse
    # the adapter switch is independent of the branch flags
    assert not ab.no_st_adapter


def test_dict_round_trip():
    cfg = RunConfig()
    cfg.train.lr = 3e-4
    cfg.model.ablation = Ablation(no_im=True)
    again = from_dict(to_dict(cfg))
    assert again == cfg
    assert isinstance(again.model, ModelConfig)
    assert isinstance(again.model.ablation, Ablation)


def test_canonical_json_stable_and_hash_sensitivity():
    a, b = RunConfig(), RunConfig()
    assert canonical_json(a) == canonical_json(b)
    assert config_hash(a) == config_hash(b)
    b.train.seed = 1
    assert config_hash(a) != config_hash(b)


def test_file_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.scene.n_train = 64
    path = tmp_path / "config.snapshot"
    path.write_text(canonical_json(cfg))
    assert load_config(path) == cfg


def test_apply_override_types():
    cfg = RunConfig()
    apply_override(cfg, "train.lr", "5e-4")
    apply_override(cfg, "train.steps", "123")
    apply_override(cfg, "train.freeze_backbone", "true")
    apply_override(cfg, "model.head_variant", "learned_query")
    apply_override(cfg, "model.ablation.no_em", "1")
    assert cfg.train.lr == 5e-4
    assert cfg.train.steps == 123
    assert cfg.train.freeze_backbone is True
    assert cfg.model.head_variant == "learned_query"
    assert cfg.model.ablation.no_em is True


def test_apply_override_rejects_unknown():
    cfg = RunConfig()
    with pytest.raises((AttributeError, ValueError, KeyError)):
        apply_override(cfg, "train.not_a_field", "1")


def test_apply_override_implies_what_the_constructor_does():
    cfg = RunConfig()
    for flag in ("no_em", "no_im", "no_qdh", "no_hrse"):
        apply_override(cfg, f"model.ablation.{flag}", "true")
    built = RunConfig()
    built.model.ablation = baseline_only()
    assert cfg == built and config_hash(cfg) == config_hash(built)
    # so the run's checkpoint, checked by config hash, loads again
    assert config_hash(from_dict(to_dict(cfg))) == config_hash(cfg)


def test_apply_override_validates_the_section():
    cfg = RunConfig()
    with pytest.raises(ValueError, match="head_variant"):
        apply_override(cfg, "model.head_variant", "bogus")


@pytest.mark.parametrize("key, value", [
    ("model.head_variant", "bogus"), ("train.steps", "abc"),
    # what each section refuses when it is built
    ("scene.n_train", "0"), ("scene.n_test", "0"), ("scene.lr_size", "0"),
    ("scene.clip_len", "2"), ("scene.hr_size", "64"),
    ("train.batch_size", "0"), ("train.eval_batch", "0"), ("train.log_every", "0"),
    ("train.steps", "-1"), ("train.highlight_pretrain_steps", "-1"),
    ("model.patch", "0"), ("model.n_learned_queries", "0"), ("model.n_heads", "3"),
    ("model.lm_heads", "5"), ("model.qdh_heads", "3"), ("model.d_l", "90"),
    ("model.dtype", "float16"),
])
def test_a_rejected_override_leaves_the_field_as_it_was(key, value):
    cfg = RunConfig()
    with pytest.raises(ValueError):
        apply_override(cfg, key, value)
    assert cfg == RunConfig()


def test_an_hr_size_with_no_hr_critical_room_needs_a_zero_fraction():
    cfg = RunConfig(scene=SceneConfig(hr_size=64, hr_critical_frac=0.0))
    with pytest.raises(ValueError, match="hr_size=64 leaves no HR-critical object size"):
        apply_override(cfg, "scene.hr_critical_frac", "0.1")
    assert cfg.scene.hr_critical_frac == 0.0


@pytest.mark.parametrize("value, want", [("1", True), ("0", False), ("TRUE", True),
                                         ("False", False), ("yes", True), ("No", False)])
def test_apply_override_reads_each_bool_spelling(value, want):
    cfg = RunConfig()
    cfg.model.ablation.no_em = not want
    apply_override(cfg, "model.ablation.no_em", value)
    assert cfg.model.ablation.no_em is want


@pytest.mark.parametrize("key, value", [("train.freeze_backbone", "ture"),
                                        ("model.ablation.no_em", "on"),
                                        ("model.ablation.no_em", "")])
def test_apply_override_rejects_a_word_that_is_not_a_bool(key, value):
    cfg = RunConfig()
    with pytest.raises(ValueError, match=f"'{key}'.*got '{value}'"):
        apply_override(cfg, key, value)
    assert cfg == RunConfig()


@pytest.mark.parametrize("key", ["model.ablation", "train"])
def test_apply_override_rejects_a_section(key):
    cfg = RunConfig()
    with pytest.raises(KeyError, match="section"):
        apply_override(cfg, key, "x")
    assert cfg == RunConfig()


def test_invalid_variant_rejected():
    with pytest.raises(ValueError):
        ModelConfig(head_variant="banana")


@pytest.mark.parametrize("key, value, kind", [("train.steps", "abc", "an int"),
                                              ("train.steps", "1.5", "an int"),
                                              ("train.lr", "fast", "a float")])
def test_apply_override_names_the_key_of_a_bad_number(key, value, kind):
    with pytest.raises(ValueError, match=f"'{key}' takes {kind}, got '{value}'"):
        apply_override(RunConfig(), key, value)


# keys earlier versions had, as a config or checkpoint of theirs carries them,
# and keys no version had
@pytest.mark.parametrize("key", ["model.span_mode", "train.warmup_steps",
                                 "model.ablation.baseline_only",
                                 "model.ablation.no_anything", "data"])
def test_from_dict_names_a_field_its_section_does_not_have(tmp_path, key):
    data = to_dict(RunConfig())
    *sections, field = key.split(".")
    part = data
    for name in sections:
        part = part[name]
    part[field] = 0
    with pytest.raises(ValueError, match=f"no config field '{key}'"):
        from_dict(data)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"no config field '{key}'"):
        load_config(path)


@pytest.mark.parametrize("changes, message", [
    ({"scene": {"lr_size": 18}}, "scene.lr_size=18 must divide by model.patch=4"),
    ({"model": {"patch": 5}}, "scene.lr_size=32 must divide by model.patch=5"),
    ({"scene": {"hr_size": 72, "hr_critical_frac": 0.0}},
     "scene.hr_size=72 must divide by HR stride 16"),
], ids=["lr_size", "patch", "hr_size"])
def test_from_dict_refuses_a_run_its_sections_do_not_fit(changes, message):
    data = to_dict(RunConfig())
    for section, fields in changes.items():
        data[section].update(fields)
    with pytest.raises(ValueError, match=message):
        from_dict(data)


def _written_with_whole_floats(tmp_path):
    """A config file that writes float fields as whole numbers (`"lr": 1`)."""
    data = to_dict(RunConfig())
    data["train"].update(lr=1, hr_lr_mult=4)
    data["scene"]["hr_critical_frac"] = 0
    path = tmp_path / "whole.json"
    path.write_text(json.dumps(data))
    return load_config(path)


def test_a_float_field_written_as_an_int_takes_a_float_override(tmp_path):
    cfg = _written_with_whole_floats(tmp_path)
    assert type(cfg.train.lr) is float and type(cfg.scene.hr_critical_frac) is float
    apply_override(cfg, "train.lr", "3e-4")
    assert cfg.train.lr == 3e-4
    # an int field and a bool field keep their types
    assert type(cfg.train.steps) is int and type(cfg.train.freeze_backbone) is bool


def test_a_float_field_written_as_an_int_hashes_as_the_float(tmp_path):
    cfg = _written_with_whole_floats(tmp_path)
    same = RunConfig()
    same.train.lr, same.train.hr_lr_mult, same.scene.hr_critical_frac = 1.0, 4.0, 0.0
    assert canonical_json(cfg) == canonical_json(same)
    assert config_hash(cfg) == config_hash(same)
