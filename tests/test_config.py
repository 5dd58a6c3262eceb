"""Configuration round-trips, overrides, and flag implications."""

import pytest

from hirisk.config import (
    Ablation,
    ModelConfig,
    RunConfig,
    apply_override,
    canonical_json,
    config_hash,
    from_dict,
    load_config,
    to_dict,
)


def test_defaults_are_full_model():
    cfg = RunConfig()
    ab = cfg.model.ablation
    assert not any(
        [ab.baseline_only, ab.no_st_adapter, ab.no_em, ab.no_im, ab.no_qdh, ab.no_hrse]
    )
    assert cfg.train.box_weight == 2.0
    assert cfg.train.hr_lr_mult == 4.0


def test_baseline_only_implies_branch_flags():
    ab = Ablation(baseline_only=True)
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
    apply_override(cfg, "model.ablation.baseline_only", "true")
    assert cfg.model.ablation == Ablation(baseline_only=True)
    # so the run's checkpoint, checked by config hash, loads again
    assert config_hash(from_dict(to_dict(cfg))) == config_hash(cfg)


def test_apply_override_validates_the_section():
    cfg = RunConfig()
    with pytest.raises(ValueError, match="head_variant"):
        apply_override(cfg, "model.head_variant", "bogus")
    with pytest.raises(ValueError, match="span_mode"):
        apply_override(RunConfig(), "model.span_mode", "bogus")


@pytest.mark.parametrize("key, value", [("model.head_variant", "bogus"),
                                        ("model.span_mode", "bogus")])
def test_a_rejected_override_leaves_the_field_as_it_was(key, value):
    cfg = RunConfig()
    with pytest.raises(ValueError):
        apply_override(cfg, key, value)
    assert cfg == RunConfig()


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
    with pytest.raises(ValueError):
        ModelConfig(span_mode="banana")
