"""Joint model: branch wiring, gating, loss arithmetic, decoding."""

import numpy as np
import pytest

from hirisk.config import Ablation, ModelConfig, RunConfig, SceneConfig, TrainConfig
from hirisk.grammar import ANSWER_SPAN, build_vocab
from hirisk.hrbranch import BoxMlp, LearnedQueryDetector, SpanQueryDetector
from hirisk.model import DualBranchModel
from hirisk.optim import AdamW
from hirisk.rng import named_rng
from hirisk.train import gating_gap

TA = 10


def tiny_cfg(**model_kw) -> RunConfig:
    scene = SceneConfig(n_train=8, n_test=4, clip_len=2, lr_size=16, hr_size=64)
    model = ModelConfig(patch=8, d_v=16, n_layers=2, n_heads=2, adapter_dim=4,
                        n_queries=4, d_l=32, lm_layers=1, lm_heads=2, cnn_width=4,
                        qdh_dim=16, qdh_heads=2, **model_kw)
    return RunConfig(model=model, scene=scene, train=TrainConfig(seed=0))


def make_model(cfg: RunConfig, seed: int = 0):
    vocab = build_vocab()
    return DualBranchModel(cfg, vocab, TA, seed), vocab


def random_batch(cfg: RunConfig, vocab, n: int = 3, seed: int = 7) -> dict:
    r = named_rng(seed, "test/model-batch")
    s = cfg.scene
    return {
        "clip": r.random((n, s.clip_len, s.lr_size, s.lr_size, 3)).astype(np.float32),
        "hr": r.random((n, s.hr_size, s.hr_size, 3)).astype(np.float32),
        "answer_ids": r.integers(3, len(vocab), size=(n, TA)).astype(np.int64),
        "answer_mask": np.ones((n, TA), dtype=np.float32),
        "box": r.uniform(0.2, 0.7, size=(n, 4)).astype(np.float32),
    }


# -- branch wiring -------------------------------------------------------------


def test_baseline_strips_every_hr_module():
    model, _ = make_model(tiny_cfg(ablation=Ablation(baseline_only=True)))
    for name in ("cnn", "hr_pos", "highlighter", "incorporation", "sites"):
        assert not hasattr(model, name)
    # the box head degrades to a caption-only regressor
    assert isinstance(model.detector, BoxMlp)


def test_full_model_has_all_hr_modules():
    model, _ = make_model(tiny_cfg())
    for name in ("cnn", "hr_pos", "highlighter", "incorporation"):
        assert hasattr(model, name)
    assert isinstance(model.detector, SpanQueryDetector)


def test_detector_variant_selection():
    lq, _ = make_model(tiny_cfg(head_variant="learned_query"))
    assert isinstance(lq.detector, LearnedQueryDetector)
    tc, _ = make_model(tiny_cfg(head_variant="text_coords"))
    assert not hasattr(tc, "detector")


ABLATIONS = {
    "full": Ablation(),
    "no_st_adapter": Ablation(no_st_adapter=True),
    "no_em": Ablation(no_em=True),
    "no_im": Ablation(no_im=True),
    "no_qdh": Ablation(no_qdh=True),
    "no_hrse": Ablation(no_hrse=True),
    "baseline_only": Ablation(baseline_only=True),
}


@pytest.mark.parametrize("freeze_backbone", [False, True])
@pytest.mark.parametrize("ablation", list(ABLATIONS))
def test_param_group_membership(ablation, freeze_backbone):
    model, _ = make_model(tiny_cfg(ablation=ABLATIONS[ablation]))
    groups = model.param_groups(hr_lr_mult=4.0, freeze_backbone=freeze_backbone)
    params = dict(model.named_parameters())

    def under(*prefixes):
        return {n for n in params if n.startswith(prefixes)}

    hr = under("cnn.", "incorporation.", "detector.") | ({"hr_pos"} & set(params))
    # the highlighter is warmup-only: it must sit in no training group
    pinned = under("highlighter.")
    if freeze_backbone:
        pinned |= under("encoder.patch_proj.", "encoder.blocks.", "encoder.final_ln.",
                        "encoder.pooler.") | {"encoder.cls", "encoder.pos"}
    # every group keeps the model's parameter order
    expected = [([n for n in params if n not in hr | pinned], 1.0)]
    if hr:
        expected.append(([n for n in params if n in hr], 4.0))
    assert [(list(g["params"]), g["lr_scale"]) for g in groups] == expected
    for g in groups:
        assert all(p is params[n] for n, p in g["params"].items())


def test_hr_feature_shapes_per_ablation():
    cfg = tiny_cfg()
    vocab = build_vocab()
    batch = random_batch(cfg, vocab)
    cells = (cfg.scene.hr_size // 16) ** 2
    g = cfg.scene.hr_size // 16

    model, _ = make_model(cfg)
    tokens = model.encoder.embed(batch["clip"])
    feats, heat = model.hr_features(batch, tokens)
    assert feats.shape == (3, cells, model.d_i)
    assert heat.shape == (3, g, g)

    ne, _ = make_model(tiny_cfg(ablation=Ablation(no_em=True)))
    feats, heat = ne.hr_features(batch, ne.encoder.embed(batch["clip"]))
    assert feats.shape == (3, cells, ne.d_i)
    assert heat is None

    nh, _ = make_model(tiny_cfg(ablation=Ablation(no_hrse=True)))
    toks = nh.encoder.embed(batch["clip"])
    feats, heat = nh.hr_features(batch, toks)
    lr_cells = (cfg.scene.lr_size // cfg.model.patch) ** 2
    assert feats.shape == (3, lr_cells, cfg.model.d_v)

    base, _ = make_model(tiny_cfg(ablation=Ablation(baseline_only=True)))
    assert base.hr_features(batch, base.encoder.embed(batch["clip"])) == (None, None)


# -- gating --------------------------------------------------------------------


def test_fresh_full_model_matches_baseline_captions():
    # exact by construction: shared named init streams for the shared
    # modules, and every fusion gate starts closed
    cfg = tiny_cfg()
    gap = gating_gap(cfg, build_vocab(), TA, n_samples=4)
    assert gap == 0.0


def test_highlighter_stays_out_of_the_training_tape():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    loss, _ = model.forward_train(batch, box_weight=1.0)
    model.zero_grad()
    loss.backward()
    for p in model.highlighter.parameters():
        assert p.grad is None
    # while the fusion gate itself does receive a gradient, so it can open
    assert any(
        site.alpha.grad is not None and np.any(site.alpha.grad != 0.0)
        for site in model.incorporation
    )


# -- loss arithmetic -----------------------------------------------------------


def test_box_weight_scales_the_total():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    _, p0 = model.forward_train(batch, box_weight=0.0)
    assert p0["total"] == p0["caption"]
    assert p0["box"] > 0.0
    _, p2 = model.forward_train(batch, box_weight=2.0)
    assert p2["caption"] == p0["caption"]
    assert p2["total"] == pytest.approx(p2["caption"] + 2.0 * p2["box"], rel=1e-6)


def test_text_coords_has_no_box_term():
    cfg = tiny_cfg(head_variant="text_coords")
    model, vocab = make_model(cfg)
    _, parts = model.forward_train(random_batch(cfg, vocab), box_weight=5.0)
    assert parts["box"] == 0.0
    assert parts["total"] == parts["caption"]


def test_zero_lr_step_changes_nothing():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    before = {name: p.data.copy() for name, p in model.named_parameters()}
    opt = AdamW(model.param_groups(hr_lr_mult=4.0), lr=0.0, weight_decay=0.01)
    loss, _ = model.forward_train(random_batch(cfg, vocab), box_weight=1.0)
    model.zero_grad()
    loss.backward()
    opt.step()
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, before[name]), name


def test_joint_loss_decreases_on_fixed_batch():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab, n=4)
    opt = AdamW(model.param_groups(hr_lr_mult=1.0), lr=3e-3, weight_decay=0.0)
    first = None
    for _ in range(80):
        loss, parts = model.forward_train(batch, box_weight=1.0)
        if first is None:
            first = parts["total"]
        model.zero_grad()
        loss.backward()
        opt.step()
    assert parts["total"] < 0.35 * first


# -- decoding ------------------------------------------------------------------


def test_decode_record_structure():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    out = model.decode(random_batch(cfg, vocab))
    assert len(out) == 3
    for rec in out:
        assert set(rec) == {"tokens", "box", "box_source"}
        assert all(isinstance(t, str) for t in rec["tokens"])
        assert len(rec["tokens"]) <= model.max_new
        assert rec["box_source"] == "head"
        x1, y1, x2, y2 = rec["box"]
        assert 0.0 <= x1 < x2 <= 1.0
        assert 0.0 <= y1 < y2 <= 1.0


def test_decode_text_coords_source_labels():
    cfg = tiny_cfg(head_variant="text_coords")
    model, vocab = make_model(cfg)
    for rec in model.decode(random_batch(cfg, vocab)):
        if rec["box"] is None:
            assert rec["box_source"] == "sentinel"
        else:
            assert rec["box_source"] == "text"


def test_decode_learned_query_uses_head():
    cfg = tiny_cfg(head_variant="learned_query")
    model, vocab = make_model(cfg)
    for rec in model.decode(random_batch(cfg, vocab)):
        assert rec["box_source"] == "head"
        assert len(rec["box"]) == 4


@pytest.mark.parametrize("no_qdh", [False, True])
@pytest.mark.parametrize("span_mode", ["noun_phrase", "full_answer"])
def test_training_and_decoding_agree_on_boxes(span_mode, no_qdh):
    """Greedy ids fed back teacher-forced give decode's boxes, bit for bit."""
    cfg = tiny_cfg(span_mode=span_mode, ablation=Ablation(no_qdh=no_qdh))
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    pad = vocab.pad_id
    bias = model.lm.head.bias.data
    init = bias.copy()
    # an EOS nudge ends rows at different lengths, so the pooling mask sees
    # pad; a pad nudge leaves every row all pad, so it pools position 0
    for tok, nudge, some_pad, all_pad in ((vocab.eos_id, 3.5, True, False),
                                          (pad, 100.0, True, True)):
        bias[:] = init
        bias[tok] += nudge
        z, feats, _ = model.encode_scene(batch)
        ids = model.lm.greedy_decode(z, model.max_new, vocab.eos_id, pad)
        assert (ids == pad).any() == some_pad and (ids == pad).all() == all_pad
        mask = (ids != pad).astype(np.float64)
        mask[mask.sum(axis=1) == 0, 0] = 1.0
        _, hidden = model.lm.caption_loss(z, ids, mask)
        boxes = model.predict_box(hidden, feats, mask).data
        decoded = np.array([rec["box"] for rec in model.decode(batch)])
        assert np.array_equal(boxes, decoded)


def test_answer_rows_span_window():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    z, _, _ = model.encode_scene(batch)
    hidden, _ = model.lm.forward_hidden(z, batch["answer_ids"])
    rows, mask = model.answer_rows(hidden, batch["answer_mask"])
    assert rows.shape == (3, ANSWER_SPAN[1] - ANSWER_SPAN[0], cfg.model.d_l)
    assert mask is None
