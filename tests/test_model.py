"""Joint model: branch wiring, gating, loss arithmetic, decoding."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hirisk import autograd, model as model_module, workers
from hirisk.autograd import ComputationTape, NonFiniteError, Node, Tensor
from hirisk.config import HEAD_VARIANTS, Ablation, ModelConfig, RunConfig, SceneConfig, TrainConfig
from hirisk.grammar import ANSWER_SPAN, build_vocab
from hirisk.hrbranch import LearnedQueryDetector, SpanQueryDetector
from hirisk.model import DualBranchModel
from hirisk.optim import AdamW
from hirisk.rng import named_rng
from hirisk.train import GRID_ROWS, gating_gap
from tiny_model import baseline_only, tiny_model

TA = 10


def tiny_cfg(**model_kw) -> RunConfig:
    scene = SceneConfig(n_train=8, n_test=4, clip_len=3, lr_size=16, hr_size=64)
    return RunConfig(model=tiny_model(**model_kw), scene=scene, train=TrainConfig(seed=0))


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
    model, _ = make_model(tiny_cfg(ablation=baseline_only()))
    for name in ("cnn", "hr_pos", "highlighter", "incorporation"):
        assert not hasattr(model, name)
    # the box head degrades to a caption-only regressor: the no-QDH span head
    assert isinstance(model.detector, SpanQueryDetector)
    assert not hasattr(model.detector, "ca")


# Configs in which no module reads HR features: no incorporation site, and no
# box head that attends over them.
NO_HR_READER = {
    "text_coords_no_im": {"head_variant": "text_coords", "ablation": Ablation(no_im=True)},
    "no_qdh_no_im": {"ablation": Ablation(no_qdh=True, no_im=True)},
    "learned_query_no_qdh_no_im": {"head_variant": "learned_query",
                                   "ablation": Ablation(no_qdh=True, no_im=True)},
}


@pytest.mark.parametrize("config", list(NO_HR_READER))
def test_an_hr_route_nothing_reads_is_not_built(config):
    model, _ = make_model(tiny_cfg(**NO_HR_READER[config]))
    assert model.d_i == 0
    for name in ("cnn", "hr_pos", "highlighter", "incorporation"):
        assert not hasattr(model, name)
    assert not hasattr(getattr(model, "detector", None), "ca")


def test_full_model_has_all_hr_modules():
    model, _ = make_model(tiny_cfg())
    for name in ("cnn", "hr_pos", "highlighter", "incorporation"):
        assert hasattr(model, name)
    assert isinstance(model.detector, SpanQueryDetector)
    # the modules __init__ built are the record of the flags; the encoder
    # places the incorporation sites
    assert not hasattr(model, "flags") and not hasattr(model, "sites")


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
    "baseline_only": baseline_only(),
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


# Checkpoint names and shapes of the HR attention at the default config: the
# bare attention has bias-free q/k/v and no output projection.
SITE = [("alpha", ()), ("wq.weight", (64, 64)), ("wk.weight", (128, 64)), ("wv.weight", (128, 64))]
CROSS_ATTN = [("ca.wq.weight", (96, 64)), ("ca.wk.weight", (128, 64)), ("ca.wv.weight", (128, 64))]
BOX_TAIL = [("fc1.weight", (64, 64)), ("fc1.bias", (64,)), ("fc2.weight", (64, 4)), ("fc2.bias", (4,))]
HEAD_PARAMS = {
    "span_query": CROSS_ATTN + BOX_TAIL,
    "learned_query": [("queries", (4, 96))] + CROSS_ATTN + BOX_TAIL
                     + [("obj.weight", (64, 1)), ("obj.bias", (1,))],
    # no cross-attention: fc1 reads the d_l-wide span itself
    "no_qdh": [("fc1.weight", (96, 64))] + BOX_TAIL[1:],
}


@pytest.mark.parametrize("variant", list(HEAD_PARAMS))
def test_attention_parameter_names_are_the_checkpoint_format(variant):
    kw = {"ablation": Ablation(no_qdh=True)} if variant == "no_qdh" else {"head_variant": variant}
    model = DualBranchModel(RunConfig(model=ModelConfig(**kw)), build_vocab(), TA, 0)
    named = [(n, p.shape) for n, p in model.named_parameters()]
    expected = [(f"incorporation.{j}.{n}", shape) for j in range(3) for n, shape in SITE]
    expected += [(f"detector.{n}", shape) for n, shape in HEAD_PARAMS[variant]]
    assert [(n, s) for n, s in named if n.startswith(("incorporation.", "detector."))] == expected
    block_attn = [n for n, _ in named if n.startswith("encoder.blocks.0.attn.")]
    # the key projection has no bias: the softmax over keys would cancel it
    assert block_attn == ["encoder.blocks.0.attn." + n for n in (
        "wq.weight", "wq.bias", "wk.weight", "wv.weight", "wv.bias", "wo.weight", "wo.bias")]


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

    base, _ = make_model(tiny_cfg(ablation=baseline_only()))
    assert base.hr_features(batch, base.encoder.embed(batch["clip"])) == (None, None)


# -- gating --------------------------------------------------------------------


def test_fresh_full_model_matches_baseline_captions():
    # exact by construction: shared named init streams for the shared
    # modules, and every fusion gate starts closed
    cfg = tiny_cfg()
    gap = gating_gap(make_model(cfg)[0], cfg, TA)
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


def test_backward_keeps_only_leaf_gradients_and_no_two_share_a_buffer():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    loss, _ = model.forward_train(random_batch(cfg, vocab), box_weight=1.0)
    model.zero_grad()
    tape = loss.backward()
    # interior gradients and closures are dropped once their closures have run
    interior = [n for n in tape.nodes if type(n) is Node]
    assert interior and all(n.grad is None and n._backward is None for n in interior)
    on_tape = {id(n) for n in tape.nodes}
    trained = {name: p for g in model.param_groups(hr_lr_mult=4.0) for name, p in g["params"].items()}
    missing = [name for name, p in trained.items() if id(p) in on_tape and p.grad is None]
    assert missing == []
    grads = [p.grad for _, p in model.named_parameters() if p.grad is not None]
    assert len(grads) == len(trained)  # the pinned highlighter is never reached
    shared = [(i, j) for i in range(len(grads)) for j in range(i + 1, len(grads))
              if np.shares_memory(grads[i], grads[j])]
    assert shared == []


def _captured(obj, seen):
    """`obj` and everything its closure cells reach, through nested helpers too."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _captured(item, seen)
    for cell in getattr(obj, "__closure__", None) or ():
        try:
            contents = cell.cell_contents
        except ValueError:  # an unassigned cell
            continue
        yield from _captured(contents, seen)


def test_the_graph_holds_nodes_not_op_outputs():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    loss, _ = model.forward_train(random_batch(cfg, vocab), box_weight=1.0)
    tape = ComputationTape.trace(loss)
    interior = [n for n in tape.nodes if n._backward is not None]
    assert interior and all(type(n) is Node for n in interior)
    assert all(isinstance(n, Tensor) and n._grad_fn is None for n in tape.nodes if n._backward is None)
    # closures reach a tensor only to hand it a gradient: a trainable leaf
    seen = set()
    held = [o for n in interior for o in _captured(n._backward, seen) if isinstance(o, Tensor)]
    assert held and all(t.requires_grad and t._grad_fn is None for t in held)


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


# keys keep the test ids of the former no_qdh switch: "False" is the
# span-query head, "True" its no-QDH form
BOX_HEADS = {"False": {}, "True": {"ablation": Ablation(no_qdh=True)},
             "learned_query": {"head_variant": "learned_query"}}


@pytest.mark.parametrize("head", list(BOX_HEADS))
def test_training_and_decoding_agree_on_boxes(head):
    """Greedy ids fed back teacher-forced give decode's boxes, for every head.

    Decode reads the cached hidden states of its own greedy pass, which
    differ from a teacher-forced pass only in summation order."""
    cfg = tiny_cfg(**BOX_HEADS[head])
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    eos, pad = vocab.eos_id, vocab.pad_id
    # an EOS nudge ends rows at different lengths, some inside the noun phrase
    model.lm.head.bias.data[eos] += 3.5
    z, feats = model.encode_scene(batch)
    ids, _ = model.lm.greedy_decode(z, model.max_new, eos, pad, min_new=ANSWER_SPAN[1])
    assert (ids == pad).any()
    hidden, _ = model.lm.forward_hidden(z, ids)
    boxes = model.predict_box(hidden, feats).data
    decoded = np.array([rec["box"] for rec in model.decode(batch)])
    assert np.allclose(boxes, decoded, atol=1e-5, rtol=0)


GREEDY_CONFIGS = {
    "noun_phrase": {},
    "learned_query": {"head_variant": "learned_query"},
    "text_coords": {"head_variant": "text_coords"},
    "no_qdh": {"ablation": Ablation(no_qdh=True)},
    "baseline_only": {"ablation": baseline_only()},
}


@pytest.mark.parametrize("eos_nudge", [0.0, 3.5])
@pytest.mark.parametrize("config", list(GREEDY_CONFIGS))
def test_cached_greedy_ids_are_the_teacher_forced_argmax(config, eos_nudge):
    """Each greedy id up to its row's EOS is the argmax of the teacher-forced
    logits over the generated ids, and the cached hidden states are the
    teacher-forced ones."""
    cfg = tiny_cfg(**GREEDY_CONFIGS[config])
    model, vocab = make_model(cfg)
    # a nudge makes rows end at different steps, so later steps feed pad
    model.lm.head.bias.data[vocab.eos_id] += eos_nudge
    z, _ = model.encode_scene(random_batch(cfg, vocab))
    ids, hidden = model.lm.greedy_decode(z, model.max_new, vocab.eos_id, vocab.pad_id)
    ref_hidden, ref_logits = model.lm.forward_hidden(z, ids)
    assert hidden.shape == ref_hidden.shape
    assert np.allclose(hidden.data, ref_hidden.data, atol=1e-5, rtol=0)
    p = model.lm.prefix_len
    best = ref_logits.data[:, p - 1 : p - 1 + ids.shape[1], :].argmax(axis=-1)
    for row, want in zip(ids, best):
        ends = np.flatnonzero(row == vocab.eos_id)
        n = ends[0] + 1 if ends.size else len(row)
        assert np.array_equal(row[:n], want[:n])
        assert (row[n:] == vocab.pad_id).all()


def _decode_bits(records) -> list:
    return [(r["tokens"], r["box_source"],
             None if r["box"] is None else np.asarray(r["box"]).tobytes()) for r in records]


@pytest.mark.parametrize("config", list(GREEDY_CONFIGS))
def test_trunk_blocks_change_no_output_bit(config, monkeypatch):
    """A trunk run two samples at a time, with a ragged last block of one, on
    one worker and on two, gives the one-block run's tokens, boxes and logits
    bit for bit."""
    cfg = tiny_cfg(**GREEDY_CONFIGS[config])
    model, vocab = make_model(cfg)
    # a nudge makes rows end at different steps
    model.lm.head.bias.data[vocab.eos_id] += 3.5
    batch = random_batch(cfg, vocab, n=5)

    def run(block, n_workers):
        monkeypatch.setattr(model_module, "TRUNK_BLOCK", block)
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        return _decode_bits(model.decode(batch)), model.caption_logits(batch)

    dec_one, logits_one = run(5, 1)
    for n_workers in (1, 2):
        dec_two, logits_two = run(2, n_workers)
        assert len(dec_two) == 5
        assert dec_two == dec_one, n_workers
        assert logits_two.shape == logits_one.shape
        assert logits_two.tobytes() == logits_one.tobytes(), n_workers


def _trunk_threads(model, monkeypatch) -> set:
    """Records the thread of every `encode_scene` call on `model`."""
    seen = set()
    encode_scene = model.encode_scene

    def recorded(block):
        seen.add(threading.get_ident())
        return encode_scene(block)

    monkeypatch.setattr(model, "encode_scene", recorded, raising=False)
    return seen


def test_a_non_finite_block_reaches_the_caller_with_its_op(monkeypatch):
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    monkeypatch.setattr(model_module, "TRUNK_BLOCK", 2)
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    threads = _trunk_threads(model, monkeypatch)
    model.encoder.blocks[0].mlp.fc1.weight.data[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match="op 'linear'"):
        model.decode(random_batch(cfg, vocab, n=5))
    assert threads and threading.get_ident() not in threads


def test_more_workers_than_cores_switching_often_give_the_same_bits(monkeypatch):
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab, n=8)
    monkeypatch.setattr(model_module, "TRUNK_BLOCK", 1)
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    want = _decode_bits(model.decode(batch))
    monkeypatch.setattr(workers, "worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _decode_bits(model.decode(batch))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_without_the_blas_setter_one_worker_gives_the_same_bits(monkeypatch):
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    monkeypatch.setattr(model_module, "TRUNK_BLOCK", 2)
    batch = random_batch(cfg, vocab, n=5)
    pooled = _decode_bits(model.decode(batch)), model.caption_logits(batch).tobytes()
    monkeypatch.setattr(workers, "_SET_BLAS_THREADS", None)
    assert workers.worker_count() == 1
    threads = _trunk_threads(model, monkeypatch)
    alone = _decode_bits(model.decode(batch)), model.caption_logits(batch).tobytes()
    assert len(threads) == 1
    assert alone == pooled


# -- data-parallel training ------------------------------------------------------


def _train_grads(model, batch, box_weight=1.0):
    """(float parts, {name: gradient}) of one forward_train and backward."""
    loss, parts = model.forward_train(batch, box_weight)
    model.zero_grad()
    loss.backward()
    return parts, {name: p.grad for name, p in model.named_parameters() if p.grad is not None}


def _ragged_mask_batch(cfg, vocab, n):
    batch = random_batch(cfg, vocab, n=n)
    lengths = np.array([TA, 3, 7, TA, 5, 2, 9][:n])
    batch["answer_mask"] = (np.arange(TA)[None, :] < lengths[:, None]).astype(np.float32)
    return batch


@pytest.mark.parametrize("config", list(GREEDY_CONFIGS))
def test_blocked_training_sums_to_the_one_block_loss_and_gradients(config, monkeypatch):
    """At float64, blocks of two with a ragged last block of one and answers of
    different lengths give the parts and every gradient of one block to rel
    1e-10; no two parameters share a gradient buffer after the merge."""
    cfg = tiny_cfg(dtype="float64", **GREEDY_CONFIGS[config])
    model, vocab = make_model(cfg)
    batch = _ragged_mask_batch(cfg, vocab, n=5)
    monkeypatch.setattr(model_module, "TRAIN_BLOCK", 5)
    parts_one, grads_one = _train_grads(model, batch, box_weight=2.0)
    monkeypatch.setattr(model_module, "TRAIN_BLOCK", 2)
    parts_two, grads_two = _train_grads(model, batch, box_weight=2.0)
    assert parts_two.keys() == parts_one.keys()
    for key, value in parts_one.items():
        assert parts_two[key] == pytest.approx(value, rel=1e-10, abs=1e-300), key
    assert grads_two.keys() == grads_one.keys()
    # A key weight's gradient is a sum over keys whose part common to all keys
    # cancels (the softmax ignores a shift along the key axis), so a small
    # element of it can be mostly rounding; it alone gets an absolute floor,
    # far below any real gradient.
    floor = 1e-14 * max(np.abs(g).max() for g in grads_one.values())
    for name, g in grads_one.items():
        assert grads_two[name].dtype == np.float64
        atol = floor if name.endswith("wk.weight") else 0.0
        np.testing.assert_allclose(grads_two[name], g, rtol=1e-10, atol=atol, err_msg=name)
    grads = list(grads_two.values())
    assert not any(np.shares_memory(grads[i], grads[j])
                   for i in range(len(grads)) for j in range(i + 1, len(grads)))


@pytest.mark.parametrize("variant", HEAD_VARIANTS)
@pytest.mark.parametrize("row", [name for name, _ in GRID_ROWS])
def test_every_trained_parameter_gets_a_gradient(row, variant):
    """Every grid row with every head builds only parameters that the loss
    reaches: one step leaves a gradient on each trained parameter. The HR
    route is built exactly when a module reads it, and no attention carries
    a key bias, which the softmax over keys would cancel."""
    flags = dict(GRID_ROWS)[row]
    cfg = tiny_cfg(dtype="float64", head_variant=variant, ablation=Ablation(**vars(flags)))
    model, vocab = make_model(cfg)
    _, grads = _train_grads(model, random_batch(cfg, vocab))
    trained = [name for g in model.param_groups(1.0) for name in g["params"]]
    assert [name for name in trained if name not in grads] == []
    assert not any(name.endswith("wk.bias") for name, _ in model.named_parameters())
    reads_hr = hasattr(model, "incorporation") or hasattr(getattr(model, "detector", None), "ca")
    assert bool(model.d_i) == reads_hr


def test_training_gradients_do_not_depend_on_the_workers(monkeypatch):
    """Loss and gradients are the same bits on one worker, on two, on eight
    switching every microsecond, and on a second run."""
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = _ragged_mask_batch(cfg, vocab, n=7)
    monkeypatch.setattr(model_module, "TRAIN_BLOCK", 2)

    def bits(n_workers):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        parts, grads = _train_grads(model, batch)
        return parts, {name: g.tobytes() for name, g in grads.items()}

    want = bits(1)
    assert bits(2) == want
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert bits(8) == want
    finally:
        sys.setswitchinterval(interval)
    assert bits(2) == want


def test_block_graphs_share_no_interior_node_and_are_traced_once(monkeypatch):
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    monkeypatch.setattr(model_module, "TRAIN_BLOCK", 2)
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    loss, _ = model.forward_train(random_batch(cfg, vocab, n=5), box_weight=1.0)
    block_losses = loss._grad_fn._parents
    assert len(block_losses) == 3
    interior = [{id(n) for n in autograd._topological(b) if type(n) is Node} for b in block_losses]
    assert all(interior)
    assert all(not (interior[i] & interior[j]) for i in range(3) for j in range(i + 1, 3))

    traced = []
    trace = ComputationTape.trace.__func__

    def counted(cls, root):
        traced.append(root)
        return trace(cls, root)

    monkeypatch.setattr(ComputationTape, "trace", classmethod(counted))
    model.zero_grad()
    tape = loss.backward()
    assert traced == [loss]
    assert len(tape) == len({id(n) for n in tape.nodes})


def test_decode_builds_no_graph_and_leaves_no_gradient():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    z, feats = model.encode_scene_blocks(batch)
    assert not z.requires_grad and not feats.requires_grad
    model.decode(batch)
    assert [n for n, p in model.named_parameters() if p.grad is not None] == []


def test_trunk_blocks_bound_decode_peak_memory(monkeypatch):
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab, n=6)

    def peak_bytes(block):
        monkeypatch.setattr(model_module, "TRUNK_BLOCK", block)
        tracemalloc.start()
        try:
            model.decode(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = peak_bytes(6)
    per_sample = peak_bytes(1)
    assert per_sample < 0.5 * one_block, (per_sample, one_block)


def test_greedy_decode_runs_to_min_new():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    # every row ends at its first step
    model.lm.head.bias.data[vocab.eos_id] += 100.0
    z, _ = model.encode_scene(random_batch(cfg, vocab))
    eos, pad = vocab.eos_id, vocab.pad_id
    ids, _ = model.lm.greedy_decode(z, model.max_new, eos, pad)
    assert ids.tolist() == [[eos]] * 3
    ids, hidden = model.lm.greedy_decode(z, model.max_new, eos, pad, min_new=ANSWER_SPAN[1])
    assert ids.shape == (3, ANSWER_SPAN[1])
    assert (ids[:, 0] == eos).all() and (ids[:, 1:] == pad).all()
    assert hidden.shape == (3, model.lm.prefix_len + ANSWER_SPAN[1], cfg.model.d_l)


def test_float32_model_stays_float32():
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    z, _ = model.encode_scene(batch)
    hidden, logits = model.lm.forward_hidden(z, batch["answer_ids"])
    loss, _ = model.forward_train(batch, box_weight=1.0)
    for name, t in (("z", z), ("hidden", hidden), ("logits", logits), ("loss", loss)):
        assert t.dtype == np.float32, name


@pytest.mark.parametrize("variant", ["span_query", "learned_query", "baseline_only"])
def test_float32_model_is_the_float64_model_cast_once(variant):
    kw = ({"ablation": baseline_only()} if variant == "baseline_only"
          else {"head_variant": variant})
    wide, _ = make_model(tiny_cfg(dtype="float64", **kw))
    narrow, _ = make_model(tiny_cfg(dtype="float32", **kw))
    wide_params = dict(wide.named_parameters())
    assert list(wide_params) == [n for n, _ in narrow.named_parameters()]
    for name, p in narrow.named_parameters():
        assert wide_params[name].dtype == np.float64, name
        assert p.dtype == np.float32, name
        assert p.data.tobytes() == wide_params[name].data.astype(np.float32).tobytes(), name


def test_answer_rows_span_window():
    """The box head reads the hidden rows of the noun-phrase window, no other."""
    cfg = tiny_cfg()
    model, vocab = make_model(cfg)
    batch = random_batch(cfg, vocab)
    z, feats = model.encode_scene(batch)
    hidden, _ = model.lm.forward_hidden(z, batch["answer_ids"])
    box = model.predict_box(hidden, feats).data
    p = model.lm.prefix_len
    s, e = ANSWER_SPAN
    outside = hidden.data.copy()
    outside[:, : p + s] += 100.0
    outside[:, p + e :] += 100.0
    assert np.array_equal(model.predict_box(Tensor(outside), feats).data, box)
    inside = hidden.data.copy()
    inside[:, p + s : p + e] += 1.0
    assert not np.allclose(model.predict_box(Tensor(inside), feats).data, box)
