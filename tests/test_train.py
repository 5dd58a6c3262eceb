"""Training loop: determinism, checkpoints, gate, abort, ablation grid."""

import csv
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from hirisk import model as model_module, ops, workers
from hirisk.autograd import NonFiniteError, Tensor
from hirisk.config import (
    Ablation,
    RunConfig,
    SceneConfig,
    TrainConfig,
    config_hash,
)
from hirisk.files import json_text
from hirisk.grammar import build_vocab, tokenize
from hirisk.model import DualBranchModel
from hirisk.optim import AdamW
from hirisk.rng import named_rng
from hirisk.scenes import SceneDataset, load_dataset, save_dataset
from hirisk.train import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_MEMBERS,
    GateError,
    TrainAbort,
    _step,
    evaluate_model,
    evaluation_samples,
    load_checkpoint,
    load_or_generate,
    make_batch,
    prepare_data,
    pretrain_highlighter,
    restore_optimizer,
    run_ablation_grid,
    save_checkpoint,
    train_model,
)
from tiny_model import baseline_only, tiny_model

quiet = lambda s: None


def tiny_cfg(**train_kw) -> RunConfig:
    scene = SceneConfig(n_train=16, n_test=6, clip_len=4, lr_size=16, hr_size=64, seed=3)
    train_kw.setdefault("steps", 5)
    train_kw.setdefault("batch_size", 4)
    train_kw.setdefault("highlight_pretrain_steps", 4)
    train_kw.setdefault("log_every", 100)
    train_kw.setdefault("eval_batch", 6)
    return RunConfig(model=tiny_model(), scene=scene, train=TrainConfig(**train_kw))


@pytest.fixture(scope="module")
def tiny_data():
    cfg = tiny_cfg()
    return (SceneDataset.generate(cfg.scene, "train"),
            SceneDataset.generate(cfg.scene, "test"))


def test_train_returns_history_and_checkpoint(tmp_path, tiny_data):
    cfg = tiny_cfg()
    run_dir = str(tmp_path / "run")
    out = train_model(cfg, tiny_data[0], run_dir=run_dir, log=quiet)
    assert len(out["history"]) == cfg.train.steps
    assert set(out["history"][0]) == {"step", "lr", "total", "caption", "box"}
    assert os.path.exists(os.path.join(run_dir, "config.snapshot"))
    assert os.path.exists(os.path.join(run_dir, "checkpoint"))


def test_identical_runs_give_identical_reports(tiny_data):
    train_ds, test_ds = tiny_data
    reports = []
    for _ in range(2):
        out = train_model(tiny_cfg(), train_ds, log=quiet)
        rep = evaluate_model(out["model"], test_ds, batch_size=6)
        reports.append(json_text(rep))
    assert reports[0] == reports[1]


def test_evaluate_is_deterministic(tiny_data):
    train_ds, test_ds = tiny_data
    out = train_model(tiny_cfg(), train_ds, log=quiet)
    a = json_text(evaluate_model(out["model"], test_ds, batch_size=6))
    b = json_text(evaluate_model(out["model"], test_ds, batch_size=3))
    # batching must not leak into the scores either
    assert a == b


def test_evaluation_samples_keep_the_slice_fields(tiny_data):
    test_ds = tiny_data[1]
    samples = evaluation_samples(test_ds, "span_query")
    for i, (s, m) in enumerate(zip(samples, test_ds.meta)):
        assert s == {**m, "id": i, "caption_tokens": tokenize(m["caption"])}


def test_checkpoint_round_trip_is_bit_exact(tmp_path, tiny_data):
    cfg = tiny_cfg()
    out = train_model(cfg, tiny_data[0], log=quiet)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, out["model"], out["optimizer"], cfg, cfg.train.steps,
                    out["max_answer_len"], out["rng_state"])
    model2, vocab2, cfg2, meta = load_checkpoint(path)
    assert config_hash(cfg2) == config_hash(cfg)
    assert meta["step"] == cfg.train.steps
    live = list(out["model"].named_parameters())
    loaded = list(model2.named_parameters())
    assert [n for n, _ in loaded] == [n for n, _ in live]
    for (name, p), (_, q) in zip(loaded, live):
        assert p.data.dtype == q.data.dtype and p.data.tobytes() == q.data.tobytes(), name


def test_checkpoint_load_makes_no_init_draws(tmp_path, tiny_data, monkeypatch):
    cfg, model, opt, ta = _stepped_model(tiny_data)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, ta, named_rng(0, "train/order").bit_generator.state)

    def no_stream(*args, **kwargs):
        raise AssertionError("load_checkpoint opened a random stream")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    model2, _, _, _ = load_checkpoint(path)
    live = dict(model.named_parameters())
    for name, p in model2.named_parameters():
        assert p.data.tobytes() == live[name].data.tobytes(), name


def _stepped_model(tiny_data, steps=1):
    """A tiny model and its optimizer after `steps` steps on one batch."""
    cfg = tiny_cfg()
    vocab = build_vocab()
    data = prepare_data(tiny_data[0], vocab, cfg.model.head_variant)
    t = cfg.train
    model = DualBranchModel(cfg, vocab, data["max_answer_len"], t.seed)
    opt = AdamW(model.param_groups(t.hr_lr_mult), lr=t.lr, weight_decay=t.weight_decay)
    for _ in range(steps):
        loss, _ = model.forward_train(make_batch(data, np.arange(t.batch_size)), t.box_weight)
        model.zero_grad()
        loss.backward()
        opt.step()
    return cfg, model, opt, data["max_answer_len"]


def test_checkpoint_is_five_flat_members(tmp_path, tiny_data):
    cfg, model, opt, ta = _stepped_model(tiny_data)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, ta, {})
    params = dict(model.named_parameters())
    n_values = sum(p.data.size for p in params.values())
    n_moments = sum(params[name].data.size for name in opt.state)
    with np.load(path) as z:
        assert z.files == list(CHECKPOINT_MEMBERS)
        assert z["params"].shape == (n_values,)
        assert z["opt_m"].shape == z["opt_v"].shape == (n_moments,)
        assert z["opt_t"].dtype == np.int64 and list(z["opt_t"]) == [1] * len(opt.state)
        meta = json.loads(bytes(z["meta"]).decode())
    assert meta["format"] == CHECKPOINT_FORMAT
    assert meta["param_shapes"] == [[name, list(p.shape)] for name, p in params.items()]
    assert meta["opt_names"] == list(opt.state)


def test_checkpoint_of_an_optimizer_with_no_state_loads(tmp_path, tiny_data):
    cfg, model, opt, ta = _stepped_model(tiny_data, steps=0)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 0, ta, {})
    model2, _, _, meta = load_checkpoint(path)
    assert meta["opt_arrays"] == {}
    opt2 = AdamW(model2.param_groups(cfg.train.hr_lr_mult))
    restore_optimizer(opt2, meta["opt_arrays"])
    assert opt2.state == {}
    live = dict(model.named_parameters())
    for name, p in model2.named_parameters():
        assert np.array_equal(p.data, live[name].data), name


def _rewrite(path, **members):
    """Write the members of the checkpoint at `path` back, changed by `members`."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays.update(members)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("fault", ["per_name_layout", "params_one_short", "opt_m_one_long",
                                   "another_format", "config_of_an_older_version",
                                   "config_edited"])
def test_load_rejects_a_checkpoint_its_index_does_not_describe(tmp_path, tiny_data, fault):
    cfg, model, opt, ta = _stepped_model(tiny_data)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, ta, {})
    with np.load(path) as z:
        params, opt_m, meta = z["params"], z["opt_m"], json.loads(bytes(z["meta"]).decode())
    if fault == "per_name_layout":
        arrays = {"param/" + name: p.data for name, p in model.named_parameters()}
        for name, (m, v, t) in opt.state.items():
            arrays.update({"opt/m/" + name: m, "opt/v/" + name: v, "opt/t/" + name: np.int64(t)})
        older = {k: meta[k] for k in ("config", "config_hash", "step", "max_answer_len",
                                      "rng_state")}
        arrays["meta"] = np.frombuffer(json.dumps(older).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        match = rf"not a format {CHECKPOINT_FORMAT} checkpoint: it holds \d+ members \(param/.*older"
    elif fault == "params_one_short":
        _rewrite(path, params=params[:-1])
        match = f"'params' holds {params.size - 1} values, but its index describes {params.size}"
    elif fault == "opt_m_one_long":
        _rewrite(path, opt_m=np.append(opt_m, opt_m[:1]))
        match = f"'opt_m' holds {opt_m.size + 1} values, but its index describes {opt_m.size}"
    elif fault == "another_format":
        meta["format"] = CHECKPOINT_FORMAT + 1
        _rewrite(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        match = (f"checkpoint format {CHECKPOINT_FORMAT + 1}, "
                 f"but this version reads format {CHECKPOINT_FORMAT}")
    elif fault == "config_of_an_older_version":
        # a field this version no longer has, such as the former box-head span switch
        meta["config"]["model"]["span_mode"] = "noun_phrase"
        _rewrite(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        match = "no config field 'model.span_mode'"
    elif fault == "config_edited":
        meta["config"]["train"]["lr"] *= 2
        _rewrite(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        match = "its config does not match the config_hash stored with it"
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


def test_a_checkpoint_with_an_int_in_a_float_field_loads(tmp_path, tiny_data):
    cfg, model, opt, ta = _stepped_model(tiny_data)
    cfg.train.weight_decay = 0  # built in Python: an int where a float is declared
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, ta, {})
    _, _, cfg2, meta = load_checkpoint(path)
    assert meta["config"]["train"]["weight_decay"] == 0
    assert cfg2.train.weight_decay == 0.0 and type(cfg2.train.weight_decay) is float


def test_a_stored_config_with_an_int_in_a_float_field_loads(tmp_path, tiny_data):
    """As written by a version that kept the `"lr": 1` of a JSON config as an int."""
    cfg, model, opt, ta = _stepped_model(tiny_data)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, ta, {})
    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode())
    meta["config"]["train"]["lr"] = 1
    compact = json.dumps(meta["config"], sort_keys=True, separators=(",", ":"))
    meta["config_hash"] = hashlib.sha256(compact.encode()).hexdigest()
    _rewrite(path, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8))
    _, _, cfg2, _ = load_checkpoint(path)
    assert cfg2.train.lr == 1.0 and type(cfg2.train.lr) is float


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path, tiny_data):
    """Stopping, reloading, and replaying must land on identical weights."""
    train_ds, _ = tiny_data
    cfg = tiny_cfg(steps=4, highlight_pretrain_steps=0)
    vocab = build_vocab()
    data = prepare_data(train_ds, vocab, cfg.model.head_variant)
    n = len(train_ds)
    t = cfg.train

    def fresh():
        model = DualBranchModel(cfg, vocab, data["max_answer_len"], t.seed)
        opt = AdamW(model.param_groups(t.hr_lr_mult), lr=t.lr, weight_decay=t.weight_decay)
        order = named_rng(t.seed, "train/order")
        return model, opt, order

    def step_once(model, opt, order):
        idx = order.integers(0, n, size=t.batch_size)
        loss, _ = model.forward_train(make_batch(data, idx), t.box_weight)
        model.zero_grad()
        loss.backward()
        opt.step()

    ref_model, ref_opt, ref_order = fresh()
    for _ in range(4):
        step_once(ref_model, ref_opt, ref_order)

    model, opt, order = fresh()
    for _ in range(2):
        step_once(model, opt, order)
    path = str(tmp_path / "mid")
    save_checkpoint(path, model, opt, cfg, 2, data["max_answer_len"],
                    order.bit_generator.state)

    model2, _, cfg2, meta = load_checkpoint(path)
    opt2 = AdamW(model2.param_groups(t.hr_lr_mult), lr=t.lr, weight_decay=t.weight_decay)
    restore_optimizer(opt2, meta["opt_arrays"])
    order2 = named_rng(t.seed, "train/order")
    order2.bit_generator.state = meta["rng_state"]
    for _ in range(2):
        step_once(model2, opt2, order2)

    ref = dict(ref_model.named_parameters())
    for name, p in model2.named_parameters():
        assert np.array_equal(p.data, ref[name].data), name


def _savez_fails_after_half_a_zip(monkeypatch) -> list:
    """Make `np.savez` write half a zip and raise; returns the files it wrote to."""
    written_to = []

    def savez_then_fail(file, **arrays):
        written_to.append(getattr(file, "name", None))
        file.write(b"PK\x03\x04 half a zip")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    return written_to


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, tiny_data, monkeypatch):
    cfg = tiny_cfg()
    vocab = build_vocab()
    data = prepare_data(tiny_data[0], vocab, cfg.model.head_variant)
    model = DualBranchModel(cfg, vocab, data["max_answer_len"], cfg.train.seed)
    opt = AdamW(model.param_groups(cfg.train.hr_lr_mult), lr=cfg.train.lr)
    path = str(tmp_path / "checkpoint")
    save_checkpoint(path, model, opt, cfg, 1, data["max_answer_len"], {})
    with open(path, "rb") as fh:
        before = fh.read()

    written_to = _savez_fails_after_half_a_zip(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, opt, cfg, 2, data["max_answer_len"], {})
    assert written_to == [path + ".tmp"]
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["checkpoint"]


def test_failed_dataset_write_keeps_the_previous_split(tmp_path, tiny_data, monkeypatch):
    cfg = tiny_cfg()
    old, new = tiny_data
    save_dataset(old, cfg.scene, str(tmp_path), "train")
    files = [tmp_path / "train" / "scenes.npz", tmp_path / "train_manifest.json"]
    before = [f.read_bytes() for f in files]

    written_to = _savez_fails_after_half_a_zip(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(new, cfg.scene, str(tmp_path), "train")
    assert written_to == [str(files[0]) + ".tmp"]
    assert [f.read_bytes() for f in files] == before
    assert sorted(os.listdir(tmp_path)) == ["train", "train_manifest.json"]
    assert os.listdir(tmp_path / "train") == ["scenes.npz"]
    back = load_dataset(str(tmp_path), "train")
    assert np.array_equal(back.clips, old.clips) and np.array_equal(back.hrs, old.hrs)
    assert back.meta == old.meta


def test_checkpoint_keeps_every_moment_of_the_optimizer_layout(tmp_path, tiny_data):
    """Moments survive save, load and restore even when the optimizer's groups
    differ from the ones the config would build."""
    cfg = tiny_cfg(freeze_backbone=False)
    vocab = build_vocab()
    data = prepare_data(tiny_data[0], vocab, cfg.model.head_variant)
    t = cfg.train
    model = DualBranchModel(cfg, vocab, data["max_answer_len"], t.seed)
    opt = AdamW(model.param_groups(t.hr_lr_mult, freeze_backbone=True), lr=t.lr)
    loss, _ = model.forward_train(make_batch(data, np.arange(t.batch_size)), t.box_weight)
    loss.backward()
    opt.step()
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, data["max_answer_len"], {})

    model2, _, _, meta = load_checkpoint(path)
    opt2 = AdamW(model2.param_groups(t.hr_lr_mult, freeze_backbone=True), lr=t.lr)
    restore_optimizer(opt2, meta["opt_arrays"])
    assert_same_state(opt2, opt)


def assert_same_state(opt2, opt):
    assert list(opt2.state) == list(opt.state) and opt.state
    for name, (m, v, t) in opt.state.items():
        m2, v2, t2 = opt2.state[name]
        assert np.array_equal(m2, m) and np.array_equal(v2, v) and t2 == t, name


def test_restore_ignores_the_group_layout(tmp_path, tiny_data):
    """State saved from two groups restores by name into one merged group
    listed in reverse order, and the next step matches bit for bit."""
    cfg = tiny_cfg(hr_lr_mult=1.0)
    vocab = build_vocab()
    data = prepare_data(tiny_data[0], vocab, cfg.model.head_variant)
    t = cfg.train
    batch = make_batch(data, np.arange(t.batch_size))

    def step_once(model, opt):
        loss, _ = model.forward_train(batch, t.box_weight)
        model.zero_grad()
        loss.backward()
        opt.step()

    model = DualBranchModel(cfg, vocab, data["max_answer_len"], t.seed)
    groups = model.param_groups(t.hr_lr_mult)
    assert len(groups) == 2
    opt = AdamW(groups, lr=t.lr, weight_decay=t.weight_decay)
    step_once(model, opt)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, model, opt, cfg, 1, data["max_answer_len"], {})

    model2, _, _, meta = load_checkpoint(path)
    merged = [item for g in model2.param_groups(t.hr_lr_mult) for item in g["params"].items()]
    opt2 = AdamW(dict(reversed(merged)), lr=t.lr, weight_decay=t.weight_decay)
    restore_optimizer(opt2, meta["opt_arrays"])
    assert_same_state(opt2, opt)

    step_once(model, opt)
    step_once(model2, opt2)
    live = dict(model.named_parameters())
    for name, p in model2.named_parameters():
        assert np.array_equal(p.data, live[name].data), name


@pytest.mark.parametrize("name", ["encoder.cls", "0/3"])
def test_restore_rejects_state_for_untrained_parameters(name):
    """A frozen backbone does not train encoder.cls; 0/3 is a key of the
    older checkpoint format that numbered moments by group and position."""
    cfg = tiny_cfg()
    model = DualBranchModel(cfg, build_vocab(), 8, cfg.train.seed)
    opt = AdamW(model.param_groups(cfg.train.hr_lr_mult, freeze_backbone=True))
    arrays = {f"opt/{k}/{name}": np.zeros(1) for k in "mvt"}
    with pytest.raises(KeyError, match=f"'{name}'"):
        restore_optimizer(opt, arrays)
    assert opt.state == {}


def test_freeze_backbone_keeps_trunk_at_init(tiny_data):
    cfg = tiny_cfg(steps=3, freeze_backbone=True)
    out = train_model(cfg, tiny_data[0], log=quiet)
    trained = out["model"]
    init = DualBranchModel(cfg, build_vocab(), out["max_answer_len"], cfg.train.seed)
    init_params = dict(init.named_parameters())

    backbone = ("encoder.patch_proj.", "encoder.blocks.", "encoder.final_ln.", "encoder.pooler.")
    adapter_moved = False
    for name, p in trained.named_parameters():
        if name.startswith(backbone) or name in ("encoder.cls", "encoder.pos"):
            assert np.array_equal(p.data, init_params[name].data), name
        if "adapters" in name and not np.array_equal(p.data, init_params[name].data):
            adapter_moved = True
    assert adapter_moved


def test_each_step_graph_is_freed_before_the_next_forward(tiny_data, monkeypatch):
    """Neither the highlight warmup nor the main loop keeps a step's loss,
    and with it the step's graph, alive into the next step's forward."""
    losses, stale = [], []

    def watched(fn):
        def wrapper(*args, **kwargs):
            stale.append(sum(ref() is not None for ref in losses))
            out = fn(*args, **kwargs)
            loss = out[0] if isinstance(out, tuple) else out
            losses.append(weakref.ref(loss.data))
            return out
        return wrapper

    monkeypatch.setattr(ops, "binary_cross_entropy_logits", watched(ops.binary_cross_entropy_logits))
    monkeypatch.setattr(DualBranchModel, "forward_train", watched(DualBranchModel.forward_train))
    cfg = tiny_cfg()
    train_model(cfg, tiny_data[0], log=quiet)
    assert len(losses) == cfg.train.highlight_pretrain_steps + cfg.train.steps
    assert stale == [0] * len(losses)
    assert all(ref() is None for ref in losses)


@pytest.mark.parametrize("ablation, n_models", [(Ablation(), 2), (baseline_only(), 1)])
def test_a_run_gates_the_model_it_trains(tiny_data, monkeypatch, ablation, n_models):
    """The gate compares the model the run trains with the one baseline it
    builds; a baseline run has no gate and builds only the model it trains."""
    built = []
    init = DualBranchModel.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DualBranchModel, "__init__", counted)
    cfg = tiny_cfg(steps=1, highlight_pretrain_steps=1)
    cfg.model.ablation = ablation
    out = train_model(cfg, tiny_data[0], log=quiet)
    assert len(built) == n_models
    assert out["model"] is built[0]


@pytest.mark.parametrize("variant, ablation, hr_route", [
    ("span_query", Ablation(), True),
    ("span_query", Ablation(no_im=True), True),  # the box head reads the route
    ("text_coords", Ablation(no_im=True), False),
    ("learned_query", Ablation(no_qdh=True, no_im=True), False),
])
def test_a_run_gates_and_warms_up_only_a_read_hr_route(tiny_data, variant, ablation, hr_route):
    cfg = tiny_cfg(steps=1, highlight_pretrain_steps=1)
    cfg.model.head_variant, cfg.model.ablation = variant, ablation
    lines = []
    model = train_model(cfg, tiny_data[0], log=lines.append)["model"]
    assert bool(model.d_i) == hasattr(model, "highlighter") == hr_route
    assert any(line.startswith("zero-disturbance gate") for line in lines) == hr_route
    assert any(line.startswith("highlight warmup") for line in lines) == hr_route


def _logs_one_abort(lines, diag) -> bool:
    aborts = [line for line in lines if line.startswith("abort: ")]
    return len(aborts) == 1 and aborts[0].startswith(
        f"abort: non-finite value in {diag['phase']} step {diag['step']} (lr ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exploding_lr_aborts_with_diagnostics(tiny_data):
    cfg = tiny_cfg(steps=30, lr=1e38)
    lines = []
    with pytest.raises(TrainAbort) as err:
        train_model(cfg, tiny_data[0], log=lines.append)
    diag = err.value.diagnostics
    assert set(diag) >= {"step", "lr", "grad_norm", "error"}
    assert diag["step"] < 30
    assert diag["phase"] == "train" and _logs_one_abort(lines, diag)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_highlight_warmup_aborts_with_diagnostics(tiny_data):
    cfg = tiny_cfg(highlight_pretrain_lr=1e38, highlight_pretrain_steps=30)
    lines = []
    with pytest.raises(TrainAbort) as err:
        train_model(cfg, tiny_data[0], log=lines.append)
    diag = err.value.diagnostics
    assert diag["phase"] == "highlight_warmup"
    assert set(diag) >= {"step", "lr", "grad_norm", "error"}
    assert diag["step"] < 30 and diag["lr"] == 1e38
    assert _logs_one_abort(lines, diag)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", ["forward", "backward"])
def test_a_non_finite_training_block_aborts_the_step_naming_its_op(tiny_data, monkeypatch, where):
    """A non-finite value in the second of three blocks, in its forward pass or
    in its backward sweep on a worker, reaches `_step` as one TrainAbort that
    names the op; no parameter keeps a gradient and the caller's BLAS thread
    count is put back."""
    cfg = tiny_cfg()
    vocab = build_vocab()
    data = prepare_data(tiny_data[0], vocab, cfg.model.head_variant)
    model = DualBranchModel(cfg, vocab, data["max_answer_len"], cfg.train.seed)
    opt = AdamW(model.param_groups(cfg.train.hr_lr_mult), lr=cfg.train.lr)
    batch = make_batch(data, np.arange(5))
    monkeypatch.setattr(model_module, "TRAIN_BLOCK", 2)
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    if where == "forward":
        batch["hr"][2] = 3e38  # the stem conv overflows on this sample only
        op = "conv2d"
    else:
        l1_loss, op = ops.l1_loss, "l1_loss"

        def l1_loss_failing_in_block_1(pred, target):
            out = l1_loss(pred, target)
            if np.array_equal(target[0], batch["box"][2]):
                def backward(g):
                    raise NonFiniteError(f"non-finite gradient in op '{op}'")
                out._grad_fn._backward = backward
            return out

        monkeypatch.setattr(ops, "l1_loss", l1_loss_failing_in_block_1)
    setter = workers._SET_BLAS_THREADS
    prev = setter(2) if setter is not None else None
    lines = []
    try:
        with pytest.raises(TrainAbort) as err:
            _step(model, opt, "train", 7, lines.append,
                  lambda: model.forward_train(batch, cfg.train.box_weight))
        if setter is not None:
            assert setter(2) == 2  # the setter returns the count it replaces
    finally:
        if setter is not None:
            setter(prev)
    diag = err.value.diagnostics
    assert f"op '{op}'" in diag["error"]
    assert _logs_one_abort(lines, diag)
    assert [name for name, p in model.named_parameters() if p.grad is not None] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_forward_failure_after_a_good_step_reports_no_gradient(tiny_data):
    """The abort of a step whose forward pass fails reports that step's
    gradient norm, 0, not the norm the step before left on the parameters."""
    cfg = tiny_cfg()
    vocab = build_vocab()
    data = prepare_data(tiny_data[0], vocab, cfg.model.head_variant)
    model = DualBranchModel(cfg, vocab, data["max_answer_len"], cfg.train.seed)
    opt = AdamW(model.param_groups(cfg.train.hr_lr_mult), lr=cfg.train.lr)
    batch = make_batch(data, np.arange(4))
    _step(model, opt, "train", 0, quiet, lambda: model.forward_train(batch, cfg.train.box_weight))
    assert opt.grad_norm() > 0.0
    batch["hr"][1] = 3e38  # the stem conv overflows
    lines = []
    with pytest.raises(TrainAbort) as err:
        _step(model, opt, "train", 1, lines.append,
              lambda: model.forward_train(batch, cfg.train.box_weight))
    diag = err.value.diagnostics
    assert diag["grad_norm"] == 0.0
    assert _logs_one_abort(lines, diag)


def test_gate_failure_refuses_to_train(tiny_data, monkeypatch):
    import hirisk.train as train_mod

    monkeypatch.setattr(train_mod, "gating_gap", lambda *a, **k: 1.0)
    with pytest.raises(GateError):
        train_model(tiny_cfg(), tiny_data[0], log=quiet)


def test_load_or_generate_caches_and_validates(tmp_path):
    cfg = tiny_cfg()
    data_dir = str(tmp_path / "cache")
    a_train, a_test = load_or_generate(cfg, data_dir=data_dir, log=quiet)
    b_train, b_test = load_or_generate(cfg, data_dir=data_dir, log=quiet)
    assert np.array_equal(a_train.clips, b_train.clips)
    assert np.array_equal(a_test.hrs, b_test.hrs)
    bad = tiny_cfg()
    bad.scene.n_train = 99
    with pytest.raises(ValueError):
        load_or_generate(bad, data_dir=data_dir, log=quiet)


def test_load_or_generate_logs_each_split_rate():
    cfg = tiny_cfg()
    cfg.scene.n_train, cfg.scene.n_test = 3, 2
    lines = []
    load_or_generate(cfg, log=lines.append)
    rates = [line for line in lines if line.endswith("scenes/s)")]
    assert [line.split(":")[0] for line in rates] == ["generated train split",
                                                       "generated test split"]
    assert "3 scenes in" in rates[0] and "2 scenes in" in rates[1]


def test_load_or_generate_regenerates_a_cache_missing_a_split(tmp_path):
    """A run that died between saving the train and the test split leaves a
    cache that the next run generates again instead of failing on."""
    cfg = tiny_cfg()
    cfg.scene.n_train, cfg.scene.n_test = 2, 1
    data_dir = tmp_path / "cache"
    load_or_generate(cfg, data_dir=str(data_dir), log=quiet)
    (data_dir / "test_manifest.json").unlink()
    got = load_or_generate(cfg, data_dir=str(data_dir), log=quiet)
    for ds, split in zip(got, ("train", "test")):
        fresh = SceneDataset.generate(cfg.scene, split)
        assert np.array_equal(ds.clips, fresh.clips) and np.array_equal(ds.hrs, fresh.hrs)
        assert ds.meta == fresh.meta
    assert (data_dir / "test_manifest.json").exists()


def test_load_or_generate_rejects_a_cache_of_another_seed(tmp_path):
    cfg = tiny_cfg()
    cfg.scene.n_train, cfg.scene.n_test = 2, 1
    data_dir = str(tmp_path / "cache")
    load_or_generate(cfg, data_dir=data_dir, log=quiet)
    cfg.scene.seed += 1
    with pytest.raises(ValueError, match="seed"):
        load_or_generate(cfg, data_dir=data_dir, log=quiet)


def test_ablation_grid_rows_and_artifacts(tmp_path, tiny_data):
    cfg = tiny_cfg(steps=2)
    rows = [("full", Ablation()), ("baseline_only", baseline_only())]
    run_dir = str(tmp_path / "grid")
    table = run_ablation_grid(cfg, [0], tiny_data[0], tiny_data[1],
                              rows=rows, run_dir=run_dir, log=quiet)
    assert [r["name"] for r in table] == ["full", "baseline_only"]
    for row in table:
        assert row["seeds"] == [0]
        assert len(row["config_hash"]) == 64
        assert row["miou_mean"] == row["miou_min"] == row["miou_max"]
    # the two rows trained different configs
    assert table[0]["config_hash"] != table[1]["config_hash"]
    assert os.path.exists(os.path.join(run_dir, "ablation.json"))
    assert os.path.exists(os.path.join(run_dir, "ablation.csv"))
    with open(os.path.join(run_dir, "ablation.json"), encoding="utf-8") as fh:
        assert [r["name"] for r in json.load(fh)] == ["full", "baseline_only"]


def test_an_aborted_grid_keeps_its_finished_rows(tmp_path, tiny_data, monkeypatch):
    import hirisk.train as train_mod

    real_train = train_mod.train_model

    def second_row_aborts(cfg, *args, **kwargs):
        result = real_train(cfg, *args, **kwargs)
        if result["model"].d_i == 0:  # the baseline builds no HR route
            raise TrainAbort({"phase": "train", "step": 0})
        return result

    monkeypatch.setattr(train_mod, "train_model", second_row_aborts)
    rows = [("full", Ablation()), ("baseline_only", baseline_only())]
    run_dir = tmp_path / "grid"
    with pytest.raises(TrainAbort):
        run_ablation_grid(tiny_cfg(steps=1), [0], tiny_data[0], tiny_data[1],
                          rows=rows, run_dir=str(run_dir), log=quiet)
    assert sorted(os.listdir(run_dir)) == ["ablation.csv", "ablation.json"]
    table = json.loads((run_dir / "ablation.json").read_text())
    assert [r["name"] for r in table] == ["full"]
    lines = (run_dir / "ablation.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("full,")


def test_a_grid_writes_a_metric_no_seed_reported_as_empty_cells(tmp_path):
    cfg = tiny_cfg(steps=1)
    cfg.scene.distractor_frac = cfg.scene.hr_critical_frac = 0.0
    train_ds, test_ds = (SceneDataset.generate(cfg.scene, split) for split in ("train", "test"))
    run_dir = tmp_path / "grid"
    (row,) = run_ablation_grid(cfg, [0], train_ds, test_ds, rows=[("full", Ablation())],
                               run_dir=str(run_dir), log=quiet)
    with open(run_dir / "ablation.csv", newline="", encoding="utf-8") as fh:
        (cells,) = csv.DictReader(fh)
    for key in ("risk_class_acc_distractor", "iou_hr_critical", "risk_class_acc_hr_critical"):
        assert f"{key}_mean" not in row
        assert [cells[f"{key}_{stat}"] for stat in ("mean", "min", "max")] == ["", "", ""]
    assert float(cells["miou_mean"]) == row["miou_mean"]


def test_grid_needs_a_seed(tiny_data):
    with pytest.raises(ValueError):
        run_ablation_grid(tiny_cfg(), [], tiny_data[0], tiny_data[1], log=quiet)


def test_highlight_warmup_finds_objects():
    """After warmup the map should peak on an object, not on background."""
    scene = SceneConfig(n_train=48, n_test=4, clip_len=4, lr_size=16, hr_size=64,
                        seed=11, hr_critical_frac=0.0, distractor_frac=0.0, max_clutter=0)
    cfg = RunConfig(model=tiny_model(), scene=scene,
                    train=TrainConfig(highlight_pretrain_steps=150, batch_size=8))
    ds = SceneDataset.generate(scene, "train")
    vocab = build_vocab()
    data = prepare_data(ds, vocab, "span_query")
    model = DualBranchModel(cfg, vocab, data["max_answer_len"], 0)
    pretrain_highlighter(model, data, cfg, quiet)

    prompt = model.localization_prompt_vec()
    grid = scene.hr_size // 16
    hits = 0
    for i in range(len(ds)):
        batch = make_batch(data, np.arange(i, i + 1))
        feats = model.cnn(Tensor(batch["hr"]))
        heat = model.highlighter.heatmap(feats.data, prompt)[0]
        r, c = np.unravel_index(np.argmax(heat), heat.shape)
        x1, y1, x2, y2 = ds.meta[i]["box"]
        cx, cy = (c + 0.5) / grid, (r + 0.5) / grid
        pad = 1.0 / grid  # one cell of slack around the box
        if x1 - pad <= cx <= x2 + pad and y1 - pad <= cy <= y2 + pad:
            hits += 1
    assert hits / len(ds) >= 0.5
