"""Training loop, evaluation, checkpointing, and the ablation grid runner.

A run is a pure function of (config, dataset): sample order, initialization,
and the highlight warmup all draw from named streams of the run seed, so
identical inputs give byte-identical metrics. Before the main loop starts,
a gate verifies the zero-disturbance property of a model with an HR route
(fresh, it must match a fresh caption-only baseline); training refuses to
start if not.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import replace

import numpy as np

from . import ops
from .autograd import NonFiniteError, concat
from .config import Ablation, RunConfig, config_hash, from_dict, to_dict
from .files import json_text, write_atomic, write_csv, write_json
from .grammar import build_vocab, format_location, tokenize, Vocabulary
from .metrics import evaluate_predictions
from .model import DualBranchModel
from .optim import AdamW, cosine_lr
from .rng import named_rng
from .scenes import SceneDataset, load_dataset, render_frame, save_dataset


class TrainAbort(RuntimeError):
    """Raised when the loss goes non-finite; carries a diagnostic dict."""

    def __init__(self, diagnostics: dict):
        super().__init__(f"training aborted: {diagnostics}")
        self.diagnostics = diagnostics


class GateError(RuntimeError):
    """The zero-disturbance gate failed before training started."""


def _step(model: DualBranchModel, opt: AdamW, phase: str, step: int, log, loss_fn) -> dict:
    """Step `opt` on the loss `loss_fn()` returns with its float parts; return the parts.
    A non-finite value is logged and raised as TrainAbort. The graph goes on return."""
    try:
        model.zero_grad()
        loss, parts = loss_fn()
        if not np.isfinite(parts["total"]):
            raise NonFiniteError(f"loss value {parts['total']}")
        loss.backward()
        opt.step()
    except NonFiniteError as err:
        diag = {"phase": phase, "step": step, "lr": opt.lr, "grad_norm": opt.grad_norm(),
                "error": str(err)}
        log(f"abort: non-finite value in {phase} step {step} (lr {opt.lr:.3e}, "
            f"grad norm {diag['grad_norm']:.3e}): {err}")
        raise TrainAbort(diag) from err
    return parts


# -- data plumbing -------------------------------------------------------------


def caption_text(meta: dict, variant: str) -> str:
    if variant == "text_coords":
        return meta["caption"] + " " + format_location(meta["box"])
    return meta["caption"]


def build_text_arrays(meta: list[dict], vocab: Vocabulary, variant: str):
    """Tokenized answers, padded, with an end token and a validity mask."""
    seqs = []
    for m in meta:
        seqs.append(vocab.encode(caption_text(m, variant)) + [vocab.eos_id])
    ta = max(len(s) for s in seqs)
    ids = np.full((len(seqs), ta), vocab.pad_id, dtype=np.int64)
    mask = np.zeros((len(seqs), ta), dtype=np.float32)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1.0
    return ids, mask, ta


def prepare_data(ds: SceneDataset, vocab: Vocabulary, variant: str) -> dict:
    ids, mask, ta = build_text_arrays(ds.meta, vocab, variant)
    return {
        "clips": ds.clips,
        "hrs": ds.hrs,
        "answer_ids": ids,
        "answer_mask": mask,
        "boxes": np.asarray([m["box"] for m in ds.meta], dtype=np.float32),
        "meta": ds.meta,
        "max_answer_len": ta,
    }


def make_batch(data: dict, idx: np.ndarray) -> dict:
    return {
        "clip": data["clips"][idx].astype(np.float32) / 255.0,
        "hr": data["hrs"][idx].astype(np.float32) / 255.0,
        "answer_ids": data["answer_ids"][idx],
        "answer_mask": data["answer_mask"][idx],
        "box": data["boxes"][idx],
    }


def load_or_generate(cfg: RunConfig, data_dir=None, log=print):
    """Fetch both splits, generating and caching them when needed.

    A cache missing a file of either split, as a run that stopped while
    writing it leaves one, is generated again. A cached split is used only
    if it was built with `cfg.scene`; otherwise `load_dataset` raises
    ValueError naming the fields that differ.
    """
    if data_dir:
        try:
            splits = tuple(load_dataset(data_dir, split, cfg.scene) for split in ("train", "test"))
        except FileNotFoundError:
            pass
        else:
            log(f"loaded dataset from {data_dir}")
            return splits
    log(f"generating dataset ({cfg.scene.n_train} train / {cfg.scene.n_test} test)")
    splits = []
    for split in ("train", "test"):
        start = time.perf_counter()
        splits.append(SceneDataset.generate(cfg.scene, split))
        secs = time.perf_counter() - start
        log(f"generated {split} split: {len(splits[-1])} scenes in {secs:.2f} s "
            f"({len(splits[-1]) / max(secs, 1e-9):.0f} scenes/s)")
    train_ds, test_ds = splits
    if data_dir:
        save_dataset(train_ds, cfg.scene, data_dir, "train")
        save_dataset(test_ds, cfg.scene, data_dir, "test")
        log(f"cached dataset at {data_dir}")
    return train_ds, test_ds


# -- pre-training gate ---------------------------------------------------------


def gating_gap(model: DualBranchModel, cfg: RunConfig, max_answer_len: int) -> float:
    """Max caption-logit gap between `model`, fresh from `cfg`, and a fresh
    baseline, on 8 random probe samples."""
    base_flags = Ablation(**vars(dict(GRID_ROWS)["baseline_only"]))
    base_cfg = replace(cfg, model=replace(cfg.model, ablation=base_flags))
    base = DualBranchModel(base_cfg, model.vocab, max_answer_len, cfg.train.seed)

    r = named_rng(cfg.train.seed, "gate/probe")
    s = cfg.scene
    ta = min(max_answer_len, 6)
    n_samples = 8
    batch = {
        "clip": r.random((n_samples, s.clip_len, s.lr_size, s.lr_size, 3)).astype(np.float32),
        "hr": r.random((n_samples, s.hr_size, s.hr_size, 3)).astype(np.float32),
        "answer_ids": r.integers(3, len(model.vocab), size=(n_samples, ta)).astype(np.int64),
        "answer_mask": np.ones((n_samples, ta), dtype=np.float32),
        "box": np.tile(np.asarray([0.3, 0.3, 0.6, 0.6], dtype=np.float32), (n_samples, 1)),
    }
    return float(np.abs(model.caption_logits(batch) - base.caption_logits(batch)).max())


# -- highlight warmup ----------------------------------------------------------


def background_frames(size: int, n: int, rng) -> np.ndarray:
    base = render_frame([], 0, size).astype(np.float32) / 255.0
    out = base[None] + rng.normal(0.0, 0.03, size=(n, size, size, 3))
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def pretrain_highlighter(model: DualBranchModel, data: dict, cfg: RunConfig, log) -> None:
    """Warm up the similarity head on object presence, then pin it.

    Positives are training frames (every scene contains objects); negatives
    are road renders with no objects plus pixel noise. With the dedicated
    extractor active it trains jointly with the head; in the shared-feature
    mode only the head trains. A non-finite value raises TrainAbort.
    """
    t = cfg.train
    steps = t.highlight_pretrain_steps
    if not hasattr(model, "highlighter") or steps <= 0:
        return
    r = named_rng(t.seed, "pretrain/highlight")
    prompt = model.localization_prompt_vec()
    half = max(t.batch_size // 2, 2)

    params = {name: p for name, p in model.named_parameters()
              if name.startswith(("cnn.", "highlighter."))}
    opt = AdamW(params, lr=t.highlight_pretrain_lr, weight_decay=0.0)

    n = data["clips"].shape[0]
    s = cfg.scene
    for step in range(steps):
        idx = r.integers(0, n, size=half)
        if hasattr(model, "cnn"):
            neg = {"hr": background_frames(s.hr_size, half, r)}
        else:
            bg = background_frames(s.lr_size, half, r)
            neg = {"clip": np.repeat(bg[:, None], s.clip_len, axis=1)}
        parts = _step(model, opt, "highlight_warmup", step, log,
                      lambda: presence_loss(model, make_batch(data, idx), neg, prompt))
        if step % 50 == 0 or step == steps - 1:
            log(f"highlight warmup step {step} loss {parts['total']:.4f}")
    model.zero_grad()


def presence_loss(model: DualBranchModel, pos: dict, neg: dict, prompt: np.ndarray):
    """The presence BCE, frames of `pos` labelled 1 and of `neg` 0, and its parts."""
    pos = model.presence_features(pos)
    neg = model.presence_features(neg)
    pos_logit = model.highlighter.presence_logits(pos, prompt)
    neg_logit = model.highlighter.presence_logits(neg, prompt)
    labels = np.concatenate(
        [np.ones(pos_logit.shape[0]), np.zeros(neg_logit.shape[0])]
    ).astype(np.float64)
    loss = ops.binary_cross_entropy_logits(concat([pos_logit, neg_logit], axis=0), labels)
    return loss, {"total": float(loss.data)}


# -- checkpointing -------------------------------------------------------------


# Format 3: five flat members split by a name index in `meta` (format 2 also
# held each attention's `wk.bias`; format 1, a member per parameter and moment).
CHECKPOINT_FORMAT = 3
CHECKPOINT_MEMBERS = ("params", "opt_m", "opt_v", "opt_t", "meta")


def _flat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0, dtype)


def _split(flat: np.ndarray, index: list, path: str, member: str) -> dict:
    """Cut `flat` into `{name: array of shape}` for each (name, shape) of `index`."""
    sizes = [math.prod(shape) for _, shape in index]
    if flat.ndim != 1 or flat.size != sum(sizes):
        raise ValueError(f"{path}: checkpoint member '{member}' holds {flat.size} values, "
                         f"but its index describes {sum(sizes)}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(index, parts)}


def save_checkpoint(path: str, model: DualBranchModel, opt: AdamW, cfg: RunConfig,
                    step: int, max_answer_len: int, rng_state: dict) -> None:
    params = list(model.named_parameters())
    values = np.concatenate([p.data.ravel() for _, p in params])
    state = list(opt.state.items())
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": to_dict(cfg),
        "config_hash": config_hash(cfg),
        "step": step,
        "max_answer_len": max_answer_len,
        "rng_state": rng_state,
        "param_shapes": [[name, list(p.shape)] for name, p in params],
        "opt_names": [name for name, _ in state],
    }
    arrays = {
        "params": values,
        "opt_m": _flat([m for _, (m, _, _) in state], values.dtype),
        "opt_v": _flat([v for _, (_, v, _) in state], values.dtype),
        "opt_t": np.asarray([t for _, (_, _, t) in state], dtype=np.int64),
        "meta": np.frombuffer(json_text(meta).encode(), dtype=np.uint8),
    }
    write_atomic(path, lambda fh: np.savez(fh, **arrays))


def load_checkpoint(path: str):
    """Rebuild (model, vocab, cfg, meta) from a checkpoint file.

    `meta["opt_arrays"]` holds the optimizer state keyed `opt/{m,v,t}/<name>`.
    Raises ValueError for a checkpoint of another format or whose arrays
    disagree with its index.
    """
    with np.load(path) as z:
        if sorted(z.files) != sorted(CHECKPOINT_MEMBERS):
            shown = ", ".join(z.files[:4]) + (", ..." if len(z.files) > 4 else "")
            raise ValueError(f"{path}: not a format {CHECKPOINT_FORMAT} checkpoint: it holds "
                             f"{len(z.files)} members ({shown}), not "
                             f"{', '.join(CHECKPOINT_MEMBERS)}; checkpoints of the older "
                             f"per-parameter layout cannot be loaded")
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: checkpoint format {meta.get('format')}, but this version "
                         f"reads format {CHECKPOINT_FORMAT}")
    cfg = from_dict(meta["config"])
    # hashed as stored: `from_dict` reads `"lr": 1` as 1.0, which hashes apart
    if config_hash(meta["config"]) != meta["config_hash"]:
        raise ValueError(f"{path}: its config does not match the config_hash stored with it")
    shapes = {name: tuple(shape) for name, shape in meta["param_shapes"]}
    names = meta["opt_names"]
    opt_index = [(name, shapes[name]) for name in names]
    moments = {k: _split(arrays[f"opt_{k}"], opt_index, path, f"opt_{k}") for k in "mv"}
    moments["t"] = _split(arrays["opt_t"], [(name, ()) for name in names], path, "opt_t")
    opt_state = {f"opt/{k}/{name}": moments[k][name] for name in names for k in "mvt"}
    vocab = build_vocab()
    # every parameter is overwritten below, so it is built without init draws
    model = DualBranchModel(cfg, vocab, meta["max_answer_len"], seed=None)
    model.load_state_dict(_split(arrays["params"], list(shapes.items()), path, "params"))
    return model, vocab, cfg, {**meta, "opt_arrays": opt_state}


def restore_optimizer(opt: AdamW, opt_arrays: dict) -> None:
    """Load the `opt/{m,v,t}/<name>` arrays into `opt.state`.

    Raises KeyError naming any parameter the optimizer does not train.
    """
    names = [k[len("opt/m/"):] for k in opt_arrays if k.startswith("opt/m/")]
    opt.load_state({n: tuple(opt_arrays[f"opt/{k}/{n}"] for k in "mvt") for n in names})


# -- training ------------------------------------------------------------------


def train_model(cfg: RunConfig, train_ds: SceneDataset, run_dir=None, log=print) -> dict:
    """Full training run. Returns model, vocab, and the per-step history.

    `log` receives each progress line. With `run_dir`, the config snapshot
    and the checkpoint are written there.
    """
    t = cfg.train
    vocab = build_vocab()
    data = prepare_data(train_ds, vocab, cfg.model.head_variant)
    ta = data["max_answer_len"]

    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
        write_json(os.path.join(run_dir, "config.snapshot"), to_dict(cfg))

    model = DualBranchModel(cfg, vocab, ta, t.seed)
    if model.d_i:
        gap = gating_gap(model, cfg, ta)
        log(f"zero-disturbance gate: max logit gap {gap:.3e}")
        if gap > 1e-6:
            msg = f"gate failed: logit gap {gap:.3e} exceeds 1e-6"
            log(msg)
            raise GateError(msg)
    pretrain_highlighter(model, data, cfg, log)

    groups = model.param_groups(t.hr_lr_mult, t.freeze_backbone)
    opt = AdamW(groups, lr=t.lr, weight_decay=t.weight_decay)
    order = named_rng(t.seed, "train/order")
    n = len(train_ds)
    history = []

    log(f"training: {t.steps} steps, batch {t.batch_size}, lr {t.lr:g} "
        f"(hr x{t.hr_lr_mult:g}), box weight {t.box_weight:g}, config {config_hash(cfg)[:12]}")
    for step in range(t.steps):
        lr = float(cosine_lr(step, t.steps, t.lr, t.lr_floor))
        opt.lr = lr
        idx = order.integers(0, n, size=t.batch_size)
        batch = make_batch(data, idx)
        parts = _step(model, opt, "train", step, log,
                      lambda: model.forward_train(batch, t.box_weight))
        history.append({"step": step, "lr": lr, **parts})
        if step % t.log_every == 0 or step == t.steps - 1:
            log(f"step {step} lr {lr:.3e} loss {parts['total']:.4f} "
                f"caption {parts['caption']:.4f} box {parts['box']:.4f}")

    rng_state = order.bit_generator.state
    if run_dir:
        save_checkpoint(os.path.join(run_dir, "checkpoint"), model, opt, cfg, t.steps, ta, rng_state)
        log(f"checkpoint written to {os.path.join(run_dir, 'checkpoint')}")
    return {
        "model": model,
        "vocab": vocab,
        "history": history,
        "max_answer_len": ta,
        "optimizer": opt,
        "rng_state": rng_state,
    }


# -- evaluation ----------------------------------------------------------------


def evaluation_samples(ds: SceneDataset, variant: str) -> list[dict]:
    """Each scene's manifest record, with its `id` and reference `caption_tokens`."""
    return [{**m, "id": i, "caption_tokens": tokenize(caption_text(m, variant))}
            for i, m in enumerate(ds.meta)]


def evaluate_model(model: DualBranchModel, test_ds: SceneDataset, batch_size: int) -> dict:
    data = prepare_data(test_ds, model.vocab, model.variant)
    samples = evaluation_samples(test_ds, model.variant)
    preds = []
    for start in range(0, len(test_ds), batch_size):
        idx = np.arange(start, min(start + batch_size, len(test_ds)))
        preds.extend(model.decode(make_batch(data, idx)))
    return evaluate_predictions(samples, preds)


# -- ablation grid -------------------------------------------------------------

GRID_ROWS = (
    ("full", Ablation()),
    ("no_hrse", Ablation(no_hrse=True)),
    ("no_qdh", Ablation(no_qdh=True)),
    ("no_im", Ablation(no_im=True)),
    ("no_em", Ablation(no_em=True)),
    # the caption-only baseline: no HR branch module at all
    ("baseline_only", Ablation(no_em=True, no_im=True, no_qdh=True, no_hrse=True)),
)

GRID_METRICS = ("miou", "bleu4", "avg", "risk_class_acc", "risk_class_acc_distractor",
                "iou_hr_critical", "risk_class_acc_hr_critical")
GRID_CSV_COLUMNS = ("name", "config_hash",
                    *(f"{key}_{stat}" for key in GRID_METRICS for stat in ("mean", "min", "max")))


def _row_config(cfg: RunConfig, flags: Ablation, seed: int) -> RunConfig:
    return replace(cfg, model=replace(cfg.model, ablation=Ablation(**vars(flags))),
                   train=replace(cfg.train, seed=seed))


def run_ablation_grid(cfg: RunConfig, seeds, train_ds: SceneDataset,
                      test_ds: SceneDataset, rows=None, run_dir=None, log=print) -> list[dict]:
    """One training run per (flag setting, seed); aggregates mean and spread.

    With `run_dir`, `ablation.json` and `ablation.csv` are written again after
    each finished row, so a run that aborts keeps the rows before it.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
    table = []
    for name, flags in rows or GRID_ROWS:
        reports = []
        for seed in seeds:
            row_cfg = _row_config(cfg, flags, seed)
            log(f"[{name} seed {seed}] training")
            result = train_model(row_cfg, train_ds, run_dir=None, log=log)
            rep = evaluate_model(result["model"], test_ds, batch_size=row_cfg.train.eval_batch)
            log(f"[{name} seed {seed}] miou {rep['miou']:.4f} bleu4 {rep['bleu4']:.4f}")
            reports.append(rep)
        row = {"name": name, "seeds": seeds,
               "config_hash": config_hash(_row_config(cfg, flags, seeds[0]))}
        for key in GRID_METRICS:
            vals = [r[key] for r in reports if key in r]
            if vals:
                row[f"{key}_mean"] = float(np.mean(vals))
                row[f"{key}_min"] = float(min(vals))
                row[f"{key}_max"] = float(max(vals))
        row["reports"] = reports
        table.append(row)
        if run_dir:
            write_json(os.path.join(run_dir, "ablation.json"), table)
            # a metric no seed reported is an empty cell
            write_csv(os.path.join(run_dir, "ablation.csv"),
                      [{k: r[k] for k in GRID_CSV_COLUMNS if k in r} for r in table],
                      GRID_CSV_COLUMNS)
    return table


def format_grid(table: list[dict]) -> str:
    """Fixed-width comparison table, scores scaled to percent."""
    header = f"{'setting':<14} {'mIoU':>16} {'BLEU-4':>16} {'class acc':>16}  config"
    lines = [header, "-" * len(header)]
    for row in table:
        def cell(key):
            if f"{key}_mean" not in row:
                return f"{'-':>16}"
            m = row[f"{key}_mean"] * 100
            lo = row[f"{key}_min"] * 100
            hi = row[f"{key}_max"] * 100
            return f"{m:6.1f} [{lo:5.1f},{hi:5.1f}]"
        lines.append(
            f"{row['name']:<14} {cell('miou')} {cell('bleu4')} {cell('risk_class_acc')}  "
            f"{row['config_hash'][:12]}"
        )
    return "\n".join(lines)
