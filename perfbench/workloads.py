"""The benchmark's two workloads, each driving the public hirisk API.

A workload builds its inputs from the workload seed in `setup` and checks
what set-up produced in `check_setup`. It runs one unit of work per `run_op`
(a train step or a decode batch) and checks that unit's outputs in `check`.
Checks run outside the timed region. `setup` and `run_op` report their layer
boundaries through the tracer they are handed; on untraced runs that tracer
does nothing.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np

from hirisk.autograd import NonFiniteError
from hirisk.config import ModelConfig, RunConfig, SceneConfig, TrainConfig
from hirisk.grammar import build_vocab
from hirisk.metrics import box_is_valid, evaluate_predictions
from hirisk.model import DualBranchModel
from hirisk.optim import AdamW, cosine_lr
from hirisk.rng import named_rng
from hirisk.scenes import SceneDataset, load_dataset, save_dataset
from hirisk.train import (
    evaluation_samples,
    load_checkpoint,
    make_batch,
    prepare_data,
    restore_optimizer,
    save_checkpoint,
)

# Longest answer the default caption grammar produces, in tokens plus the end
# token (35 in 3000 generated scenes). The decode model is built for it, so
# max_new is 39 whatever captions a small split happens to hold.
MAX_ANSWER_LEN = 35

SEED_STRIDE = 100_000


def run_config(seed: int, tiny: bool) -> RunConfig:
    """The default RunConfig, or the tiny shapes of the unit tests."""
    if not tiny:
        cfg = RunConfig()
    else:
        cfg = RunConfig(
            scene=SceneConfig(clip_len=4, lr_size=16, hr_size=64),
            model=ModelConfig(patch=8, d_v=16, n_layers=2, n_heads=2, adapter_dim=4,
                              n_queries=4, d_l=32, lm_layers=1, lm_heads=2, cnn_width=4,
                              qdh_dim=16, qdh_heads=2),
            train=TrainConfig(batch_size=4, eval_batch=6),
        )
    # far-apart scene seeds, so two workload seeds share no scenes
    cfg.scene.seed = seed * SEED_STRIDE
    cfg.train.seed = seed
    return cfg


class Checks:
    """Counts output checks; a failed one keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TrainWorkload:
    """Forward, backward and AdamW steps in a fixed seeded order."""

    item = "sample"
    min_ops = 20
    warmup_ops = 2
    # train_loss is the loss of this step, after this many AdamW updates
    loss_step = 10

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.cfg = run_config(seed, tiny)
        self.cfg.scene.n_train = 16 if tiny else 64

    def setup(self, tr) -> None:
        cfg, t = self.cfg, self.cfg.train
        self.vocab = build_vocab()
        with tr.span("scenes.generate"):
            ds = SceneDataset.generate(cfg.scene, "train")
        self.data = prepare_data(ds, self.vocab, cfg.model.head_variant)
        self.model = DualBranchModel(cfg, self.vocab, self.data["max_answer_len"], t.seed)
        self.opt = AdamW(self.model.param_groups(t.hr_lr_mult, t.freeze_backbone),
                         lr=t.lr, weight_decay=t.weight_decay)
        self.order = named_rng(t.seed, "train/order")
        self.step = 0
        self.losses: list[float] = []

    def check_setup(self, checks: Checks, tr) -> None:
        pass

    def run_op(self, tr) -> int:
        t = self.cfg.train
        self.opt.lr = float(cosine_lr(self.step, t.steps, t.lr, t.lr_floor))
        idx = self.order.integers(0, len(self.data["clips"]), size=t.batch_size)
        self.step += 1
        with tr.span("train.make_batch"):
            batch = make_batch(self.data, idx)
        try:
            with tr.span("model.forward_train"):
                loss, parts = self.model.forward_train(batch, t.box_weight)
        except NonFiniteError:
            self.losses.append(float("nan"))
            return t.batch_size
        self.model.zero_grad()
        tr.backward(loss)
        with tr.span("optim.step"):
            self.opt.step()
        self.losses.append(parts["total"])
        return t.batch_size

    def check(self, checks: Checks, tr) -> None:
        checks.expect(bool(np.isfinite(self.losses[-1])), f"non-finite loss at step {self.step - 1}")

    def report(self) -> dict:
        loss = self.losses[self.loss_step] if len(self.losses) > self.loss_step else None
        return {"train_loss": loss, "train_loss_step": self.loss_step, "steps": self.step,
                "max_answer_len": self.data["max_answer_len"]}


class DecodeWorkload:
    """`hirisk evaluate` on a generated test split with fresh weights.

    Set-up writes the split and a checkpoint, then loads both back as
    `hirisk evaluate` does. Each op greedy-decodes one batch of the program's
    own eval size; the op that ends a pass over the split scores it.
    """

    item = "sample"
    # a batch of 50 takes about 8 s, so a run holds only a few
    min_ops = 3
    warmup_ops = 1
    # the test split is this many eval batches; the op that ends a pass
    # over it scores the whole split once, as evaluate_model does
    split_batches = 2

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.cfg = run_config(seed, tiny)
        self.batch = self.cfg.train.eval_batch
        self.cfg.scene.n_test = self.split_batches * self.batch
        self.dir = workdir
        self.ckpt = os.path.join(workdir, "checkpoint")

    def setup(self, tr) -> None:
        cfg = self.cfg
        os.makedirs(self.dir, exist_ok=True)
        with tr.span("scenes.generate"):
            self.generated = SceneDataset.generate(cfg.scene, "test")
        with tr.span("scenes.save_dataset"):
            save_dataset(self.generated, cfg.scene, self.dir, "test")
        self.saved_model, opt = model_with_moments(cfg)
        self.rng_state = named_rng(cfg.train.seed, "train/order").bit_generator.state
        with tr.span("train.save_checkpoint"):
            save_checkpoint(self.ckpt, self.saved_model, opt, cfg, 0, MAX_ANSWER_LEN,
                            self.rng_state)
        with tr.span("train.load_checkpoint"):
            self.model, self.vocab, _, self.meta = load_checkpoint(self.ckpt)
        with tr.span("scenes.load_dataset"):
            ds = load_dataset(self.dir, "test")
        self.ds = ds
        self.data = prepare_data(ds, self.vocab, self.model.variant)
        self.samples = evaluation_samples(ds, self.model.variant)
        self.n_batches = 0
        self.pass_preds: list[dict] = []
        self.first_pass: list[list[str] | None] = [None] * len(self.samples)
        self.tokens_emitted = 0

    def check_setup(self, checks: Checks, tr) -> None:
        made, back = self.generated, self.ds
        checks.expect(same_bits(made.clips, back.clips) and same_bits(made.hrs, back.hrs),
                      "reloaded test split arrays differ")
        checks.expect(made.meta == back.meta, "reloaded test split metadata differs")
        saved = dict(self.saved_model.named_parameters())
        loaded = dict(self.model.named_parameters())
        checks.expect(
            loaded.keys() == saved.keys()
            and all(same_bits(p.data, loaded[n].data) for n, p in saved.items()),
            "reloaded parameters differ",
        )
        checks.expect(self._optimizer_roundtrips(),
                      "optimizer state does not survive a save, load and save")
        tr.add("scenes.bytes_written", _tree_bytes(os.path.join(self.dir, "test"))
               + os.path.getsize(os.path.join(self.dir, "test_manifest.json")))
        tr.add("train.checkpoint_bytes", os.path.getsize(self.ckpt))
        shutil.rmtree(self.dir)
        # decoding needs only the loaded model and split
        self.generated = self.saved_model = self.meta = None

    def _optimizer_roundtrips(self) -> bool:
        """Restore the loaded state into a fresh optimizer, save it again and
        compare both files array by array, through the public API only."""
        t = self.cfg.train
        opt_arrays = self.meta["opt_arrays"]
        opt = AdamW(self.model.param_groups(t.hr_lr_mult, t.freeze_backbone),
                    lr=t.lr, weight_decay=t.weight_decay)
        n_params = sum(len(g["params"]) for g in opt.groups)
        restore_optimizer(opt, opt_arrays)
        again = os.path.join(self.dir, "checkpoint.again")
        save_checkpoint(again, self.model, opt, self.cfg, 0, MAX_ANSWER_LEN, self.rng_state)
        with np.load(self.ckpt) as first, np.load(again) as second:
            same = first.files == second.files and all(
                same_bits(first[k], second[k]) for k in first.files)
        return same and len(opt_arrays) == 3 * n_params

    def run_op(self, tr) -> int:
        k = self.n_batches % self.split_batches
        self.idx = np.arange(k * self.batch, (k + 1) * self.batch)
        self.n_batches += 1
        if k == 0:
            self.pass_preds = []
        with tr.span("train.make_batch"):
            batch = make_batch(self.data, self.idx)
        with tr.span("model.decode"):
            self.preds = self.model.decode(batch)
        self.pass_preds.extend(self.preds)
        self.scores = None
        if k == self.split_batches - 1:
            with tr.span("metrics.evaluate"):
                self.scores = evaluate_predictions(self.samples, self.pass_preds)
        return self.batch

    def check(self, checks: Checks, tr) -> None:
        ids = self.vocab.token_to_id
        if self.scores is not None:
            checks.expect(self.scores["n"] == len(self.samples),
                          "evaluation scored the wrong sample count")
        for i, pred in zip(self.idx, self.preds):
            checks.expect(box_is_valid(pred["box"]), f"invalid box for sample {i}")
            checks.expect(all(tok in ids for tok in pred["tokens"]),
                          f"token outside the vocabulary for sample {i}")
            self.tokens_emitted += len(pred["tokens"])
            if self.first_pass[i] is None:
                self.first_pass[i] = pred["tokens"]
            else:
                checks.expect(pred["tokens"] == self.first_pass[i],
                              f"sample {i} decoded differently on a later pass")

    def report(self) -> dict:
        ids = self.vocab.token_to_id
        digest = None
        if all(toks is not None for toks in self.first_pass):
            h = hashlib.sha256()
            for toks in self.first_pass:
                h.update(np.asarray([ids[t] for t in toks] + [-1], dtype=np.int64).tobytes())
            digest = h.hexdigest()
        return {"decode_token_sha256": digest, "batches": self.n_batches,
                "batch_size": self.batch, "split_samples": len(self.samples),
                "max_new": self.model.max_new,
                "tokens_per_sample": self.tokens_emitted / (self.n_batches * self.batch)}


def model_with_moments(cfg: RunConfig):
    """The seed-initialised model and an AdamW holding moment state.

    The optimizer takes one step on seeded gradients, so a checkpoint carries
    m, v and t as it would mid-training, without any model compute. The
    weights are then put back, so decoding runs on seed-initialised weights.
    """
    t = cfg.train
    model = DualBranchModel(cfg, build_vocab(), MAX_ANSWER_LEN, t.seed)
    opt = AdamW(model.param_groups(t.hr_lr_mult, t.freeze_backbone),
                lr=t.lr, weight_decay=t.weight_decay)
    r = named_rng(t.seed, "bench/grads")
    initial = [p.data.copy() for p in model.parameters()]
    for p in model.parameters():
        p.grad = r.normal(0.0, 1e-3, size=p.shape).astype(p.dtype)
    opt.step()
    for p, w in zip(model.parameters(), initial):
        p.data[...] = w
    model.zero_grad()
    return model, opt


def _tree_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


WORKLOADS = {"train": TrainWorkload, "decode": DecodeWorkload}
