"""Joint risk captioning and localization model.

Two routes over one driving clip. The low-resolution route runs every frame
through the patch transformer and pools a handful of query tokens that a
small autoregressive decoder turns into the risk caption. The
high-resolution route looks at the last frame only: a residual CNN builds a
feature grid, a prompt-driven highlight suppresses background cells, and the
result feeds both the gated incorporation sites inside the video encoder and
the box detection head.

The box head reads the decoder's hidden states of the risk noun phrase, the
grammar's fixed answer window `ANSWER_SPAN`, in training and decoding alike.

Every optional piece can be switched off through the ablation flags. The
high-resolution route is built only when something reads it: the
incorporation sites, or a box head that attends over its features. Without
it the model is the video-only captioner plus, for the query heads, the
no-QDH box head, which regresses the box from the pooled noun phrase alone.
Only constructors read the flags; later code checks which modules they built.
"""

from __future__ import annotations

import functools

import numpy as np

from .autograd import Tensor, concat, join_blocks, no_grad
from .config import HR_STRIDE, RunConfig
from .encoder import VideoEncoder, incorporation_sites
from .grammar import ANSWER_SPAN, INSTRUCTION_PROMPT, LOCALIZATION_PROMPT, Vocabulary, parse_caption
from .hrbranch import (
    IncorporationSite,
    LearnedQueryDetector,
    ObjectHighlighter,
    SpanQueryDetector,
    SpatialExtractor,
    apply_highlight,
)
from .lm import CaptionDecoder
from .modules import Module, ModuleList, Parameter
from .rng import named_rng
from .workers import map_blocks

# Extra decode steps past the longest training answer, so a slightly
# rambling generation still reaches its end-of-sequence token.
DECODE_MARGIN = 4

# Samples per trunk block at inference; `hirisk.workers` runs one block per
# CPU at a time. The encoder and the HR CNN have no cross-sample op, so the
# worker count changes no bit. The block size changes only the GEMM shapes,
# from which OpenBLAS picks its kernels: decode tokens, boxes and caption
# logits of perfbench seeds 0-3 are the same bits at 6 as at 8, but the tiny
# test model's CNN grid moves by 1.5e-6 between 8 and 4. A block bounds the
# transients each worker holds (a [B*clip_len*(G*G+1), 4*d_v] MLP hidden, a
# [B, hr/2, hr/2, cnn_width] stem), and it is the only bound on the stem's
# [B*(hr/2)^2, 27] im2col matrix: `ops.conv2d` forms it for all B at once.
# perfbench decode of 50-scene default-config batches on 2 CPUs (seed 0, 30 s
# runs, two each): 6 gives 96-104 items/s at 125 MB peak RSS, against 82-88
# at 4 and 84-85 at 3 (also 125 MB) and 95-101 at 8 (142 MB); serial blocks
# of 8 gave 65-73 items/s at 130.5 MB.
TRUNK_BLOCK = 6

# Samples per block of a training step: each block's forward pass and its
# backward sweep run on one `hirisk.workers` thread at a time. The worker
# count changes no bit; the block size sets the order in which the block
# losses and gradients are summed, and the GEMM shapes. perfbench train of
# the default B=16 step on 2 CPUs (seed 0, 30 s runs, two each): 8 gives
# 45.5-46.7 items/s at 298-299 MB peak RSS, against 39.6-40.8 at 6 (blocks of
# 6, 6 and 4, so one worker idles) at 288 MB and 37.3-39.9 at 4 at 283-286
# MB; the serial step (one graph, BLAS on both CPUs) gave 28.1-32.1 items/s
# at 300-301 MB.
TRAIN_BLOCK = 8

# The scene fields that set the model's input shapes.
MODEL_SCENE_FIELDS = ("clip_len", "lr_size", "hr_size")

# Parameters of the high-resolution perception route (extractor, its grid
# positions, incorporation sites, detector), trained at `hr_lr_mult`.
HR_BRANCH_PARAMS = ("cnn.", "hr_pos", "incorporation.", "detector.")
# The video backbone a frozen-backbone run pins: patch embedding, positions,
# transformer blocks, final norm and pooler.
BACKBONE_PARAMS = ("encoder.patch_proj.", "encoder.cls", "encoder.pos", "encoder.blocks.",
                   "encoder.final_ln.", "encoder.pooler.")


class DualBranchModel(Module):
    """Video captioner with a high-resolution perception branch.

    Parameters are drawn from named streams of `seed`; seed None builds them
    as zeros, for a model whose parameters are loaded next.
    """

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, max_answer_len: int, seed: int | None):
        super().__init__()
        m = cfg.model
        flags = m.ablation
        self.variant = m.head_variant
        self.vocab = vocab

        self.encoder = VideoEncoder(cfg.scene.lr_size, cfg.scene.clip_len, m, seed)
        prompt_ids = np.asarray(vocab.encode(INSTRUCTION_PROMPT), dtype=np.int64)
        self.loc_prompt_ids = np.asarray(vocab.encode(LOCALIZATION_PROMPT), dtype=np.int64)
        self.max_new = max_answer_len + DECODE_MARGIN
        max_seq = m.n_queries + len(prompt_ids) + self.max_new
        self.lm = CaptionDecoder(len(vocab), max_seq, m.n_queries, prompt_ids, m, seed)

        # High-resolution route, built only when the incorporation sites or an
        # attending box head read it. d_i is the width they attend over; without
        # the extractor the features are the encoder's patch embeddings.
        head_reads_hr = self.variant != "text_coords" and not flags.no_qdh
        d_i = 0
        if head_reads_hr or not flags.no_im:
            if flags.no_hrse:
                d_i = m.d_v
            else:
                self.cnn = SpatialExtractor(m.cnn_width, named_rng(seed, "init/hr/cnn"))
                d_i = self.cnn.out_channels
                # where-am-I signal for the flattened grid; without it the
                # cross-attention pools are position blind and boxes cannot
                # be regressed past the dataset mean
                cells = (cfg.scene.hr_size // HR_STRIDE) ** 2
                self.hr_pos = Parameter(named_rng(seed, "init/hr/pos").normal(0.0, 0.02, (cells, d_i)))
            if not flags.no_em:
                self.highlighter = ObjectHighlighter(d_i, m.d_l, named_rng(seed, "init/hr/highlight"))
            if not flags.no_im:
                self.incorporation = ModuleList(
                    IncorporationSite(m.d_v, d_i, named_rng(seed, f"init/hr/incorporate{j}"))
                    for j in range(len(incorporation_sites(m.n_layers)))
                )
        self.d_i = d_i  # 0: no route

        r_head = named_rng(seed, "init/hr/head")
        if self.variant == "learned_query" and head_reads_hr:
            self.detector = LearnedQueryDetector(
                m.n_learned_queries, m.d_l, d_i, m.qdh_dim, r_head, heads=m.qdh_heads
            )
        elif self.variant != "text_coords":  # text_coords: the caption carries the coordinates
            d_q = d_i if head_reads_hr else None
            self.detector = SpanQueryDetector(m.d_l, d_q, m.qdh_dim, r_head, heads=m.qdh_heads)
        self.astype(m.dtype)

    # -- feature plumbing ------------------------------------------------------

    def localization_prompt_vec(self) -> np.ndarray:
        """Mean token embedding of the localization question, detached."""
        return self.lm.tok.weight.data[self.loc_prompt_ids].mean(axis=0)

    def last_frame_grid(self, tokens: Tensor, batch: int) -> Tensor:
        """Patch tokens of each clip's final frame as a [B, G, G, d_v] grid."""
        g = self.encoder.grid
        l = self.encoder.clip_len
        rows = np.arange(batch, dtype=np.int64) * l + (l - 1)
        last = tokens[(rows,)]
        return last[:, 1:, :].reshape(batch, g, g, self.encoder.d_v)

    def presence_features(self, batch: dict, tokens: Tensor | None = None) -> Tensor:
        """Feature grid the highlighter scores: the extractor's grid of the HR
        frame, or without the extractor the patch tokens of the clip's last
        frame (`tokens` from `encoder.embed`, embedded here when not given)."""
        if hasattr(self, "cnn"):
            return self.cnn(Tensor(batch["hr"]))
        if tokens is None:
            tokens = self.encoder.embed(batch["clip"])
        return self.last_frame_grid(tokens, batch["clip"].shape[0])

    def hr_features(self, batch: dict, tokens: Tensor):
        """High-resolution feature sequence plus its highlight map.

        Returns (feats [B, N, d_i] or None, highlight [B, h, w] or None).
        The map is computed from detached activations, then multiplied onto
        the live feature grid, so gradients reach the extractor through the
        highlighted product but never through the map.
        """
        if not self.d_i:
            return None, None
        b = batch["clip"].shape[0]
        grid = self.presence_features(batch, tokens)
        heat = None
        if hasattr(self, "highlighter"):
            heat = self.highlighter.heatmap(grid.data, self.localization_prompt_vec())
            grid = apply_highlight(heat, grid)
        feats = grid.reshape(b, -1, self.d_i)
        if hasattr(self, "cnn"):
            feats = feats + self.hr_pos
        return feats, heat

    def encode_scene(self, batch: dict):
        """Shared trunk: clip plus HR frame -> (z_v, feats); feats is None
        without the HR route."""
        tokens = self.encoder.embed(batch["clip"])
        feats, _ = self.hr_features(batch, tokens)
        z = self.encoder.encode(tokens, getattr(self, "incorporation", None), feats)
        return z, feats

    @no_grad()
    def encode_scene_blocks(self, batch: dict):
        """`encode_scene` over `TRUNK_BLOCK` samples at a time, with no graph,
        the blocks spread over the trunk workers (`hirisk.workers`).

        Every batch array is sliced along its leading (sample) axis. Returns
        (z_v, feats) for the whole batch; feats is None without the HR route.
        The workers see this call's `no_grad`, which holds until the last
        block has finished.
        """
        zs, fs = zip(*map_blocks(self.encode_scene, _blocks(batch, TRUNK_BLOCK)))
        return concat(zs), None if fs[0] is None else concat(fs)

    # -- training --------------------------------------------------------------

    def predict_box(self, hidden: Tensor, feats) -> Tensor:
        """The box head's prediction [B, 4] from the noun-phrase rows of `hidden`."""
        return self.detector.predict(self.lm.answer_hidden(hidden, *ANSWER_SPAN), feats)

    def box_loss(self, hidden: Tensor, feats, batch: dict):
        if self.variant == "text_coords":
            return None
        return self.detector.loss(self.lm.answer_hidden(hidden, *ANSWER_SPAN), feats, batch["box"])

    def forward_train(self, batch: dict, box_weight: float):
        """Joint loss on one batch. Returns (loss Tensor, float part dict).

        The batch runs in blocks of `TRAIN_BLOCK` samples, each block's whole
        forward pass on one worker thread (`hirisk.workers`), and `join_blocks`
        sums the block losses in block order, its backward sweeping each
        block's graph on the workers too. The block losses sum to the batch
        loss: each block's caption cross-entropy, a mean over its own answer
        mask, counts that mask's share of the batch's mask sum, and its box
        loss, a mean over its own samples, counts n_block / n_batch.
        """
        n = batch["clip"].shape[0]
        mask_sum = float(batch["answer_mask"].sum())

        def block_loss(block):
            z, feats = self.encode_scene(block)
            cap, hidden = self.lm.caption_loss(z, block["answer_ids"], block["answer_mask"])
            cap = cap * (float(block["answer_mask"].sum()) / mask_sum)
            box = self.box_loss(hidden, feats, block)
            if box is None:
                return cap, cap.data, None
            share = block["clip"].shape[0] / n
            return cap + (box_weight * share) * box, cap.data, float(box.data) * share

        totals, caps, boxes = zip(*map_blocks(block_loss, _blocks(batch, TRAIN_BLOCK)))
        total = join_blocks(totals)
        parts = {"caption": float(functools.reduce(np.add, caps)),
                 "box": 0.0 if boxes[0] is None else sum(boxes),
                 "total": float(total.data)}
        return total, parts

    @no_grad()
    def caption_logits(self, batch: dict) -> np.ndarray:
        """Teacher-forced answer-position logits; used by equivalence gates."""
        z, _ = self.encode_scene_blocks(batch)
        _, logits = self.lm.forward_hidden(z, batch["answer_ids"])
        p = self.lm.prefix_len
        ta = batch["answer_ids"].shape[1]
        return logits.data[:, p - 1 : p + ta - 1, :]

    # -- inference -------------------------------------------------------------

    @no_grad()
    def decode(self, batch: dict) -> list[dict]:
        """Greedy captions and box predictions.

        Each record carries the token list, the predicted box as a tuple (or
        None when coordinate text failed to parse), and the box source.
        """
        z, feats = self.encode_scene_blocks(batch)
        pad, eos = self.vocab.pad_id, self.vocab.eos_id
        # The grammar pins the risk noun phrase to a fixed window, so decoding
        # runs at least that far (finished rows emit pad, which the token
        # lists drop) and a failed parse falls back to that same window
        # rather than skipping the sample.
        gen, hidden = self.lm.greedy_decode(z, self.max_new, eos, pad, min_new=ANSWER_SPAN[1])
        texts = [self.vocab.decode(row) for row in gen]

        if self.variant == "text_coords":
            out = []
            for toks in texts:
                parsed = parse_caption(toks)
                source = "text" if parsed.box is not None else "sentinel"
                out.append({"tokens": toks, "box": parsed.box, "box_source": source})
            return out

        # the head reads the greedy pass's own hidden states of the noun phrase
        pred = self.predict_box(hidden, feats).data
        return [
            {"tokens": toks, "box": tuple(float(v) for v in pred[i]), "box_source": "head"}
            for i, toks in enumerate(texts)
        ]

    # -- optimizer wiring ------------------------------------------------------

    def param_groups(self, hr_lr_mult: float, freeze_backbone: bool = False) -> list[dict]:
        """Parameter groups for the optimizer, as {name: Parameter} dicts.

        The perception-route parameters (`HR_BRANCH_PARAMS`) train at
        `hr_lr_mult` times the base rate. The highlighter's similarity head
        never appears in any group: it is fitted during its own warmup phase
        and pinned afterwards. A frozen backbone also drops
        `BACKBONE_PARAMS` but keeps adapters and the output projection
        trainable.
        """
        pinned = ("highlighter.",) + (BACKBONE_PARAMS if freeze_backbone else ())
        base, hr = {}, {}
        for name, p in self.named_parameters():
            if not _matches(name, pinned):
                (hr if _matches(name, HR_BRANCH_PARAMS) else base)[name] = p
        groups = [{"params": base, "lr_scale": 1.0}]
        if hr:
            groups.append({"params": hr, "lr_scale": hr_lr_mult})
        return groups


def _blocks(batch: dict, size: int) -> list[dict]:
    """`batch` in blocks of `size` samples, every array sliced along its
    leading (sample) axis; the last block may be smaller."""
    n = batch["clip"].shape[0]
    return [{k: v[start : start + size] for k, v in batch.items()} for start in range(0, n, size)]


def _matches(name: str, patterns) -> bool:
    """True when `name` equals a leaf name in `patterns` or sits under one
    of its module prefixes (those end with a dot)."""
    return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)
