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

Every optional piece can be switched off through the ablation flags; with
all of them off the model degrades to the video-only captioner plus the
no-QDH box head, which regresses the box from the pooled noun phrase alone.
Only the constructor reads the flags; later code checks which modules it
built.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, concat, no_grad
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

# Extra decode steps past the longest training answer, so a slightly
# rambling generation still reaches its end-of-sequence token.
DECODE_MARGIN = 4

# Samples per trunk pass at inference. The encoder and the HR CNN have no
# cross-sample op, so any block size gives the same bits; a small block
# bounds the transients (a [B*clip_len*(G*G+1), 4*d_v] MLP hidden, a
# [B, hr/2, hr/2, cnn_width] stem) that set decode's peak memory. Decoding
# 50-scene default-config batches on 2 CPUs peaks at 134 MB RSS at 8, against
# 218 MB in one block (medians of 10 runs); single runs read 128 MB but
# 1,205 ms a batch at 1, against about 920 ms at 8, and 143 MB at 16.
TRUNK_BLOCK = 8

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
    """Video captioner with a high-resolution perception branch."""

    def __init__(self, cfg: RunConfig, vocab: Vocabulary, max_answer_len: int, seed: int):
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

        # High-resolution route. d_i is the feature width the incorporation
        # sites and detection heads attend over; without the dedicated
        # extractor it falls back to the encoder's own patch embeddings. The
        # caption-only baseline has no such route, and d_i 0 marks it.
        d_i = 0
        if not flags.baseline_only:
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
        self.d_i = d_i

        r_head = named_rng(seed, "init/hr/head")
        if self.variant == "text_coords":
            pass  # the caption itself carries the coordinates
        elif self.variant == "learned_query" and not flags.no_qdh:
            self.detector = LearnedQueryDetector(
                m.n_learned_queries, m.d_l, d_i, m.qdh_dim, r_head, heads=m.qdh_heads
            )
        else:
            d_q = None if flags.no_qdh else d_i
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
        """`encode_scene` over `TRUNK_BLOCK` samples at a time, with no graph.

        Every batch array is sliced along its leading (sample) axis. Returns
        (z_v, feats) for the whole batch; feats is None without the HR route.
        """
        zs, fs = [], []
        for start in range(0, batch["clip"].shape[0], TRUNK_BLOCK):
            block = {k: v[start : start + TRUNK_BLOCK] for k, v in batch.items()}
            z, feats = self.encode_scene(block)
            zs.append(z)
            fs.append(feats)
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
        """Joint loss on one batch. Returns (loss Tensor, float part dict)."""
        z, feats = self.encode_scene(batch)
        cap_loss, hidden = self.lm.caption_loss(z, batch["answer_ids"], batch["answer_mask"])
        box = self.box_loss(hidden, feats, batch)
        if box is None:
            total = cap_loss
            parts = {"caption": float(cap_loss.data), "box": 0.0}
        else:
            total = cap_loss + box_weight * box
            parts = {"caption": float(cap_loss.data), "box": float(box.data)}
        parts["total"] = float(total.data)
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


def _matches(name: str, patterns) -> bool:
    """True when `name` equals a leaf name in `patterns` or sits under one
    of its module prefixes (those end with a dot)."""
    return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)
