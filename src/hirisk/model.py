"""Joint risk captioning and localization model.

Two routes over one driving clip. The low-resolution route runs every frame
through the patch transformer and pools a handful of query tokens that a
small autoregressive decoder turns into the risk caption. The
high-resolution route looks at the last frame only: a residual CNN builds a
feature grid, a prompt-driven highlight suppresses background cells, and the
result feeds both the gated incorporation sites inside the video encoder and
the box detection head.

Every optional piece can be switched off through the ablation flags; with
all of them off the model degrades to the video-only captioner plus a plain
box MLP.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autograd import Tensor, no_grad
from .config import RunConfig
from .encoder import VideoEncoder, incorporation_sites
from .grammar import ANSWER_SPAN, INSTRUCTION_PROMPT, LOCALIZATION_PROMPT, Vocabulary, parse_caption
from .hrbranch import (
    BoxMlp,
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
        self.flags = m.ablation
        self.variant = m.head_variant
        self.span_mode = m.span_mode
        self.vocab = vocab
        dtype = np.dtype(m.dtype)

        self.encoder = VideoEncoder(cfg.scene.lr_size, cfg.scene.clip_len, m, seed)
        prompt_ids = np.asarray(vocab.encode(INSTRUCTION_PROMPT), dtype=np.int64)
        self.loc_prompt_ids = np.asarray(vocab.encode(LOCALIZATION_PROMPT), dtype=np.int64)
        self.max_new = max_answer_len + DECODE_MARGIN
        max_seq = m.n_queries + len(prompt_ids) + self.max_new
        self.lm = CaptionDecoder(len(vocab), max_seq, m.n_queries, prompt_ids, m, seed)

        # High-resolution route. d_i is the feature width the incorporation
        # sites and detection heads attend over; without the dedicated
        # extractor it falls back to the encoder's own patch embeddings.
        d_i = 0
        if not self.flags.baseline_only:
            if self.flags.no_hrse:
                d_i = m.d_v
            else:
                self.cnn = SpatialExtractor(m.cnn_width, named_rng(seed, "init/hr/cnn"), dtype)
                d_i = self.cnn.out_channels
                # where-am-I signal for the flattened grid; without it the
                # cross-attention pools are position blind and boxes cannot
                # be regressed past the dataset mean
                cells = (cfg.scene.hr_size // 16) ** 2
                self.hr_pos = Parameter(
                    named_rng(seed, "init/hr/pos").normal(0.0, 0.02, size=(cells, d_i)),
                    dtype=dtype,
                )
            if not self.flags.no_em:
                self.highlighter = ObjectHighlighter(
                    d_i, m.d_l, named_rng(seed, "init/hr/highlight"), dtype
                )
            if not self.flags.no_im:
                self.sites = incorporation_sites(m.n_layers)
                n_sites = len(set(self.sites.values()))
                self.incorporation = ModuleList(
                    IncorporationSite(m.d_v, d_i, named_rng(seed, f"init/hr/incorporate{j}"), dtype)
                    for j in range(n_sites)
                )
        self.d_i = d_i

        r_head = named_rng(seed, "init/hr/head")
        if self.variant == "text_coords":
            pass  # the caption itself carries the coordinates
        elif self.flags.no_qdh:
            self.detector = BoxMlp(m.d_l, m.qdh_dim, r_head, dtype)
        elif self.variant == "learned_query":
            self.detector = LearnedQueryDetector(
                m.n_learned_queries, m.d_l, d_i, m.qdh_dim, r_head, dtype, heads=m.qdh_heads
            )
        else:
            self.detector = SpanQueryDetector(m.d_l, d_i, m.qdh_dim, r_head, dtype, heads=m.qdh_heads)

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
        if not self.flags.no_hrse:
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
        if self.flags.baseline_only:
            return None, None
        b = batch["clip"].shape[0]
        grid = self.presence_features(batch, tokens)
        heat = None
        if not self.flags.no_em:
            heat = self.highlighter.heatmap(grid.data, self.localization_prompt_vec())
            grid = apply_highlight(heat, grid)
        feats = grid.reshape(b, -1, self.d_i)
        if hasattr(self, "cnn"):
            feats = feats + self.hr_pos
        return feats, heat

    def encode_scene(self, batch: dict):
        """Shared trunk: clip plus HR frame -> (z_v, feats, highlight)."""
        b = batch["clip"].shape[0]
        tokens = self.encoder.embed(batch["clip"])
        feats, heat = self.hr_features(batch, tokens)
        inject = feats is not None and not self.flags.no_im
        z, _ = self.encoder.encode(
            tokens,
            b,
            incorporation=self.incorporation if inject else None,
            hr_feats=feats if inject else None,
            sites=self.sites if inject else None,
        )
        return z, feats, heat

    # -- training --------------------------------------------------------------

    def answer_rows(self, hidden: Tensor, answer_mask: np.ndarray):
        """Hidden states the detector reads, plus an optional pooling mask."""
        if self.span_mode == "full_answer":
            ta = hidden.shape[1] - self.lm.prefix_len
            return self.lm.answer_hidden(hidden, 0, ta), answer_mask
        s, e = ANSWER_SPAN
        return self.lm.answer_hidden(hidden, s, e), None

    def predict_box(self, hidden: Tensor, feats, answer_mask: np.ndarray) -> Tensor:
        """Span-pooling head: box [B, 4] from the answer rows of `hidden`."""
        h_a, mask = self.answer_rows(hidden, answer_mask)
        if self.flags.no_qdh:
            return self.detector(h_a, span_mask=mask)
        return self.detector(h_a, feats, span_mask=mask)

    def box_loss(self, hidden: Tensor, feats, batch: dict):
        if self.variant == "text_coords":
            return None
        gt = batch["box"]
        if isinstance(self.detector, LearnedQueryDetector):
            boxes, obj = self.detector(feats)
            return self.detector.loss(boxes, obj, gt)
        return ops.l1_loss(self.predict_box(hidden, feats, batch["answer_mask"]), gt)

    def forward_train(self, batch: dict, box_weight: float):
        """Joint loss on one batch. Returns (loss Tensor, float part dict)."""
        z, feats, _ = self.encode_scene(batch)
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
        z, _, _ = self.encode_scene(batch)
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
        z, feats, _ = self.encode_scene(batch)
        pad, eos = self.vocab.pad_id, self.vocab.eos_id
        # The grammar pins the risk noun phrase to a fixed window, so decoding
        # runs at least that far (finished rows emit pad, which the token
        # lists drop) and a failed parse falls back to that same window
        # rather than skipping the sample.
        min_new = ANSWER_SPAN[1] if self.span_mode == "noun_phrase" else 0
        gen, hidden = self.lm.greedy_decode(z, self.max_new, eos, pad, min_new=min_new)
        texts = [self.vocab.decode(row) for row in gen]

        if self.variant == "text_coords":
            out = []
            for toks in texts:
                parsed = parse_caption(toks)
                source = "text" if parsed.box is not None else "sentinel"
                out.append({"tokens": toks, "box": parsed.box, "box_source": source})
            return out

        if isinstance(self.detector, LearnedQueryDetector):
            pred = self.detector.predict(*self.detector(feats))
        else:
            # span-pooling heads read the decoder's own hidden states of the
            # generated tokens; an all-pad row still pools its first position
            mask = (gen != pad).astype(np.float64)
            mask[mask.sum(axis=1) == 0, 0] = 1.0
            pred = self.predict_box(hidden, feats, mask).data
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
