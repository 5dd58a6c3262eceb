"""Tiny autoregressive decoder producing the risk caption.

Input layout per sample: [visual tokens | prompt tokens | answer tokens].
The visual+prompt prefix is fully attendable from every position; answer
positions attend the prefix plus earlier answer positions (strictly causal
over text). Loss covers answer positions only.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .autograd import Tensor, concat
from .modules import Embedding, LayerNorm, Linear, Module, ModuleList, Parameter
from .encoder import TransformerBlock
from .rng import named_rng

NEG_INF = -1e9


def prefix_causal_mask(prefix_len: int, total_len: int) -> np.ndarray:
    """Additive [T, T] mask: bidirectional prefix, causal suffix."""
    mask = np.full((total_len, total_len), NEG_INF, dtype=np.float32)
    mask[:, :prefix_len] = 0.0
    idx = np.arange(total_len)
    mask[idx[:, None] >= idx[None, :]] = 0.0
    return mask


class CaptionDecoder(Module):
    def __init__(self, vocab_size: int, max_seq: int, n_visual: int, prompt_ids: np.ndarray,
                 cfg, seed: int | None):
        super().__init__()
        self.d_l = cfg.d_l
        self.n_visual = n_visual
        self.prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        self.prefix_len = n_visual + len(self.prompt_ids)
        self.max_seq = max_seq
        self.vocab_size = vocab_size
        r = named_rng(seed, "init/lm/embed")
        self.tok = Embedding(vocab_size, cfg.d_l, r)
        self.pos = Parameter(r.normal(0.0, 0.02, size=(max_seq, cfg.d_l)))
        self.blocks = ModuleList(
            TransformerBlock(cfg.d_l, cfg.lm_heads, named_rng(seed, f"init/lm/block{i}"))
            for i in range(cfg.lm_layers)
        )
        self.final_ln = LayerNorm(cfg.d_l)
        self.head = Linear(cfg.d_l, vocab_size, named_rng(seed, "init/lm/head"))

    def _run(self, x: Tensor, start: int, mask: np.ndarray | None = None,
             caches: list[dict] | None = None):
        """Positions `start`.. of the layout through the blocks; returns
        (hidden, logits). With `caches`, one per block, earlier calls' keys
        and values are attended too and this call's are appended."""
        end = start + x.shape[1]
        if end > self.max_seq:
            raise ValueError(f"sequence length {end} exceeds max_seq {self.max_seq}")
        x = x + self.pos[start:end, :]
        for i, blk in enumerate(self.blocks):
            x = blk(x, mask=mask, cache=None if caches is None else caches[i])
        hidden = self.final_ln(x)
        return hidden, self.head(hidden)

    def _prefix(self, z_v: Tensor) -> list[Tensor]:
        prompt = self.tok(np.tile(self.prompt_ids, (z_v.shape[0], 1)))
        return [z_v, prompt]

    def forward_hidden(self, z_v: Tensor, answer_ids: np.ndarray):
        """Returns (hidden [B, T, d_l], logits [B, T, V]) over the full layout."""
        parts = self._prefix(z_v)
        if answer_ids.shape[1]:
            parts.append(self.tok(answer_ids))
        total = self.prefix_len + answer_ids.shape[1]
        return self._run(concat(parts, axis=1), 0, prefix_causal_mask(self.prefix_len, total))

    def caption_loss(self, z_v: Tensor, answer_ids: np.ndarray, answer_mask: np.ndarray):
        """Mean cross-entropy on answer positions, over the mask sum; returns
        (loss, hidden)."""
        hidden, logits = self.forward_hidden(z_v, answer_ids)
        p = self.prefix_len
        ta = answer_ids.shape[1]
        pred = logits[:, p - 1 : p + ta - 1, :]
        loss = ops.cross_entropy_logits(pred, answer_ids, answer_mask)
        return loss, hidden

    def answer_hidden(self, hidden: Tensor, start: int, end: int) -> Tensor:
        """Hidden states of answer token positions [start, end)."""
        ta = hidden.shape[1] - self.prefix_len
        if not (0 <= start < end <= ta):
            raise ValueError(f"span [{start},{end}) outside answer length {ta}")
        p = self.prefix_len
        return hidden[:, p + start : p + end, :]

    def greedy_decode(self, z_v: Tensor, max_new: int, eos_id: int, pad_id: int,
                      min_new: int = 0):
        """Lockstep batched argmax decoding; ties resolve to the lowest id.

        The prefix runs once; then each step feeds one token per row and
        attends over the per-block key/value cache, so a row costs one
        position per token. Finished rows emit pad, and decoding stops once
        every row is done and at least `min_new` tokens exist. Returns
        (ids [B, T_gen], hidden [B, prefix + T_gen, d_l]); `hidden` is laid
        out as `forward_hidden(z_v, ids)` returns it.
        """
        b = z_v.shape[0]
        caches = [{} for _ in self.blocks]
        hidden, logits = self._run(concat(self._prefix(z_v), axis=1), 0, caches=caches)
        rows = [hidden]
        out = np.zeros((b, 0), dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        for _ in range(max_new):
            step = np.argmax(logits.data[:, -1, :], axis=-1)
            step = np.where(done, pad_id, step)
            out = np.concatenate([out, step[:, None]], axis=1)
            done |= step == eos_id
            start = self.prefix_len + out.shape[1] - 1
            hidden, logits = self._run(self.tok(step[:, None]), start, caches=caches)
            rows.append(hidden)
            if done.all() and out.shape[1] >= min_new:
                break
        return out, concat(rows, axis=1)
