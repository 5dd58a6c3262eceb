"""Video encoder: adapters, per-frame attention, pooling, hook placement."""

import numpy as np
import pytest

from hirisk.autograd import ComputationTape, Tensor, no_grad
from hirisk.config import Ablation, ModelConfig
from hirisk.encoder import MultiHeadAttention, STAdapter, VideoEncoder, incorporation_sites
from hirisk.rng import named_rng


def _cfg(**kw):
    base = dict(patch=8, d_v=32, n_layers=2, n_heads=4, adapter_dim=8,
                n_queries=4, d_l=48)
    base.update(kw)
    return ModelConfig(**base)


def _clip(rng, b=2, l=3, s=32):
    return rng.uniform(0.0, 1.0, size=(b, l, s, s, 3)).astype(np.float32)


def test_adapter_identity_at_init():
    rng = named_rng(0, "test/adapter")
    ad = STAdapter(32, 8, rng)
    x = Tensor(np.random.default_rng(1).normal(size=(6, 17, 32)))
    y = ad(x, 2, 3, 4, 4)
    assert np.array_equal(y.data, x.data)


def test_adapter_mixes_adjacent_frames_once_opened():
    rng = named_rng(0, "test/adapter2")
    ad = STAdapter(32, 8, rng)
    ad.up.weight.data[:] = np.random.default_rng(2).normal(0, 0.1, ad.up.weight.shape)
    base = np.random.default_rng(3).normal(size=(1 * 5, 17, 32))
    bumped = base.copy()
    bumped[2, 5, :] += 1.0  # frame 2 only
    ya = ad(Tensor(base), 1, 5, 4, 4).data
    yb = ad(Tensor(bumped), 1, 5, 4, 4).data
    changed = [t for t in range(5) if not np.allclose(ya[t], yb[t])]
    # three-tap temporal kernel: the disturbance reaches frames 1..3 only
    assert changed == [1, 2, 3]


def test_bare_attention_matches_a_numpy_reference():
    att = MultiHeadAttention(8, 2, named_rng(2, "test/mha"), kv_dim=5, q_dim=6, project=False)
    assert [n for n, _ in att.named_parameters()] == ["wq.weight", "wk.weight", "wv.weight"]
    rng = np.random.default_rng(11)
    x, feats = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 7, 5))
    out = att(Tensor(x), kv=Tensor(feats)).data
    q, k, v = (a @ w.weight.data for a, w in ((x, att.wq), (feats, att.wk), (feats, att.wv)))
    heads = []
    for h in (slice(0, 4), slice(4, 8)):
        s = q[..., h] @ k[..., h].swapaxes(-1, -2) / np.sqrt(4)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        heads.append(p / p.sum(axis=-1, keepdims=True) @ v[..., h])
    assert out.shape == (3, 4, 8)
    np.testing.assert_allclose(out, np.concatenate(heads, axis=-1), rtol=1e-12, atol=1e-12)


def test_attention_module_records_five_tape_nodes():
    att = MultiHeadAttention(8, 2, named_rng(3, "test/mha_nodes"))
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 8)), requires_grad=True)
    tape = ComputationTape.trace(att(x))
    ops_run = [n._op for n in tape.nodes if n._backward is not None]
    assert ops_run == ["linear"] * 3 + ["attention", "linear"]


def test_kv_cache_holds_projected_keys_and_values():
    att = MultiHeadAttention(8, 2, named_rng(4, "test/mha_cache"))
    x = np.random.default_rng(6).normal(size=(2, 5, 8))
    causal = np.triu(np.full((5, 5), -1e9), 1)
    full = att(Tensor(x), mask=causal).data
    cache = {}
    with no_grad():
        head = att(Tensor(x[:, :3]), mask=causal[:3, :3], cache=cache).data
        steps = [att(Tensor(x[:, t : t + 1]), cache=cache).data for t in (3, 4)]
    assert cache["k"].shape == cache["v"].shape == (2, 5, 8)
    np.testing.assert_allclose(np.concatenate([head] + steps, axis=1), full, rtol=1e-12, atol=1e-12)


def test_incorporation_sites_placement():
    assert incorporation_sites(4) == {1: 0, 2: 1, 3: 2}
    assert incorporation_sites(8) == {2: 0, 4: 1, 6: 2}
    assert incorporation_sites(2) == {1: 0, 2: 1}
    assert incorporation_sites(1) == {1: 0}


def test_encoder_shapes():
    enc = VideoEncoder(32, 3, _cfg(), seed=0)
    clip = _clip(np.random.default_rng(0))
    tokens = enc.embed(clip)
    assert tokens.shape == (6, 1 + 16, 32)
    z = enc.encode(tokens, 2)
    assert z.shape == (2, 4, 48)


def test_frames_do_not_interact_without_adapters():
    cfg = _cfg(ablation=Ablation(no_st_adapter=True))
    enc = VideoEncoder(32, 3, cfg, seed=0)
    rng = np.random.default_rng(4)
    a = _clip(rng, b=1)
    b = a.copy()
    b[0, 1] = rng.uniform(0.0, 1.0, size=(32, 32, 3)).astype(np.float32)
    xa, xb = enc.embed(a), enc.embed(b)
    for blk in enc.blocks:
        xa, xb = blk(xa), blk(xb)
    assert np.array_equal(xa.data[0], xb.data[0])
    assert np.array_equal(xa.data[2], xb.data[2])
    assert not np.allclose(xa.data[1], xb.data[1])


def test_embed_without_positions_is_content_only():
    enc = VideoEncoder(32, 2, _cfg(), seed=1)
    flat = np.full((1, 2, 32, 32, 3), 0.25, dtype=np.float32)
    patches = enc.patch_proj(Tensor(np.full((2, 16, 8 * 8 * 3), 0.25, dtype=np.float32))).data
    assert np.ptp(patches, axis=1).max() == 0.0  # identical patches, identical rows
    with_pos = enc.embed(flat).data[:, 1:, :]
    assert np.ptp(with_pos, axis=1).max() > 0.0


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        VideoEncoder(30, 3, _cfg(), seed=0)  # 30 not divisible by patch 8
    with pytest.raises(ValueError):
        VideoEncoder(32, 3, _cfg(n_heads=5), seed=0)


def test_encoder_init_is_seed_deterministic():
    a = VideoEncoder(32, 3, _cfg(), seed=5)
    b = VideoEncoder(32, 3, _cfg(), seed=5)
    c = VideoEncoder(32, 3, _cfg(), seed=6)
    pa = dict(a.named_parameters())
    pb = dict(b.named_parameters())
    pc = dict(c.named_parameters())
    assert all(np.array_equal(pa[k].data, pb[k].data) for k in pa)
    assert any(not np.array_equal(pa[k].data, pc[k].data) for k in pa)


def test_adapter_flag_removes_parameters():
    on = VideoEncoder(32, 3, _cfg(), seed=0)
    off = VideoEncoder(32, 3, _cfg(ablation=Ablation(no_st_adapter=True)), seed=0)
    names_on = {n for n, _ in on.named_parameters()}
    names_off = {n for n, _ in off.named_parameters()}
    assert any("adapter" in n for n in names_on)
    assert not any("adapter" in n for n in names_off)
    # shared submodules draw from named streams: identical where present
    po, pf = dict(on.named_parameters()), dict(off.named_parameters())
    for n in names_off:
        assert np.array_equal(po[n].data, pf[n].data)
