"""High-resolution branch: boxes, extractor, highlight map, fusion, heads."""

import numpy as np
import pytest

from hirisk.autograd import Tensor
from hirisk.hrbranch import (
    MIN_EXTENT,
    IncorporationSite,
    LearnedQueryDetector,
    ObjectHighlighter,
    SpanQueryDetector,
    SpatialExtractor,
    apply_highlight,
    corners_from_cwh,
    prompt_cosine,
)
from hirisk.rng import named_rng


def test_corners_from_cwh_hand_case():
    cwh = Tensor(np.array([[0.5, 0.5, 0.2, 0.4]]))
    out = corners_from_cwh(cwh).data
    assert out[0] == pytest.approx([0.4, 0.3, 0.6, 0.7], abs=1e-12)


def test_corners_from_cwh_always_valid():
    rng = np.random.default_rng(0)
    cwh = Tensor(rng.uniform(0.0, 1.0, size=(1000, 4)))
    out = corners_from_cwh(cwh).data
    x1, y1, x2, y2 = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
    assert (x1 >= 0).all() and (y1 >= 0).all()
    assert (x2 <= 1).all() and (y2 <= 1).all()
    assert (x2 - x1 >= MIN_EXTENT - 1e-12).all()
    assert (y2 - y1 >= MIN_EXTENT - 1e-12).all()


def test_extractor_shapes_and_guard():
    cnn = SpatialExtractor(4, named_rng(0, "test/cnn"))
    out = cnn(Tensor(np.random.default_rng(1).uniform(size=(2, 128, 128, 3))))
    assert out.shape == (2, 8, 8, 32)
    out64 = cnn(Tensor(np.random.default_rng(1).uniform(size=(1, 64, 64, 3))))
    assert out64.shape == (1, 4, 4, 32)
    with pytest.raises(ValueError):
        cnn(Tensor(np.zeros((1, 120, 120, 3))))


def test_extractor_constant_input_gives_flat_interior():
    cnn = SpatialExtractor(4, named_rng(1, "test/cnn2"))
    img = Tensor(np.full((1, 128, 128, 3), 0.5))
    out = cnn(img).data[0]
    # the stacked receptive field spans ~31 px, so only cells at least three
    # cells from every border are free of zero-padding effects
    interior = out[3:-3, 3:-3, :]
    assert np.ptp(interior, axis=(0, 1)).max() < 1e-12


def test_extractor_shift_equivariance():
    cnn = SpatialExtractor(4, named_rng(2, "test/cnn3"))
    rng = np.random.default_rng(3)
    img = np.zeros((1, 128, 128, 3))
    img[0, 48:80, 48:80] = rng.uniform(size=(32, 32, 3))  # blob far from borders
    shifted = np.roll(img, 16, axis=1)  # one output cell at stride 16
    a = cnn(Tensor(img)).data
    b = cnn(Tensor(shifted)).data
    assert np.allclose(np.roll(a, 1, axis=1)[:, 2:-2, 2:-2], b[:, 2:-2, 2:-2], atol=1e-9)


def test_apply_highlight_identities():
    rng = np.random.default_rng(4)
    feats = Tensor(rng.normal(size=(2, 4, 4, 6)))
    ones = np.ones((2, 4, 4))
    zeros = np.zeros((2, 4, 4))
    assert np.array_equal(apply_highlight(ones, feats).data, feats.data)
    assert (apply_highlight(zeros, feats).data == 0).all()
    m = rng.uniform(size=(2, 4, 4))
    full = apply_highlight(m, feats).data
    # linear in the features, proportional in the map
    assert np.allclose(apply_highlight(m, feats * 3.0).data, 3.0 * full, atol=1e-12)
    assert np.allclose(apply_highlight(0.5 * m, feats).data, 0.5 * full, atol=1e-12)


def test_heatmap_range_and_normalization():
    hl = ObjectHighlighter(6, 8, named_rng(3, "test/hl"))
    rng = np.random.default_rng(5)
    feats = rng.uniform(0.0, 1.0, size=(3, 4, 4, 6))
    prompt = rng.normal(size=8)
    m = hl.heatmap(feats, prompt)
    assert m.shape == (3, 4, 4)
    assert (m >= 0.0).all() and (m <= 1.0).all()
    assert np.allclose(m.max(axis=(1, 2)), 1.0)


def test_heatmap_closed_form_matches_the_tape():
    hl = ObjectHighlighter(6, 8, named_rng(9, "test/hl-tape"))
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(5, 4, 4, 6))
    prompt = rng.normal(size=8)
    # reference: Grad-CAM weights from a backward sweep through the similarity
    a = Tensor(feats, requires_grad=True)
    p = a.mean(axis=(1, 2)) @ Tensor(hl.proj.weight.data)
    prompt_cosine(p, prompt).sum().backward()
    w = a.grad.mean(axis=(1, 2))
    raw = np.maximum(np.einsum("bhwc,bc->bhw", feats, w), 0.0)
    mx = raw.max(axis=(1, 2), keepdims=True)
    assert (mx > 0).all()
    assert np.allclose(hl.heatmap(feats, prompt), raw / mx, atol=1e-12, rtol=0)


def test_heatmap_runs_in_float64_at_any_model_precision():
    hl = ObjectHighlighter(6, 8, named_rng(11, "test/hl-f32"))
    hl.proj.weight.data = hl.proj.weight.data.astype(np.float32).astype(np.float64)
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(2, 4, 4, 6)).astype(np.float32)
    prompt = rng.normal(size=8).astype(np.float32)
    # the same values, handed over as a float64 and as a float32 model would
    wide = hl.heatmap(feats.astype(np.float64), prompt.astype(np.float64))
    assert np.array_equal(hl.astype("float32").heatmap(feats, prompt), wide)


def test_heatmap_zero_gradient_gives_zero_map():
    hl = ObjectHighlighter(6, 8, named_rng(4, "test/hl2"))
    hl.proj.weight.data[:] = 0.0
    feats = np.random.default_rng(6).uniform(size=(2, 4, 4, 6))
    m = hl.heatmap(feats, np.ones(8))
    assert (m == 0.0).all()


def test_heatmap_leaves_no_gradients_behind():
    hl = ObjectHighlighter(6, 8, named_rng(5, "test/hl3"))
    feats = np.random.default_rng(7).uniform(size=(1, 4, 4, 6))
    hl.heatmap(feats, np.ones(8))
    assert hl.proj.weight.grad is None
    assert hl.scale.grad is None


def test_incorporation_identity_at_zero_gate():
    site = IncorporationSite(8, 6, named_rng(6, "test/inc"))
    rng = np.random.default_rng(8)
    cls = Tensor(rng.normal(size=(2, 5, 8)))
    feats = Tensor(rng.normal(size=(2, 3, 6)))
    out = site(cls, feats)
    assert np.array_equal(out.data, cls.data)


def test_incorporation_saturated_attention_picks_dominant_key():
    site = IncorporationSite(4, 3, named_rng(7, "test/inc2"))
    site.alpha.data[...] = 1.0
    # craft projections: huge logit margin steers all mass to the first row
    site.wq.weight.data[:] = 0.0
    site.wq.weight.data[0, 0] = 50.0
    site.wk.weight.data[:] = 0.0
    site.wk.weight.data[0, 0] = 1.0
    cls = Tensor(np.array([[[1.0, 0.0, 0.0, 0.0]]]))
    feats = np.array([[[1.0, 2.0, 3.0], [-1.0, 0.5, 0.2]]])
    out = site(cls, Tensor(feats))
    v0 = feats[0, 0] @ site.wv.weight.data
    assert np.allclose(out.data[0, 0], cls.data[0, 0] + v0, rtol=1e-8)


def test_span_detector_outputs_valid_boxes():
    det = SpanQueryDetector(8, 6, 16, named_rng(8, "test/det"))
    rng = np.random.default_rng(9)
    h = Tensor(rng.normal(size=(3, 2, 8)))
    feats = Tensor(rng.normal(size=(3, 10, 6)))
    box = det(h, feats).data
    assert box.shape == (3, 4)
    assert (box[:, 2] > box[:, 0]).all() and (box[:, 3] > box[:, 1]).all()
    with pytest.raises(ValueError):
        det(Tensor(np.zeros((3, 0, 8))), feats)


def test_no_qdh_head_respects_span_mask():
    det = SpanQueryDetector(8, None, 16, named_rng(9, "test/mlp"))
    assert not hasattr(det, "ca") and det.fc1.weight.shape == (8, 16)
    rng = np.random.default_rng(10)
    h = rng.normal(size=(2, 4, 8))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    out = det.predict(Tensor(h), None, mask).data
    # zeroed-out rows must not influence the pooled box
    h2 = h.copy()
    h2[0, 2:] += 100.0
    out2 = det.predict(Tensor(h2), None, mask).data
    assert np.allclose(out[0], out2[0], atol=1e-12)
    assert out.shape == (2, 4)
    gt = np.array([[0.2, 0.2, 0.6, 0.6], [0.1, 0.4, 0.5, 0.9]])
    assert det.loss(Tensor(h), None, mask, gt).data == np.abs(out - gt).mean()


def test_learned_query_head_and_matching():
    det = LearnedQueryDetector(4, 8, 6, 16, named_rng(10, "test/lq"))
    rng = np.random.default_rng(11)
    feats = Tensor(rng.normal(size=(2, 10, 6)))
    boxes, obj = det(feats)
    assert boxes.shape == (2, 4, 4) and obj.shape == (2, 4)
    gt = np.array([[0.2, 0.2, 0.6, 0.6], [0.1, 0.4, 0.5, 0.9]])
    # the span arguments are not read: the queries attend the features
    loss = det.loss(None, feats, None, gt)
    assert loss.data.shape == () and np.isfinite(loss.data)
    # prediction follows the objectness argmax of the queries' own outputs
    fake_boxes = Tensor(np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4))
    fake_obj = Tensor(np.array([[0.0, 9.0, 1.0, 2.0], [3.0, 0.0, 0.0, 8.0]]))
    det.forward = lambda f: (fake_boxes, fake_obj)
    picked = det.predict(None, feats, None)
    assert picked.shape == (2, 4)
    assert np.array_equal(picked.data[0], fake_boxes.data[0, 1])
    assert np.array_equal(picked.data[1], fake_boxes.data[1, 3])
