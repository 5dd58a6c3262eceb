"""Synthetic scene generator: determinism, geometry, and on-disk format."""

import hashlib
import json
import os

import numpy as np
import pytest

from hirisk.config import SceneConfig
from hirisk.grammar import parse_caption, tokenize
from hirisk.model import MODEL_SCENE_FIELDS
from hirisk.scenes import (
    CLASS_SHAPE,
    MIN_DRAW_PX,
    SceneDataset,
    SceneObject,
    _shape_mask,
    generate_scene,
    load_dataset,
    mask_box,
    render_frame,
    risk_frames,
    save_dataset,
    size_bucket,
)


def _small_cfg(**kw):
    base = dict(n_train=6, n_test=4, seed=100, clip_len=5, lr_size=32, hr_size=128)
    base.update(kw)
    return SceneConfig(**base)


def _static(obj_class, color, size, cx, cy, n=5):
    centers = np.tile(np.array([cx, cy]), (n, 1))
    return SceneObject(obj_class, color, size, centers)


@pytest.mark.parametrize("clip_len", [1, 2])
def test_generation_rejects_clips_too_short_to_cross_the_band(clip_len):
    # a crossing track is inside the band only between its two end frames
    with pytest.raises(ValueError, match="clip_len"):
        SceneDataset.generate(_small_cfg(clip_len=clip_len), "train")


@pytest.mark.parametrize("hr_size", [64, 96])
def test_generation_rejects_an_hr_size_with_no_hr_critical_object_size(hr_size):
    # an HR-critical object must span 6 HR pixels yet less than 2 LR pixels
    with pytest.raises(ValueError, match="hr_size"):
        generate_scene(0, _small_cfg(lr_size=32, hr_size=hr_size))


@pytest.mark.parametrize("hr_size, frac", [(96, 0.0), (128, 0.6)])
def test_generation_accepts_sizes_it_can_draw(hr_size, frac):
    cfg = _small_cfg(lr_size=32, hr_size=hr_size, hr_critical_frac=frac)
    for seed in range(8):
        assert generate_scene(seed, cfg).hr.shape == (hr_size, hr_size, 3)


def test_caption_is_a_function_of_the_scene():
    cfg = _small_cfg(clip_len=3, lr_size=16, hr_size=64)
    captions: dict[tuple, set] = {}
    for seed in range(300):
        m = generate_scene(seed, cfg).meta
        key = (m["color"], m["risk_class"], m["motion_key"], m["position_key"])
        captions.setdefault(key, set()).add(m["caption"])
    assert sum(len(c) for c in captions.values()) == len(captions)
    assert len(captions) < 150  # most keys were drawn more than once


def test_shortest_allowed_clip_generates_every_scenario():
    ds = SceneDataset.generate(_small_cfg(n_train=12, clip_len=3, lr_size=16, hr_size=64), "train")
    assert ds.clips.shape[:2] == (12, 3)
    assert {m["scenario"] for m in ds.meta} == {"end_in_band", "cross_right", "cross_left"}


def test_scene_record_is_the_manifest_record():
    s = generate_scene(3, _small_cfg())
    assert set(vars(s)) == {"clip", "hr", "meta"}
    assert set(s.meta) == {"caption", "box", "risk_class", "color", "motion_key", "position_key",
                           "suggestion_idx", "bucket", "distractor", "hr_critical", "scenario",
                           "seed"}
    # plain JSON types, so the record is written and read back unchanged
    assert json.loads(json.dumps(s.meta)) == s.meta
    assert type(s.meta["hr_critical"]) is bool and type(s.meta["distractor"]) is bool


# sha256 over each scene's clip, HR frame and canonical meta JSON for seeds
# 0-299, as written by the full-frame rasterizer that painted every pixel of
# every object and background on each frame
@pytest.mark.parametrize("cfg, want", [
    (SceneConfig(), "4c31d3b8863bf997ec5f00ca34b6c37d5eca37fd2d3b64caf9897a369d8bfaf8"),
    (SceneConfig(clip_len=4, lr_size=16, hr_size=64),
     "e4eeb0d02d01147e8c1bac17e31d687a24c47808f54b42dec53e5d44b6741de7"),
], ids=["default", "tiny"])
def test_generated_scenes_are_pinned_bit_for_bit(cfg, want):
    h = hashlib.sha256()
    for seed in range(300):
        s = generate_scene(seed, cfg)
        h.update(s.clip.tobytes())
        h.update(s.hr.tobytes())
        h.update(json.dumps(s.meta, sort_keys=True, separators=(",", ":")).encode())
    assert h.hexdigest() == want


def _full_frame_mask(obj, t, size):
    """The object's predicate evaluated at every pixel centre of the frame."""
    shape, _, _ = CLASS_SHAPE[obj.obj_class]
    w, h = obj.wh
    cx, cy = obj.centers[t]
    coords = (np.arange(size) + 0.5) / size
    xg, yg = coords[None, :], coords[:, None]
    if shape == "rect":
        return (np.abs(xg - cx) <= w / 2.0) & (np.abs(yg - cy) <= h / 2.0)
    if shape == "circle":
        return ((xg - cx) / (w / 2.0)) ** 2 + ((yg - cy) / (h / 2.0)) ** 2 <= 1.0
    inside_y = (yg >= cy - h / 2.0) & (yg <= cy + h / 2.0)
    halfw = (w / 2.0) * np.clip((yg - (cy - h / 2.0)) / h, 0.0, 1.0)
    return inside_y & (np.abs(xg - cx) <= halfw)


@pytest.mark.parametrize("obj_class", sorted(CLASS_SHAPE))
def test_windowed_mask_equals_the_full_frame_predicate(obj_class):
    rng = np.random.default_rng(sorted(CLASS_SHAPE).index(obj_class))
    _, mw, mh = CLASS_SHAPE[obj_class]
    for size in (16, 32, 128):
        for i in range(80):
            if i % 4 == 0:  # culled when drawn at this size
                obj_size = rng.uniform(0.1, 1.0) * MIN_DRAW_PX / size
            elif i % 4 == 1:  # an x or y edge exactly on a pixel centre
                obj_size = 2 * int(rng.integers(1, 8)) / (size * (mw if i % 8 == 1 else mh))
            else:
                obj_size = rng.uniform(0.01, 0.4)
            if i % 4 == 1:
                cx, cy = (rng.integers(size, size=2) + 0.5) / size
            else:  # some centres near or past an edge of the frame
                cx, cy = rng.uniform(-0.1, 1.1, 2)
            obj = _static(obj_class, "red", float(obj_size), cx, cy, n=1)
            rows, cols, mask = _shape_mask(obj, 0, size)
            placed = np.zeros((size, size), dtype=bool)
            placed[rows, cols] = mask
            assert np.array_equal(placed, _full_frame_mask(obj, 0, size)), (size, obj_size, cx, cy)


def test_scene_generation_deterministic():
    cfg = _small_cfg()
    a = generate_scene(3, cfg)
    b = generate_scene(3, cfg)
    assert np.array_equal(a.clip, b.clip)
    assert np.array_equal(a.hr, b.hr)
    assert a.meta == b.meta
    c = generate_scene(4, cfg)
    assert not np.array_equal(a.hr, c.hr)


def test_dataset_split_seeds():
    cfg = _small_cfg()
    train = SceneDataset.generate(cfg, "train")
    test = SceneDataset.generate(cfg, "test")
    assert [m["seed"] for m in train.meta] == [100 + i for i in range(6)]
    assert [m["seed"] for m in test.meta] == [106 + i for i in range(4)]
    with pytest.raises(ValueError):
        SceneDataset.generate(cfg, "val")


def test_only_risk_object_enters_band():
    # hand-built: pedestrian walking into the ego band, truck parked left of it
    ped = SceneObject(
        "pedestrian", "blue", 0.05,
        np.stack([np.linspace(0.2, 0.5, 5), np.full(5, 0.5)], axis=1),
    )
    truck = _static("truck", "gray", 0.06, 0.22, 0.8)
    assert risk_frames(ped, 5) != []
    assert risk_frames(truck, 5) == []
    # the rule matches the rendered caption on generated scenes
    cfg = _small_cfg(n_train=20)
    for seed in range(100, 120):
        m = generate_scene(seed, cfg).meta
        parsed = parse_caption(tokenize(m["caption"]))
        assert parsed.obj_class == m["risk_class"]
        assert parsed.color == m["color"]
        assert m["bucket"] == size_bucket(m["box"])


def test_ground_truth_box_matches_pixel_extent():
    """mask_box must agree with a brute-force diff against the empty render."""
    rng = np.random.default_rng(5)
    classes = ["car", "truck", "pedestrian", "cone", "light"]
    size_px = 128
    bg = render_frame([], 0, size_px)
    for i in range(20):
        obj = _static(
            classes[i % 5], "red",
            float(rng.uniform(0.05, 0.2)),
            float(rng.uniform(0.25, 0.75)),
            float(rng.uniform(0.25, 0.75)),
        )
        frame = render_frame([obj], 0, size_px)
        diff = (frame != bg).any(axis=2)
        rows = np.flatnonzero(diff.any(axis=1))
        cols = np.flatnonzero(diff.any(axis=0))
        oracle = (
            cols[0] / size_px,
            rows[0] / size_px,
            (cols[-1] + 1) / size_px,
            (rows[-1] + 1) / size_px,
        )
        assert mask_box(obj, 0, size_px) == pytest.approx(oracle, abs=1e-12)


def test_subpixel_object_culled_at_low_res_only():
    size = 0.9 * MIN_DRAW_PX / 32  # below the draw floor at 32 px, above at 128
    obj = _static("light", "red", size, 0.5, 0.5)
    lr = render_frame([obj], 0, 32)
    assert np.array_equal(lr, render_frame([], 0, 32))
    hr = render_frame([obj], 0, 128)
    assert not np.array_equal(hr, render_frame([], 0, 128))


def test_hr_critical_scenes_are_lr_invisible_and_small():
    cfg = _small_cfg(hr_critical_frac=1.0, distractor_frac=0.0, max_clutter=0)
    empty_lr = render_frame([], 0, cfg.lr_size)
    for seed in range(200, 212):
        s = generate_scene(seed, cfg)
        assert s.meta["hr_critical"]
        assert s.meta["bucket"] == "S"
        for t in range(cfg.clip_len):
            assert np.array_equal(s.clip[t], empty_lr)
        # ... but the object does appear in the high-resolution view
        x1, y1, x2, y2 = s.meta["box"]
        r1, r2 = int(y1 * cfg.hr_size), int(np.ceil(y2 * cfg.hr_size))
        c1, c2 = int(x1 * cfg.hr_size), int(np.ceil(x2 * cfg.hr_size))
        crop = s.hr[r1:r2, c1:c2]
        bg_crop = render_frame([], 0, cfg.hr_size)[r1:r2, c1:c2]
        assert (crop != bg_crop).any()


def test_distractor_scenes_flagged():
    cfg = _small_cfg(distractor_frac=1.0, n_train=8)
    flagged = [generate_scene(s, cfg).meta["distractor"] for s in range(300, 308)]
    assert sum(flagged) >= 6  # placement can rarely fail, never silently lie


def test_size_bucket_rule():
    assert size_bucket((0.0, 0.0, 0.05, 0.05)) == "S"
    assert size_bucket((0.0, 0.0, 0.2, 0.2)) == "M"
    assert size_bucket((0.0, 0.0, 0.4, 0.4)) == "L"
    assert size_bucket((0.0, 0.0, 0.1, 0.1)) == "M"  # area 0.01 is not small
    assert size_bucket((0.0, 0.0, 0.3, 0.3)) == "L"  # area 0.09 is not medium


def test_dataset_save_load_round_trip(tmp_path):
    cfg = _small_cfg()
    ds = SceneDataset.generate(cfg, "train")
    save_dataset(ds, cfg, str(tmp_path), "train")
    back = load_dataset(str(tmp_path), "train")
    assert np.array_equal(ds.clips, back.clips)
    assert np.array_equal(ds.hrs, back.hrs)
    assert ds.meta == back.meta
    manifest = json.loads((tmp_path / "train_manifest.json").read_text())
    assert manifest["config"]["seed"] == 100
    assert len(manifest["samples"]) == len(ds)
    assert sorted(p.name for p in (tmp_path / "train").iterdir()) == ["scenes.npz"]


def test_load_checks_the_split_against_a_scene_config(tmp_path):
    cfg = _small_cfg(n_train=1)
    save_dataset(SceneDataset.generate(cfg, "train"), cfg, str(tmp_path), "train")
    other = _small_cfg(n_train=1, seed=cfg.seed + 1)
    # the seed does not shape the model, so a model-shape check lets it pass
    back = load_dataset(str(tmp_path), "train", other, MODEL_SCENE_FIELDS)
    assert back.meta[0]["seed"] == cfg.seed
    with pytest.raises(ValueError, match=r"\['seed'\]"):
        load_dataset(str(tmp_path), "train", other)
    with pytest.raises(ValueError, match=r"\['hr_size'\]"):
        load_dataset(str(tmp_path), "train", _small_cfg(n_train=1, hr_size=64), MODEL_SCENE_FIELDS)


def test_load_rejects_a_version_1_manifest(tmp_path):
    cfg = _small_cfg(n_train=1)
    save_dataset(SceneDataset.generate(cfg, "train"), cfg, str(tmp_path), "train")
    path = tmp_path / "train_manifest.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = 1
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version 1.*version 4"):
        load_dataset(str(tmp_path), "train")


@pytest.mark.parametrize("fault", ["one_scene_short", "float_hr_frames"])
def test_load_rejects_arrays_the_manifest_does_not_describe(tmp_path, fault):
    cfg = _small_cfg(n_train=3)
    ds = SceneDataset.generate(cfg, "train")
    save_dataset(ds, cfg, str(tmp_path), "train")
    path = tmp_path / "train" / "scenes.npz"
    if fault == "one_scene_short":
        np.savez(path, clips=ds.clips[:-1], hrs=ds.hrs[:-1])
        match = "clips is uint8 \\[2, 5, 32, 32, 3\\].*uint8 \\[3, 5, 32, 32, 3\\]"
    else:
        np.savez(path, clips=ds.clips, hrs=ds.hrs.astype(np.float32))
        match = "hrs is float32 \\[3, 128, 128, 3\\].*uint8 \\[3, 128, 128, 3\\]"
    with pytest.raises(ValueError, match=f"{path}: {match}"):
        load_dataset(str(tmp_path), "train")


def test_load_refuses_arrays_and_a_manifest_of_two_saves(tmp_path, monkeypatch):
    # a save that stops between its two renames leaves new arrays beside the old manifest
    a, b = _small_cfg(n_train=2), _small_cfg(n_train=2, seed=200)
    save_dataset(SceneDataset.generate(a, "train"), a, str(tmp_path), "train")
    replace = os.replace

    def stop_before_the_manifest(src, dst):
        if str(dst).endswith("_manifest.json"):
            raise OSError("stopped")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", stop_before_the_manifest)
    with pytest.raises(OSError, match="stopped"):
        save_dataset(SceneDataset.generate(b, "train"), b, str(tmp_path), "train")
    monkeypatch.undo()
    manifest = tmp_path / "train_manifest.json"
    assert json.loads(manifest.read_text())["config"]["seed"] == a.seed
    with pytest.raises(ValueError, match=f"scenes.npz was saved with another manifest than "
                                         f"{manifest}"):
        load_dataset(str(tmp_path), "train")
