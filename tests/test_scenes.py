"""Synthetic scene generator: determinism, geometry, and on-disk format."""

import json

import numpy as np
import pytest

from hirisk.config import SceneConfig
from hirisk.grammar import parse_caption, tokenize
from hirisk.model import MODEL_SCENE_FIELDS
from hirisk.scenes import (
    MIN_DRAW_PX,
    SceneDataset,
    SceneObject,
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
        s = generate_scene(seed, cfg)
        key = (s.color, s.risk_class, s.motion_key, s.position_key)
        captions.setdefault(key, set()).add(s.caption)
    assert sum(len(c) for c in captions.values()) == len(captions)
    assert len(captions) < 150  # most keys were drawn more than once


def test_shortest_allowed_clip_generates_every_scenario():
    ds = SceneDataset.generate(_small_cfg(n_train=12, clip_len=3, lr_size=16, hr_size=64), "train")
    assert ds.clips.shape[:2] == (12, 3)
    assert {m["scenario"] for m in ds.meta} == {"end_in_band", "cross_right", "cross_left"}


def test_scene_generation_deterministic():
    cfg = _small_cfg()
    a = generate_scene(3, cfg)
    b = generate_scene(3, cfg)
    assert np.array_equal(a.clip, b.clip)
    assert np.array_equal(a.hr, b.hr)
    assert a.meta() == b.meta()
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
        s = generate_scene(seed, cfg)
        parsed = parse_caption(tokenize(s.caption))
        assert parsed.obj_class == s.risk_class
        assert parsed.color == s.color
        assert s.bucket == size_bucket(s.box)


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
        assert s.hr_critical
        assert s.bucket == "S"
        for t in range(cfg.clip_len):
            assert np.array_equal(s.clip[t], empty_lr)
        # ... but the object does appear in the high-resolution view
        x1, y1, x2, y2 = s.box
        r1, r2 = int(y1 * cfg.hr_size), int(np.ceil(y2 * cfg.hr_size))
        c1, c2 = int(x1 * cfg.hr_size), int(np.ceil(x2 * cfg.hr_size))
        crop = s.hr[r1:r2, c1:c2]
        bg_crop = render_frame([], 0, cfg.hr_size)[r1:r2, c1:c2]
        assert (crop != bg_crop).any()


def test_distractor_scenes_flagged():
    cfg = _small_cfg(distractor_frac=1.0, n_train=8)
    flagged = [generate_scene(s, cfg).distractor for s in range(300, 308)]
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
    with pytest.raises(ValueError, match="version 1.*version 3"):
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
