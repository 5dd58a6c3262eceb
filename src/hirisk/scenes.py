"""Procedural driving-scene benchmark.

Each sample is a short schematic clip on the unit square: a road band with a
brighter ego-lane strip down the middle, off-road margins in distinct tones,
and a handful of flat-shaded objects. Exactly one object (the risk object)
crosses or enters the ego lane during the clip; everything else stays clear
of it. The sample carries a low-resolution clip, a high-resolution last
frame, a templated caption, and the risk object's ground-truth box measured
from the rendered high-resolution mask.

Scenes flagged hr-critical draw the risk object small enough that the
low-resolution rasterizer culls it (objects thinner than two pixels are not
drawn), while it still spans at least six pixels in the high-resolution
frame. Such objects are genuinely invisible to a low-resolution-only model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import SceneConfig
from .files import json_text, write_atomic
from .grammar import CLASS_COLORS, CLASSES, make_caption, suggestion_index
from .rng import named_rng

ROAD_X = (0.15, 0.85)
BAND_X = (0.40, 0.60)

MIN_DRAW_PX = 2.0
HR_CRITICAL_MIN_HR_PX = 6.0

BG_LEFT = (92, 130, 92)
BG_ROAD = (70, 70, 75)
BG_BAND = (98, 98, 104)
BG_RIGHT = (132, 116, 88)

OBJECT_RGB = {
    "red": (200, 40, 40),
    "blue": (50, 80, 200),
    "green": (40, 170, 60),
    "yellow": (230, 210, 40),
    "orange": (240, 140, 30),
    "gray": (150, 150, 155),
    "white": (245, 245, 245),
}

# (shape, width multiplier, height multiplier) applied to the scalar size,
# which is always the smaller dimension
CLASS_SHAPE = {
    "car": ("rect", 1.5, 1.0),
    "truck": ("rect", 2.0, 1.0),
    "pedestrian": ("rect", 1.0, 2.0),
    "cone": ("tri", 1.0, 1.2),
    "light": ("circle", 1.0, 1.0),
}

# scenario -> (probability, motion key, position key)
SCENARIOS = {
    "end_in_band": (0.5, "into_band", "in_band"),
    "cross_right": (0.25, "cross_right", "right"),
    "cross_left": (0.25, "cross_left", "left"),
}


@dataclass
class SceneObject:
    obj_class: str
    color: str
    size: float
    centers: np.ndarray  # [L, 2] (cx, cy) per frame

    @property
    def wh(self) -> tuple[float, float]:
        _, mw, mh = CLASS_SHAPE[self.obj_class]
        return self.size * mw, self.size * mh

    def extent_x(self, t: int) -> tuple[float, float]:
        w, _ = self.wh
        cx = self.centers[t, 0]
        return cx - w / 2.0, cx + w / 2.0


@dataclass
class SceneSample:
    """One scene: the clip, the HR frame and `meta`, the manifest record
    that `save_dataset` writes and evaluation reads: caption, box
    (normalized x1, y1, x2, y2), risk_class, color, motion_key,
    position_key, suggestion_idx, bucket, distractor, hr_critical, scenario
    and seed."""

    clip: np.ndarray  # uint8 [L, lr, lr, 3]
    hr: np.ndarray  # uint8 [hr, hr, 3]
    meta: dict


# -- geometry ------------------------------------------------------------------


def overlaps_band(lo: float, hi: float) -> bool:
    return hi >= BAND_X[0] and lo <= BAND_X[1]


def risk_frames(obj: SceneObject, n_frames: int) -> list[int]:
    return [t for t in range(n_frames) if overlaps_band(*obj.extent_x(t))]


def size_bucket(box) -> str:
    area = max(box[2] - box[0], 0.0) * max(box[3] - box[1], 0.0)
    if area < 0.01:
        return "S"
    if area < 0.09:
        return "M"
    return "L"


# -- rasterizer ----------------------------------------------------------------


# the road background of each frame size, built on first use
_BACKGROUNDS: dict[int, np.ndarray] = {}


def _background(size: int) -> np.ndarray:
    bg = _BACKGROUNDS.get(size)
    if bg is None:
        bg = np.empty((size, size, 3), dtype=np.uint8)
        xg = (np.arange(size) + 0.5) / size
        bg[:] = BG_LEFT
        bg[:, xg >= ROAD_X[0]] = BG_ROAD
        bg[:, xg >= BAND_X[0]] = BG_BAND
        bg[:, xg > BAND_X[1]] = BG_ROAD
        bg[:, xg > ROAD_X[1]] = BG_RIGHT
        bg.flags.writeable = False
        _BACKGROUNDS[size] = bg
    return bg


def _pixel_span(lo: float, hi: float, size: int) -> slice:
    """The pixels whose centres may lie in [lo, hi], widened by one pixel on
    each side so rounding in the shape predicates cannot reach past it."""
    start = math.floor(lo * size - 0.5) - 1
    stop = math.ceil(hi * size - 0.5) + 2
    return slice(min(max(start, 0), size), min(max(stop, 0), size))


def _shape_mask(obj: SceneObject, t: int, size: int) -> tuple[slice, slice, np.ndarray]:
    """The object's pixels at frame `t` as (rows, cols, mask): `mask` covers
    the window `[rows, cols]` of the frame, and no pixel outside it is set."""
    shape, _, _ = CLASS_SHAPE[obj.obj_class]
    w, h = obj.wh
    cx, cy = obj.centers[t]
    rows = _pixel_span(cy - h / 2.0, cy + h / 2.0, size)
    cols = _pixel_span(cx - w / 2.0, cx + w / 2.0, size)
    coords = (np.arange(size) + 0.5) / size
    xg = coords[None, cols]
    yg = coords[rows, None]
    if shape == "rect":
        mask = (np.abs(xg - cx) <= w / 2.0) & (np.abs(yg - cy) <= h / 2.0)
    elif shape == "circle":
        mask = ((xg - cx) / (w / 2.0)) ** 2 + ((yg - cy) / (h / 2.0)) ** 2 <= 1.0
    elif shape == "tri":
        inside_y = (yg >= cy - h / 2.0) & (yg <= cy + h / 2.0)
        halfw = (w / 2.0) * np.clip((yg - (cy - h / 2.0)) / h, 0.0, 1.0)
        mask = inside_y & (np.abs(xg - cx) <= halfw)
    else:
        raise ValueError(shape)
    return rows, cols, mask


def render_frame(objects: list[SceneObject], t: int, size: int) -> np.ndarray:
    """Rasterize one frame; objects thinner than MIN_DRAW_PX are culled."""
    canvas = _background(size).copy()
    for obj in objects:
        w, h = obj.wh
        if min(w, h) * size < MIN_DRAW_PX:
            continue
        rows, cols, mask = _shape_mask(obj, t, size)
        canvas[rows, cols][mask] = OBJECT_RGB[obj.color]
    return canvas


def mask_box(obj: SceneObject, t: int, size: int) -> tuple:
    """Pixel-tight normalized box of the object's rendered mask."""
    rows, cols, mask = _shape_mask(obj, t, size)
    if not mask.any():
        raise RuntimeError("risk object rendered to an empty mask")
    r = rows.start + np.flatnonzero(mask.any(axis=1))
    c = cols.start + np.flatnonzero(mask.any(axis=0))
    return (
        c[0] / size,
        r[0] / size,
        (c[-1] + 1) / size,
        (r[-1] + 1) / size,
    )


# -- scene construction --------------------------------------------------------


def _linear_track(x0, y0, x1, y1, n):
    f = np.linspace(0.0, 1.0, n)[:, None]
    return (1 - f) * np.array([x0, y0]) + f * np.array([x1, y1])


def _hr_critical_size_range(hr_size: int, lr_size: int) -> tuple[float, float]:
    """Sizes drawn at high resolution but culled at low resolution; empty
    (low > high) unless hr_size is above about 3 * lr_size."""
    return HR_CRITICAL_MIN_HR_PX / hr_size, MIN_DRAW_PX / lr_size * 0.999


def _risk_size(rng, obj_class: str, hr_critical: bool, hr_size: int, lr_size: int) -> float:
    if hr_critical:
        return float(rng.uniform(*_hr_critical_size_range(hr_size, lr_size)))
    _, mw, mh = CLASS_SHAPE[obj_class]
    # cap so the crossing start/end regions beside the band stay non-empty
    cap = min(0.34 / mw, 0.34 / mh, 0.30)
    return float(rng.uniform(MIN_DRAW_PX / lr_size * 1.15, cap))


def _sample_risk_object(rng, scenario: str, hr_critical: bool, cfg: SceneConfig):
    obj_class = str(rng.choice(CLASSES))
    color = str(rng.choice(CLASS_COLORS[obj_class]))
    size = _risk_size(rng, obj_class, hr_critical, cfg.hr_size, cfg.lr_size)
    _, mw, mh = CLASS_SHAPE[obj_class]
    w, h = size * mw, size * mh
    hw, hh = w / 2.0, h / 2.0
    left_lo, left_hi = hw + 0.01, BAND_X[0] - hw - 0.005
    right_lo, right_hi = BAND_X[1] + hw + 0.005, 1.0 - hw - 0.01
    for _ in range(200):
        if scenario == "end_in_band":
            if rng.random() < 0.5:
                x0 = rng.uniform(left_lo, left_hi)
            else:
                x0 = rng.uniform(right_lo, right_hi)
            x1 = rng.uniform(BAND_X[0] + 0.015, BAND_X[1] - 0.015)
        elif scenario == "cross_right":
            x0 = rng.uniform(left_lo, left_hi)
            x1 = rng.uniform(right_lo, right_hi)
        else:  # cross_left
            x0 = rng.uniform(right_lo, right_hi)
            x1 = rng.uniform(left_lo, left_hi)
        y0 = rng.uniform(hh + 0.02, 1.0 - hh - 0.02)
        y1 = float(np.clip(y0 + rng.uniform(-0.08, 0.08), hh + 0.01, 1.0 - hh - 0.01))
        obj = SceneObject(obj_class, color, size, _linear_track(x0, y0, x1, y1, cfg.clip_len))
        if risk_frames(obj, cfg.clip_len):
            return obj
    raise RuntimeError(f"could not place a valid risk object for scenario {scenario}")


def _offband_position(rng, hw: float, hh: float):
    """A static spot whose x-extent stays clear of the ego band."""
    left_lo, left_hi = hw + 0.01, BAND_X[0] - hw - 0.02
    right_lo, right_hi = BAND_X[1] + hw + 0.02, 1.0 - hw - 0.01
    sides = []
    if left_lo < left_hi:
        sides.append((left_lo, left_hi))
    if right_lo < right_hi:
        sides.append((right_lo, right_hi))
    if not sides:
        return None
    lo, hi = sides[int(rng.integers(len(sides)))]
    x = rng.uniform(lo, hi)
    y = rng.uniform(hh + 0.02, 1.0 - hh - 0.02)
    return x, y


def _sample_distractor(rng, risk: SceneObject, n_frames: int):
    """A static, strictly larger, high-contrast object well off the ego band."""
    choices = [c for c in CLASSES if c != risk.obj_class]
    obj_class = str(rng.choice(choices))
    _, mw, mh = CLASS_SHAPE[obj_class]
    cap = min(0.36 / mw, 0.36 / mh)
    size = float(min(max(1.8 * risk.size, 0.09), cap))
    w, h = size * mw, size * mh
    pos = _offband_position(rng, w / 2.0, h / 2.0)
    if pos is None:
        return None
    centers = np.tile(np.array(pos), (n_frames, 1))
    return SceneObject(obj_class, "white", size, centers)


def _sample_clutter(rng, n_frames: int):
    obj_class = str(rng.choice(CLASSES))
    color = str(rng.choice(CLASS_COLORS[obj_class]))
    size = float(rng.uniform(0.03, 0.09))
    _, mw, mh = CLASS_SHAPE[obj_class]
    pos = _offband_position(rng, size * mw / 2.0, size * mh / 2.0)
    if pos is None:
        return None
    centers = np.tile(np.array(pos), (n_frames, 1))
    return SceneObject(obj_class, color, size, centers)


# A crossing track starts and ends off the ego band, so it is inside the band
# only at an intermediate frame: two frames have none.
MIN_CLIP_LEN = 3


def generate_scene(seed: int, cfg: SceneConfig) -> SceneSample:
    if cfg.clip_len < MIN_CLIP_LEN:
        raise ValueError(f"SceneConfig.clip_len must be at least {MIN_CLIP_LEN} to generate "
                         f"scenes, got {cfg.clip_len}")
    lo, hi = _hr_critical_size_range(cfg.hr_size, cfg.lr_size)
    if cfg.hr_critical_frac > 0 and lo > hi:
        raise ValueError(f"SceneConfig.hr_size={cfg.hr_size} leaves no HR-critical object size "
                         f"at lr_size={cfg.lr_size}: hr_size must exceed about 3 * lr_size, "
                         f"or hr_critical_frac must be 0")
    rng = named_rng(seed, "scene")
    probs = [p for p, _, _ in SCENARIOS.values()]
    scenario = list(SCENARIOS)[int(rng.choice(len(SCENARIOS), p=probs))]
    hr_critical = bool(rng.random() < cfg.hr_critical_frac)
    risk = _sample_risk_object(rng, scenario, hr_critical, cfg)

    objects = []
    for _ in range(int(rng.integers(0, cfg.max_clutter + 1))):
        c = _sample_clutter(rng, cfg.clip_len)
        if c is not None:
            objects.append(c)
    has_distractor = bool(rng.random() < cfg.distractor_frac)
    if has_distractor:
        d = _sample_distractor(rng, risk, cfg.clip_len)
        if d is None:
            has_distractor = False
        else:
            objects.append(d)
    objects.append(risk)  # drawn last, never occluded

    clip = np.stack(
        [render_frame(objects, t, cfg.lr_size) for t in range(cfg.clip_len)]
    )
    hr = render_frame(objects, cfg.clip_len - 1, cfg.hr_size)

    _, motion_key, position_key = SCENARIOS[scenario]
    suggestion_idx = suggestion_index(risk.obj_class, motion_key, position_key)
    box = [float(v) for v in mask_box(risk, cfg.clip_len - 1, cfg.hr_size)]
    meta = {
        "caption": make_caption(risk.color, risk.obj_class, motion_key, position_key,
                                suggestion_idx),
        "box": box,
        "risk_class": risk.obj_class,
        "color": risk.color,
        "motion_key": motion_key,
        "position_key": position_key,
        "suggestion_idx": suggestion_idx,
        "bucket": size_bucket(box),
        "distractor": has_distractor,
        "hr_critical": hr_critical,
        "scenario": scenario,
        "seed": int(seed),
    }
    return SceneSample(clip, hr, meta)


# -- dataset -------------------------------------------------------------------


@dataclass
class SceneDataset:
    clips: np.ndarray  # uint8 [N, L, lr, lr, 3]
    hrs: np.ndarray  # uint8 [N, hr, hr, 3]
    meta: list[dict] = field(default_factory=list)

    def __len__(self):
        return self.clips.shape[0]

    @classmethod
    def generate(cls, cfg: SceneConfig, split: str) -> "SceneDataset":
        if split == "train":
            seeds = [cfg.seed + i for i in range(cfg.n_train)]
        elif split == "test":
            seeds = [cfg.seed + cfg.n_train + i for i in range(cfg.n_test)]
        else:
            raise ValueError(f"unknown split '{split}'")
        samples = [generate_scene(s, cfg) for s in seeds]
        return cls(
            clips=np.stack([s.clip for s in samples]),
            hrs=np.stack([s.hr for s in samples]),
            meta=[s.meta for s in samples],
        )


# -- on-disk format ------------------------------------------------------------

# Version 2: the caption's suggestion sentence is a function of the scene
# (version 1 drew it at random). Version 3: a split's arrays are one
# `<split>/scenes.npz` (version 2 wrote one file per sample). Version 4: the `.npz`
# holds the sha256 of the manifest written after it, so a torn save is refused.
MANIFEST_VERSION = 4


def save_dataset(ds: SceneDataset, cfg: SceneConfig, out_dir: str, split: str) -> None:
    split_dir = os.path.join(out_dir, split)
    os.makedirs(split_dir, exist_ok=True)
    manifest = json_text({"version": MANIFEST_VERSION, "split": split, "config": asdict(cfg),
                          "samples": ds.meta}).encode()
    digest = np.frombuffer(hashlib.sha256(manifest).digest(), dtype=np.uint8)
    write_atomic(os.path.join(split_dir, "scenes.npz"),
                 lambda fh: np.savez(fh, clips=ds.clips, hrs=ds.hrs, manifest_sha256=digest))
    write_atomic(os.path.join(out_dir, f"{split}_manifest.json"), lambda fh: fh.write(manifest))


def load_dataset(out_dir: str, split: str, scene: SceneConfig | None = None,
                 fields=None) -> SceneDataset:
    """Read a split back, checked against its manifest and, when given,
    against `scene` (on every field, or only on `fields`).

    Raises FileNotFoundError when a file of the split is missing, and
    ValueError when the manifest version is not this generator's, when the
    manifest's generator config differs from `scene` (naming the fields), or
    when the arrays are not the ones the manifest describes or saved with it.
    """
    manifest_path = os.path.join(out_dir, f"{split}_manifest.json")
    with open(manifest_path, "rb") as fh:
        text = fh.read()
    manifest = json.loads(text)
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{split} split in {out_dir} has manifest version "
                         f"{manifest.get('version')}, but this generator writes version "
                         f"{MANIFEST_VERSION}; regenerate it")
    cfg, n = manifest["config"], len(manifest["samples"])
    if scene is not None:
        asked = asdict(scene)
        keys = asked.keys() | cfg.keys() if fields is None else fields
        differ = sorted(k for k in keys if asked.get(k) != cfg.get(k))
        if differ:
            raise ValueError(f"{split} split in {out_dir} was built with a different "
                             f"scene config: {differ}")
    path = os.path.join(out_dir, split, "scenes.npz")
    with np.load(path) as z:
        arrays = {"clips": z["clips"], "hrs": z["hrs"]}
        digest = bytes(z.get("manifest_sha256", b""))
    lr, hr = cfg["lr_size"], cfg["hr_size"]
    want = {"clips": (n, cfg["clip_len"], lr, lr, 3), "hrs": (n, hr, hr, 3)}
    for name, arr in arrays.items():
        if arr.dtype != np.uint8 or arr.shape != want[name]:
            raise ValueError(f"{path}: {name} is {arr.dtype} {list(arr.shape)}, but the "
                             f"manifest describes uint8 {list(want[name])}")
    if digest != hashlib.sha256(text).digest():
        raise ValueError(f"{path} was saved with another manifest than {manifest_path}; regenerate it")
    return SceneDataset(arrays["clips"], arrays["hrs"], manifest["samples"])
