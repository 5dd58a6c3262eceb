"""Configuration dataclasses and their JSON round-trip.

Each section checks its own fields when it is built, and a RunConfig the rules
between sections, so a value its code cannot run is refused before any work.

Configs hash to a stable hex digest (sha256 of canonical JSON) so runs can be
compared and checkpoints verified against the settings that produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

HEAD_VARIANTS = ("span_query", "learned_query", "text_coords")
DTYPES = ("float32", "float64")  # float16 overflows the -1e9 attention mask
HR_STRIDE = 16  # the spatial extractor halves the HR frame four times

# the spellings `apply_override` accepts for a bool field, in any case
BOOL_WORDS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}

# The rasterizer culls an object thinner than MIN_DRAW_PX pixels; an HR-critical
# object is culled at low resolution yet spans HR_CRITICAL_MIN_HR_PX HR pixels.
MIN_DRAW_PX = 2.0
HR_CRITICAL_MIN_HR_PX = 6.0

# A crossing track starts and ends off the ego band, so it is inside the band
# only at an intermediate frame: two frames have none.
MIN_CLIP_LEN = 3


def hr_critical_size_range(hr_size: int, lr_size: int) -> tuple[float, float]:
    """Sizes drawn at high resolution but culled at low resolution; empty
    (low > high) unless hr_size is above about 3 * lr_size."""
    return HR_CRITICAL_MIN_HR_PX / hr_size, MIN_DRAW_PX / lr_size * 0.999


def _require_at_least(section, low, *names) -> None:
    for name in names:
        value = getattr(section, name)
        if value < low:
            raise ValueError(f"{type(section).__name__}.{name} must be at least {low}, got {value}")


@dataclass
class Ablation:
    """Component switches; everything on by default (the full model)."""

    no_st_adapter: bool = False
    no_em: bool = False
    no_im: bool = False
    no_qdh: bool = False
    no_hrse: bool = False


@dataclass
class SceneConfig:
    """Synthetic benchmark generator settings."""

    n_train: int = 2000
    n_test: int = 200
    seed: int = 0
    clip_len: int = 5
    lr_size: int = 32
    hr_size: int = 128
    hr_critical_frac: float = 0.6
    distractor_frac: float = 0.5
    max_clutter: int = 2

    def __post_init__(self):
        _require_at_least(self, 1, "n_train", "n_test", "lr_size", "hr_size")
        _require_at_least(self, MIN_CLIP_LEN, "clip_len")
        lo, hi = hr_critical_size_range(self.hr_size, self.lr_size)
        if self.hr_critical_frac > 0 and lo > hi:
            raise ValueError(f"SceneConfig.hr_size={self.hr_size} leaves no HR-critical object "
                             f"size at lr_size={self.lr_size}: hr_size must exceed about "
                             f"3 * lr_size, or hr_critical_frac must be 0")


@dataclass
class ModelConfig:
    patch: int = 4
    d_v: int = 64
    n_layers: int = 4
    n_heads: int = 4
    adapter_dim: int = 16
    n_queries: int = 8
    d_l: int = 96
    lm_layers: int = 2
    lm_heads: int = 4
    cnn_width: int = 16
    qdh_dim: int = 64
    qdh_heads: int = 4
    n_learned_queries: int = 4
    head_variant: str = "span_query"
    dtype: str = "float32"
    ablation: Ablation = field(default_factory=Ablation)

    def __post_init__(self):
        if self.head_variant not in HEAD_VARIANTS:
            raise ValueError(f"head_variant must be one of {HEAD_VARIANTS}")
        if self.dtype not in DTYPES:
            raise ValueError(f"ModelConfig.dtype must be one of {DTYPES}, got '{self.dtype}'")
        _require_at_least(self, 1, *(f.name for f in dataclasses.fields(self) if f.type == "int"))
        for dim, heads in (("d_v", "n_heads"), ("d_l", "lm_heads"), ("qdh_dim", "qdh_heads")):
            if getattr(self, dim) % getattr(self, heads):
                raise ValueError(f"ModelConfig.{dim}={getattr(self, dim)} must divide by "
                                 f"{heads}={getattr(self, heads)}")


@dataclass
class TrainConfig:
    steps: int = 3000
    batch_size: int = 16
    lr: float = 1e-4
    lr_floor: float = 1e-5
    hr_lr_mult: float = 4.0
    weight_decay: float = 0.01
    box_weight: float = 2.0
    highlight_pretrain_steps: int = 200
    highlight_pretrain_lr: float = 1e-3
    freeze_backbone: bool = False
    seed: int = 0
    log_every: int = 50
    eval_batch: int = 50

    def __post_init__(self):
        _require_at_least(self, 1, "batch_size", "eval_batch", "log_every")
        _require_at_least(self, 0, "steps", "highlight_pretrain_steps")


@dataclass
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        s, m = self.scene, self.model
        if s.lr_size % m.patch:
            raise ValueError(f"scene.lr_size={s.lr_size} must divide by model.patch={m.patch}")
        if s.hr_size % HR_STRIDE:
            raise ValueError(f"scene.hr_size={s.hr_size} must divide by HR stride {HR_STRIDE}")


def to_dict(cfg) -> dict:
    return dataclasses.asdict(cfg)


def from_dict(data: dict, cls=RunConfig, prefix: str = ""):
    """Build `cls`, by default a RunConfig, from its `to_dict` form.

    Raises ValueError naming each key its section has no field for, such as
    a field that a config or checkpoint of an older version carries. An int
    given for a float field (`"lr": 1`) is stored as a float, so it hashes and
    takes overrides as `1.0` would.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError("no config field " + ", ".join(f"'{prefix}{k}'" for k in unknown))

    def value(k, v):
        # a section's field builds its default with the section's own class
        if dataclasses.is_dataclass(fields[k].default_factory):
            return from_dict(v, fields[k].default_factory, f"{prefix}{k}.")
        return float(v) if fields[k].type == "float" and type(v) is int else v

    return cls(**{k: value(k, v) for k, v in data.items()})


def canonical_json(cfg) -> str:
    """`cfg`, a config or its `to_dict` form, as compact sorted JSON."""
    data = cfg if isinstance(cfg, dict) else to_dict(cfg)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(cfg) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return from_dict(json.load(fh))


def apply_override(cfg: RunConfig, key: str, value: str) -> None:
    """Set a dotted field like 'train.lr=3e-4' from its string form.

    The section set on re-runs its `__post_init__`, so an override is checked
    as the constructor would check it; a rejected value leaves the field as
    it was. A bool takes one of `BOOL_WORDS`, and a section itself cannot be
    replaced. The rules between sections are left to `RunConfig.__post_init__`,
    run once the last is set.
    """
    parts = key.split(".")
    obj = cfg
    for p in parts[:-1]:
        if not hasattr(obj, p):
            raise KeyError(f"no config section '{p}' in '{key}'")
        obj = getattr(obj, p)
    leaf = parts[-1]
    if not hasattr(obj, leaf):
        raise KeyError(f"no config field '{leaf}' in '{key}'")
    current = getattr(obj, leaf)
    if dataclasses.is_dataclass(current):
        raise KeyError(f"'{key}' is a config section; set one of its fields")
    if isinstance(current, bool):
        word = value.lower()
        if word not in BOOL_WORDS:
            raise ValueError(f"'{key}' takes a bool (one of {'/'.join(BOOL_WORDS)}), "
                             f"got '{value}'")
        setattr(obj, leaf, BOOL_WORDS[word])
    elif isinstance(current, (int, float)):
        kind = type(current)
        try:
            setattr(obj, leaf, kind(value))
        except ValueError:
            raise ValueError(f"'{key}' takes {'an int' if kind is int else 'a float'}, "
                             f"got '{value}'") from None
    else:
        setattr(obj, leaf, value)
    if hasattr(obj, "__post_init__"):
        try:
            obj.__post_init__()
        except ValueError:
            setattr(obj, leaf, current)
            raise
