"""Configuration dataclasses and their JSON round-trip.

Configs hash to a stable hex digest (sha256 of canonical JSON) so runs can be
compared and checkpoints verified against the settings that produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

HEAD_VARIANTS = ("span_query", "learned_query", "text_coords")

# the spellings `apply_override` accepts for a bool field, in any case
BOOL_WORDS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}


@dataclass
class Ablation:
    """Component switches; everything on by default (the full model)."""

    baseline_only: bool = False
    no_st_adapter: bool = False
    no_em: bool = False
    no_im: bool = False
    no_qdh: bool = False
    no_hrse: bool = False

    def __post_init__(self):
        # no high-resolution branch at all implies every branch-module flag
        if self.baseline_only:
            self.no_em = self.no_im = self.no_qdh = self.no_hrse = True


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
    span_mode: str = "noun_phrase"
    dtype: str = "float32"
    ablation: Ablation = field(default_factory=Ablation)

    def __post_init__(self):
        if self.head_variant not in HEAD_VARIANTS:
            raise ValueError(f"head_variant must be one of {HEAD_VARIANTS}")
        if self.span_mode not in ("noun_phrase", "full_answer"):
            raise ValueError("span_mode must be 'noun_phrase' or 'full_answer'")
        if isinstance(self.ablation, dict):
            self.ablation = Ablation(**self.ablation)


@dataclass
class TrainConfig:
    steps: int = 3000
    batch_size: int = 16
    lr: float = 1e-4
    lr_floor: float = 1e-5
    warmup_steps: int = 0
    hr_lr_mult: float = 4.0
    weight_decay: float = 0.01
    box_weight: float = 2.0
    highlight_pretrain_steps: int = 200
    highlight_pretrain_lr: float = 1e-3
    freeze_backbone: bool = False
    seed: int = 0
    log_every: int = 50
    eval_batch: int = 50


@dataclass
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if isinstance(self.scene, dict):
            self.scene = SceneConfig(**self.scene)
        if isinstance(self.model, dict):
            self.model = ModelConfig(**self.model)
        if isinstance(self.train, dict):
            self.train = TrainConfig(**self.train)


def to_dict(cfg) -> dict:
    return dataclasses.asdict(cfg)


def from_dict(data: dict) -> RunConfig:
    return RunConfig(**data)


def canonical_json(cfg) -> str:
    return json.dumps(to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return from_dict(json.load(fh))


def apply_override(cfg: RunConfig, key: str, value: str) -> None:
    """Set a dotted field like 'train.lr=3e-4' from its string form.

    The section set on re-runs its `__post_init__`, so an override is checked
    and implies what the constructor would (`baseline_only` sets the branch
    flags); a rejected value leaves the field as it was. A bool takes one of
    `BOOL_WORDS`, and a section itself cannot be replaced.
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
    elif isinstance(current, int):
        setattr(obj, leaf, int(value))
    elif isinstance(current, float):
        setattr(obj, leaf, float(value))
    else:
        setattr(obj, leaf, value)
    if hasattr(obj, "__post_init__"):
        try:
            obj.__post_init__()
        except ValueError:
            setattr(obj, leaf, current)
            raise
