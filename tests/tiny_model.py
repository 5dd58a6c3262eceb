"""The tiny model shape the CLI, model and training tests share, and the
ablation grid's caption-only baseline."""

from hirisk.config import Ablation, ModelConfig
from hirisk.train import GRID_ROWS


def tiny_model(**kw) -> ModelConfig:
    return ModelConfig(patch=8, d_v=16, n_layers=2, n_heads=2, adapter_dim=4, n_queries=4,
                       d_l=32, lm_layers=1, lm_heads=2, cnn_width=4, qdh_dim=16, qdh_heads=2,
                       **kw)


def baseline_only() -> Ablation:
    """A copy of the grid's `baseline_only` flags, as `train._row_config` copies a row."""
    return Ablation(**vars(dict(GRID_ROWS)["baseline_only"]))
