"""The tiny model shape the CLI, model and training tests share."""

from hirisk.config import ModelConfig


def tiny_model(**kw) -> ModelConfig:
    return ModelConfig(patch=8, d_v=16, n_layers=2, n_heads=2, adapter_dim=4, n_queries=4,
                       d_l=32, lm_layers=1, lm_heads=2, cnn_width=4, qdh_dim=16, qdh_heads=2,
                       **kw)
