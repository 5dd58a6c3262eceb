"""AdamW optimizer with parameter groups plus a cosine learning-rate schedule."""

from __future__ import annotations

import numpy as np

BETA1, BETA2 = 0.9, 0.999  # moment decay rates
EPS = 1e-8  # added to the root of the second moment


class AdamW:
    """Adam with decoupled weight decay.

    Accepts parameter groups as dicts: {"params": {name: Parameter},
    "lr_scale": float}; a bare {name: Parameter} dict is one group. The
    effective step size for a group is `lr * lr_scale`, letting one schedule
    drive branches trained at different rates. Parameters whose grad is None
    at step time are skipped entirely (their moment state does not advance),
    matching the convention that frozen or unused parameters stay untouched.

    `state` maps a parameter's name to its (m, v, t) moments, so the state
    does not depend on how the parameters are split into groups.
    """

    def __init__(self, param_groups, lr: float = 1e-4, weight_decay: float = 0.01):
        if isinstance(param_groups, dict):
            param_groups = [{"params": param_groups}]
        self.groups = [{"params": dict(g["params"]), "lr_scale": float(g.get("lr_scale", 1.0))}
                       for g in param_groups]
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.state: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}

    def load_state(self, state: dict) -> None:
        """Replace the moments with copies of `state`, {name: (m, v, t)}."""
        trained = {name for g in self.groups for name in g["params"]}
        unknown = sorted(set(state) - trained)
        if unknown:
            raise KeyError(f"optimizer state for parameters it does not train: {unknown}")
        self.state = {name: (m.copy(), v.copy(), int(t)) for name, (m, v, t) in state.items()}

    def step(self):
        for g in self.groups:
            lr = self.lr * g["lr_scale"]
            for name, p in g["params"].items():
                if p.grad is None:
                    continue
                m, v, t = self.state.get(name) or (np.zeros_like(p.data), np.zeros_like(p.data), 0)
                t += 1
                self.state[name] = (m, v, t)
                grad = p.grad
                m *= BETA1
                m += (1.0 - BETA1) * grad
                v *= BETA2
                v += (1.0 - BETA2) * grad * grad
                mhat = m / (1.0 - BETA1**t)
                vhat = v / (1.0 - BETA2**t)
                if self.weight_decay:
                    p.data -= lr * self.weight_decay * p.data
                p.data -= lr * mhat / (np.sqrt(vhat) + EPS)

    def grad_norm(self) -> float:
        total = 0.0
        for g in self.groups:
            for p in g["params"].values():
                if p.grad is not None:
                    total += float((p.grad.astype(np.float64) ** 2).sum())
        return float(np.sqrt(total))


def cosine_lr(step: int, total_steps: int, lr0: float, floor: float = 0.0) -> float:
    """Cosine decay from lr0 at step 0 to floor at step total_steps."""
    if total_steps <= 0:
        return floor
    frac = min(max(step / total_steps, 0.0), 1.0)
    return floor + 0.5 * (lr0 - floor) * (1.0 + np.cos(np.pi * frac))
