"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autograd import Tensor

EPS = 1e-6  # central-difference step


def finite_difference_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                            rel_tol: float = 1e-4) -> float:
    """Compare analytic grads of a scalar-valued fn against central differences.

    Checks every coordinate of every input that requires grad. Relative
    error per coordinate is |a - n| / max(|a| + |n|, 1e-8). Returns the
    worst relative error observed; raises AssertionError above rel_tol.

    Inputs should be float64 for the step size to be meaningful.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("finite_difference_check needs a scalar-valued fn")
    out.backward()
    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + EPS
            hi = float(fn(*inputs).data)
            flat[i] = orig - EPS
            lo = float(fn(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * EPS)
            a = float(aflat[i])
            err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
            if err > worst:
                worst = err
            if err > rel_tol:
                raise AssertionError(
                    f"gradient mismatch at flat index {i}: analytic={a:.6e} "
                    f"numeric={numeric:.6e} rel_err={err:.3e}"
                )
    return worst
