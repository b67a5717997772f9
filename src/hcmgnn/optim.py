"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class NonFiniteGradient(RuntimeError):
    """A parameter gradient contains nan or inf; the step was aborted."""


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction, at `BETA1`, `BETA2` and `EPS`.

    Parameters are a name -> Tensor dict; names make gradient failures
    attributable.  A parameter whose grad is None is treated as zero
    gradient (its moments still decay).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.005):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteGradient(f"non-finite gradient in parameter '{name}'")
        self.t += 1
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name] = BETA1 * self._m[name] + (1 - BETA1) * g
            v = self._v[name] = BETA2 * self._v[name] + (1 - BETA2) * (g * g)
            m_hat = m / (1 - BETA1 ** self.t)
            v_hat = v / (1 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
