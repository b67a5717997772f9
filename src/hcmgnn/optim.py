"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class NonFiniteGradient(RuntimeError):
    """A parameter gradient contains nan or inf; the step was aborted."""


class Adam:
    """Standard Adam with bias correction.

    Parameters are a name -> Tensor dict; names make gradient failures
    attributable.  A parameter whose grad is None is treated as zero
    gradient (its moments still decay).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.005,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteGradient(f"non-finite gradient in parameter '{name}'")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name] = b1 * self._m[name] + (1 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1 - b2) * (g * g)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
