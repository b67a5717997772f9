"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hcmgnn.tensor import Tape, Tensor


@dataclass
class CoordinateIssue:
    input_index: int
    position: tuple[int, int]
    reason: str  # "non-differentiable" or "non-finite"


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    n_checked: int
    excluded: list[CoordinateIssue] = field(default_factory=list)
    worst: tuple[int, tuple[int, int], float, float] | None = None

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(f, inputs, h: float = 1e-6, tol: float = 1e-4,
               rel_floor: float = 1e-5, kink_tol: float = 1e-3) -> GradCheckReport:
    """Compare tape gradients of scalar-valued `f` against central differences.

    `f` is called as f(*inputs) and must return a 1x1 tensor.  Each input
    coordinate is perturbed by +-h.  Coordinates where the two one-sided
    slopes disagree (a kink, e.g. leaky_relu at 0) are excluded and
    reported; coordinates producing non-finite values are reported too.

    `rel_floor` keeps centered-difference roundoff (about eps*|f|/h in
    absolute terms) from dominating the relative error when the true
    gradient is near zero.
    """
    if isinstance(inputs, Tensor):
        inputs = [inputs]
    inputs = list(inputs)
    for x in inputs:
        x.requires_grad = True
        x.zero_grad()

    with Tape() as tape:
        loss = f(*inputs)
        tape.backward(loss)
    analytic = [x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
                for x in inputs]

    def evaluate() -> float:
        return f(*inputs).item()

    f0 = evaluate()
    issues: list[CoordinateIssue] = []
    max_rel = 0.0
    worst = None
    n_checked = 0

    for k, x in enumerate(inputs):
        rows, cols = x.shape
        for i in range(rows):
            for j in range(cols):
                orig = x.data[i, j]
                x.data[i, j] = orig + h
                f_plus = evaluate()
                x.data[i, j] = orig - h
                f_minus = evaluate()
                x.data[i, j] = orig

                if not (np.isfinite(f_plus) and np.isfinite(f_minus) and np.isfinite(f0)):
                    issues.append(CoordinateIssue(k, (i, j), "non-finite"))
                    continue

                s_plus = (f_plus - f0) / h
                s_minus = (f0 - f_minus) / h
                scale = max(abs(s_plus), abs(s_minus), 1.0)
                if abs(s_plus - s_minus) > kink_tol * scale:
                    issues.append(CoordinateIssue(k, (i, j), "non-differentiable"))
                    continue

                numeric = (f_plus - f_minus) / (2 * h)
                a = analytic[k][i, j]
                if not np.isfinite(a):
                    issues.append(CoordinateIssue(k, (i, j), "non-finite"))
                    continue
                rel = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
                n_checked += 1
                if rel > max_rel:
                    max_rel = rel
                    worst = (k, (i, j), float(a), float(numeric))

    return GradCheckReport(max_rel_error=max_rel, tol=tol, n_checked=n_checked,
                           excluded=issues, worst=worst)
