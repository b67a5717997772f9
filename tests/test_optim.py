import numpy as np
import pytest

from hcmgnn.optim import Adam, NonFiniteGradient
from hcmgnn.tensor import Tensor


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    p.grad = np.zeros_like(p.data)
    opt = Adam({"p": p})
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.t == 1


def test_none_gradient_treated_as_zero():
    p = Tensor(np.array([[3.0]]), requires_grad=True)
    opt = Adam({"p": p})
    opt.step()
    assert p.data[0, 0] == 3.0


def test_first_step_is_signed_learning_rate():
    p = Tensor(np.array([[1.0, 1.0, 1.0]]), requires_grad=True)
    p.grad = np.array([[0.5, -3.0, 1e-4]])
    opt = Adam({"p": p}, lr=0.005)
    opt.step()
    # bias correction makes m_hat/sqrt(v_hat) ~ sign(g) on step one
    delta = p.data - 1.0
    assert np.allclose(delta, -0.005 * np.sign(p.grad), rtol=1e-3)


def test_quadratic_descent_monotone_after_burn_in():
    w = Tensor(np.array([[0.0]]), requires_grad=True)
    opt = Adam({"w": w}, lr=0.005)
    gaps = []
    for _ in range(200):
        w.grad = 2.0 * (w.data - 3.0)
        opt.step()
        gaps.append(abs(w.data[0, 0] - 3.0))
    burn_in = 10
    assert all(b <= a + 1e-12 for a, b in zip(gaps[burn_in:], gaps[burn_in + 1:]))
    assert gaps[-1] < gaps[burn_in]


def test_non_finite_gradient_names_parameter():
    good = Tensor(np.ones((1, 1)), requires_grad=True)
    bad = Tensor(np.ones((1, 1)), requires_grad=True)
    good.grad = np.ones((1, 1))
    bad.grad = np.array([[np.nan]])
    opt = Adam({"good": good, "offender": bad})
    with pytest.raises(NonFiniteGradient, match="offender"):
        opt.step()
    # aborted before mutating anything
    assert opt.t == 0
    assert good.data[0, 0] == 1.0


def test_moments_match_reference_formula():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    ref = p.data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    opt = Adam({"p": p}, lr=0.01)
    for t in range(1, 6):
        g = rng.normal(size=(2, 2))
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-14)
