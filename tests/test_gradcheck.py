import numpy as np
import pytest

from attention_oracle import attend
from gradcheck import grad_check
import hcmgnn.tensor as T
from hcmgnn.tensor import Tensor


def test_square_at_two():
    x = Tensor([[2.0]])
    rep = grad_check(lambda t: T.sum_sq(t), x, h=1e-6)
    assert rep.passed
    assert rep.max_rel_error < 1e-8
    # analytic derivative of x^2 at 2 is 4
    assert rep.worst is None or abs(rep.worst[2] - 4.0) < 1e-9


def test_leaky_relu_kink_excluded():
    x = Tensor([[0.0, 1.0, -1.0]])

    def f(t):
        return T.sum_sq(T.leaky_relu(t))

    rep = grad_check(f, x, h=1e-6)
    # sum of squares has zero slope at 0; use a linear readout instead
    w = Tensor(np.ones((3, 1)))

    def g(t):
        return T.matmul(T.leaky_relu(t), w)

    rep = grad_check(g, x, h=1e-6)
    kinks = [iss for iss in rep.excluded if iss.reason == "non-differentiable"]
    assert [iss.position for iss in kinks] == [(0, 0)]
    assert rep.passed


def test_three_layer_composite_matches_central_differences():
    rng = np.random.default_rng(42)
    x = Tensor(rng.normal(size=(4, 3)))
    w1 = Tensor(rng.normal(size=(3, 5)))
    w2 = Tensor(rng.normal(size=(5, 2)))

    def f(xv, a, b):
        h1 = T.tanh(T.matmul(xv, a))
        h2 = T.elu(T.matmul(h1, b))
        return T.sum_sq(T.sigmoid(h2))

    rep = grad_check(f, [x, w1, w2], h=1e-6)
    assert rep.passed
    assert rep.max_rel_error < 1e-5


@pytest.mark.parametrize("name,f", [
    ("matmul", lambda x: T.sum_sq(T.matmul(x, T.constant(np.arange(6.0).reshape(3, 2))))),
    ("transpose", lambda x: T.sum_sq(T.transpose(x))),
    ("add_row", lambda x: T.sum_sq(T.add(x, T.constant(np.ones((1, 3)))))),
    ("hadamard", lambda x: T.sum_sq(T.hadamard(x, T.constant(np.full((2, 3), 1.7))))),
    ("smul", lambda x: T.sum_sq(T.smul(x, -2.5))),
    ("concat", lambda x: T.sum_sq(T.concat_cols([x, T.tanh(x)]))),
    ("gather", lambda x: T.sum_sq(T.gather_rows(x, [1, 1, 0]))),
    ("gather_sum", lambda x: T.sum_sq(T.gather_sum([x, T.tanh(x)], [[1, 1, 0], [0, 1, 1]]))),
    # `attend` is the instance-message oracle's op, which `attend_nodes` is checked against
    ("attend", lambda x: T.sum_sq(attend(x, T.gather_rows(T.tanh(x), [0, 1, 1]),
                                         [1, 0, 1], [0, 1, 1], 2))),
    ("attend_nodes", lambda x: T.sum_sq(T.attend_nodes(
        x, T.tanh(x), T.reshape(T.sigmoid(x), 3, 2), [[[0, 1]], [[1, 0]]],
        [[1, 2, 3], [0, 2, 3]], 2))),
    ("segment_sum", lambda x: T.sum_sq(T.segment_sum(x, [0, 0], 2))),
    ("segment_mean", lambda x: T.sum_sq(T.segment_mean(x, [1, 1], 2))),
    ("mean_rows", lambda x: T.sum_sq(T.mean_rows(x))),
    ("row_softmax", lambda x: T.sum_sq(T.row_softmax(x))),
    ("reshape", lambda x: T.sum_sq(T.tanh(T.reshape(x, 3, 2)))),
    ("segment_softmax_cols", lambda x: T.sum_sq(T.hadamard(
        T.segment_softmax(x, [2, 2], 3), T.constant(np.arange(1.0, 7.0).reshape(2, 3))))),
    ("pair_softmax", lambda x: T.sum_sq(T.hadamard(
        T.pair_softmax(T.reshape(x, 3, 2), [[0, 1, 2, 2], [1, 1, 0, 2]], [0, 0, 1, 1], 3,
                       slope=0.2),
        T.constant(np.arange(1.0, 9.0).reshape(4, 2))))),
    ("elu", lambda x: T.sum_sq(T.elu(x))),
    ("tanh", lambda x: T.sum_sq(T.tanh(x))),
    ("sigmoid", lambda x: T.sum_sq(T.sigmoid(x))),
])
def test_each_primitive_passes(name, f):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    x = Tensor(rng.normal(size=(2, 3)) + 0.1)
    rep = grad_check(f, x, h=1e-6, tol=1e-4)
    assert rep.passed, f"{name}: {rep.max_rel_error}"


def test_segment_softmax_gradient():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 1)))
    seg = [0, 1, 1, 0, 2]
    readout = T.constant(rng.normal(size=(5, 1)))

    def f(t):
        alpha = T.segment_softmax(t, seg, 3)
        return T.sum_sq(T.add(alpha, readout))

    rep = grad_check(f, x, h=1e-6)
    assert rep.passed


def test_non_finite_coordinates_reported():
    x = Tensor([[1.0, 2.0]])

    def f(t):
        return T.sum_sq(T.smul(T.smul(t, 1e308), 1e10))

    with np.errstate(over="ignore"):
        rep = grad_check(f, x, h=1e-6)
    assert all(iss.reason == "non-finite" for iss in rep.excluded)
    assert len(rep.excluded) == 2
