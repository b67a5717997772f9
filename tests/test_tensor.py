import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcmgnn.tensor as T
from hcmgnn.tensor import ShapeError, Tape, TapeError, Tensor


def test_hadamard_definition():
    out = T.hadamard(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [[3.0, 8.0]])


def test_softmax_symmetry():
    out = T.row_softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_leaky_relu_negative_slope():
    out = T.leaky_relu(Tensor([[-1.0]]), slope=0.01)
    assert out.data[0, 0] == pytest.approx(-0.01)


def test_matmul_identity():
    x = np.arange(6.0).reshape(2, 3)
    out = T.matmul(Tensor(np.eye(2)), Tensor(x))
    assert np.array_equal(out.data, x)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))))
    assert "(2, 3)" in str(err.value) and "(4, 3)" in str(err.value)


def test_softmax_rejects_empty():
    with pytest.raises(ShapeError):
        T.row_softmax(Tensor(np.zeros((0, 3))))
    with pytest.raises(ShapeError):
        T.segment_softmax(Tensor(np.zeros((0, 1))), [], 1)


def test_segment_softmax_sums_per_segment():
    x = Tensor(np.array([[0.3], [1.0], [-2.0], [0.1], [5.0]]))
    seg = [0, 0, 1, 1, 1]
    out = T.segment_softmax(x, seg, 2)
    assert out.data[:2].sum() == pytest.approx(1.0, abs=1e-9)
    assert out.data[2:].sum() == pytest.approx(1.0, abs=1e-9)
    assert (out.data >= 0).all()


def test_segment_softmax_closed_form():
    out = T.segment_softmax(Tensor(np.array([[0.0], [np.log(3.0)]])), [0, 0], 1)
    assert np.allclose(out.data[:, 0], [0.25, 0.75])


def test_segment_sum_and_mean_against_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 3))
    seg = np.array([2, 0, 0, 1, 2, 2, 0])
    got_sum = T.segment_sum(Tensor(x), seg, 4).data
    got_mean = T.segment_mean(Tensor(x), seg, 4).data
    for j in range(4):
        rows = x[seg == j]
        expect_sum = rows.sum(axis=0) if rows.size else np.zeros(3)
        assert np.allclose(got_sum[j], expect_sum)
        expect_mean = rows.mean(axis=0) if rows.size else np.zeros(3)
        assert np.allclose(got_mean[j], expect_mean)


def test_backward_square_sum():
    x = Tensor([[3.0]], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_sq(x)
        tape.backward(loss)
    assert np.array_equal(x.grad, [[6.0]])


def test_backward_sigmoid_at_zero():
    x = Tensor([[0.0]], requires_grad=True)
    with Tape() as tape:
        tape.backward(T.sigmoid(x))
    assert x.grad[0, 0] == pytest.approx(0.25)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = T.tanh(x)
        with pytest.raises(TapeError):
            tape.backward(y)


def test_backward_twice_rejected():
    x = Tensor([[1.0]], requires_grad=True)
    with Tape() as tape:
        loss = T.sum_sq(x)
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)


def test_shared_subexpression_grads_sum():
    # loss = sum(x*x) + sum(x*x) -> grad 4x
    x = Tensor([[2.0]], requires_grad=True)
    with Tape() as tape:
        a = T.sum_sq(x)
        b = T.sum_sq(x)
        tape.backward(T.add(a, b))
    assert x.grad[0, 0] == pytest.approx(8.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_accumulation_linearity(seed):
    # grad of f(x)+g(x) equals grad f(x) plus grad g(x)
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(3, 4))
    a = rng.normal(size=(4, 2))

    def f(x):
        return T.sum_sq(T.tanh(x))

    def g(x):
        return T.sum_sq(T.sigmoid(T.matmul(x, T.constant(a))))

    def grad_of(fn):
        x = Tensor(xv.copy(), requires_grad=True)
        with Tape() as tape:
            tape.backward(fn(x))
        return x.grad

    gf, gg = grad_of(f), grad_of(g)
    gsum = grad_of(lambda x: T.add(f(x), g(x)))
    assert np.allclose(gsum, gf + gg, atol=1e-12)


def test_row_broadcast_add_and_hadamard_grads():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    b = Tensor([[1.0, -1.0]], requires_grad=True)
    with Tape() as tape:
        tape.backward(T.sum_sq(T.add(x, b)))
    assert b.grad.shape == (1, 2)
    assert np.allclose(b.grad, 2 * (x.data + b.data).sum(axis=0, keepdims=True))

    alpha = Tensor(np.array([[2.0], [3.0], [4.0]]), requires_grad=True)
    y = Tensor(np.ones((3, 2)))
    with Tape() as tape:
        tape.backward(T.sum_sq(T.hadamard(y, alpha)))
    assert alpha.grad.shape == (3, 1)
    assert np.allclose(alpha.grad, 2 * alpha.data * 2)


def test_gather_rows_accumulates_repeats():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    with Tape() as tape:
        picked = T.gather_rows(x, [0, 0, 1])
        tape.backward(T.sum_sq(picked))
    assert np.allclose(x.grad, [[4.0, 8.0], [6.0, 8.0]])


def _copying_accumulate(t, g, fresh=False):
    """The accumulation rule before `fresh`: copy each first grad, sum into a new array."""
    if not t.requires_grad:
        return
    t.grad = g.copy() if t.grad is None else t.grad + g


def _keeping_backward(tape, loss):
    """The sweep before records were freed: run every rule, keep every record and grad."""
    loss.grad = np.ones((1, 1))
    for out, rule in reversed(tape._records):
        if out.grad is not None and out.requires_grad:
            rule(out.grad)


def _mixed_loss(xs, w):
    """A loss where each aliasing op is the first to reach its leaf."""
    u = T.add(T.add(xs[0], xs[0]), T.hadamard(xs[1], xs[1]))
    v = T.add(u, T.matmul(u, w))   # u gets a pass-through, then a product
    c = T.concat_cols([xs[2], xs[2], v])
    t = T.matmul(T.transpose(xs[3]), v)
    picked = T.add(T.gather_rows(xs[4], [0, 2, 2]), T.gather_rows(xs[4], [1, 2, 0]))
    return T.add(T.add(T.sum_sq(T.tanh(c)), T.sum_sq(t)), T.sum_sq(picked))


def _mixed_leaves():
    rng = np.random.default_rng(8)
    xv, wv = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
    return ([Tensor(xv.copy(), requires_grad=True) for _ in range(5)],
            Tensor(wv.copy(), requires_grad=True))


def test_accumulate_without_copies_matches_copying_and_aliases_nothing(monkeypatch):
    def grads():
        """Every leaf grad, then every intermediate grad as its rule receives it."""
        xs, w = _mixed_leaves()
        received = []

        def keeping(rule):
            return lambda g: (received.append(g), rule(g))

        with Tape() as tape:
            loss = _mixed_loss(xs, w)
        tape._records = [(out, keeping(rule)) for out, rule in tape._records]
        tape.backward(loss)
        assert len(received) == len(tape)
        return [x.grad for x in xs + [w]] + received

    got = grads()
    monkeypatch.setattr(T, "_accumulate", _copying_accumulate)
    expect = grads()
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for i, a in enumerate(got):
        for b in got[i + 1:]:
            assert not np.shares_memory(a, b)


def test_backward_consumes_the_tape_and_keeps_leaf_grads():
    xs, w = _mixed_leaves()
    with Tape() as tape:
        loss = _mixed_loss(xs, w)
    intermediates = [out for out, _ in tape._records]
    n_ops = len(tape)
    assert n_ops == len(intermediates) > 0
    tape.backward(loss)
    assert tape._records == [] and len(tape) == n_ops
    assert all(out.grad is None for out in intermediates)
    with pytest.raises(TapeError):
        tape.backward(loss)

    ref_xs, ref_w = _mixed_leaves()
    with Tape() as ref:
        ref_loss = _mixed_loss(ref_xs, ref_w)
    _keeping_backward(ref, ref_loss)
    for got, expect in zip(xs + [w], ref_xs + [ref_w]):
        assert got.grad.tobytes() == expect.grad.tobytes()


def _eager_leaky_relu(a, slope=0.01):
    """`leaky_relu` as it was: the derivative mask built with the value."""
    out = Tensor(np.where(a.data > 0, a.data, slope * a.data))
    deriv = np.where(a.data > 0, 1.0, slope)
    return T._record(out, (a,), lambda g: T._accumulate(a, g * deriv, fresh=True))


def _eager_elu(a):
    """`elu` as it was: the derivative mask built with the value."""
    ex = np.exp(np.minimum(a.data, 0.0))
    out = Tensor(np.where(a.data > 0, a.data, ex - 1.0))
    deriv = np.where(a.data > 0, 1.0, ex)
    return T._record(out, (a,), lambda g: T._accumulate(a, g * deriv, fresh=True))


@pytest.mark.parametrize("lazy, eager", [
    (T.leaky_relu, _eager_leaky_relu),
    (lambda a: T.leaky_relu(a, slope=0.2), lambda a: _eager_leaky_relu(a, slope=0.2)),
    (T.elu, _eager_elu),
], ids=["leaky_relu", "leaky_relu-0.2", "elu"])
def test_masks_built_in_the_rule_match_eager_masks(lazy, eager):
    rng = np.random.default_rng(12)
    xv = np.concatenate([rng.normal(size=40), [0.0, -0.0, 5e-324, -5e-324,
                                               1e-300, -1e-300, 40.0, -40.0,
                                               np.inf, -np.inf, np.nan, -np.nan]])
    xv = rng.permutation(xv).reshape(4, 13)
    shift = rng.normal(size=(4, 13))

    def run(op):
        x = Tensor(xv.copy(), requires_grad=True)
        with Tape() as tape:
            y = op(x)
            tape.backward(T.sum_sq(T.add(y, Tensor(shift))))
        return y.data, x.grad

    (got_y, got_g), (ref_y, ref_g) = run(lazy), run(eager)
    assert got_y.tobytes() == ref_y.tobytes()
    assert got_g.tobytes() == ref_g.tobytes()


def test_concat_split_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.sum_sq(T.concat_cols([a, b])))
    assert np.allclose(a.grad, 2.0 * a.data)
    assert np.allclose(b.grad, 2.0 * b.data)


def test_ops_without_tape_do_not_track():
    x = Tensor([[1.0]], requires_grad=True)
    y = T.tanh(x)
    assert y.requires_grad is False and y.grad is None


def test_primitives_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 6))
    w = rng.normal(size=(6, 6))

    def run():
        out = T.row_softmax(T.matmul(T.elu(Tensor(x)), Tensor(w)))
        return out.data.tobytes()

    assert run() == run()


def test_mean_rows_value_and_grad():
    x = Tensor(np.array([[1.0, 3.0], [3.0, 5.0]]), requires_grad=True)
    with Tape() as tape:
        m = T.mean_rows(x)
        assert np.allclose(m.data, [[2.0, 4.0]])
        tape.backward(T.sum_sq(m))
    assert np.allclose(x.grad, [[2.0, 4.0], [2.0, 4.0]])


# ---- scatter kernels, bit for bit against np.add.at ----

ID_LAYOUTS = ("sorted", "unsorted", "repeated", "empty-segments", "zero-rows")


def scatter_case(layout: str, cols: int, seed: int = 0):
    """Segment ids over 10 segments and values from 1e-3 to 1e3, with -0.0."""
    rng = np.random.default_rng(seed)
    n, m = 10, 0 if layout == "zero-rows" else 60
    if layout == "repeated":
        ids = np.full(m, 4)
    elif layout == "empty-segments":
        ids = rng.choice([0, 3, 7], size=m)
    else:
        ids = rng.integers(0, n, size=m)
        if layout == "sorted":
            ids = np.sort(ids)
    x = rng.normal(size=(m, cols)) * 10.0 ** rng.uniform(-3, 3, size=(m, cols))
    if m and layout != "repeated":
        x[ids == ids[0]] = -0.0    # one segment of negative zeros only
    if m:
        x[rng.integers(0, m, size=5), 0] = -0.0
    return ids, x, n


def assert_same_bits(got, expect):
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def add_at(ids, values, n):
    acc = np.zeros((n,) + values.shape[1:])
    np.add.at(acc, ids, values)
    return acc


def upstream(out: Tensor, w: np.ndarray) -> Tensor:
    """A 1x1 loss whose gradient at `out` is exactly `w`."""
    rows, cols = out.shape
    weighted = T.hadamard(out, T.constant(w))
    return T.matmul(T.matmul(T.constant(np.ones((1, rows))), weighted),
                    T.constant(np.ones((cols, 1))))


@pytest.mark.parametrize("cols", [1, 16])
@pytest.mark.parametrize("layout", ID_LAYOUTS)
def test_segment_sum_and_mean_bit_identical_to_add_at(layout, cols):
    ids, x, n = scatter_case(layout, cols)
    acc = add_at(ids, x, n)
    safe = np.maximum(np.bincount(ids, minlength=n).astype(np.float64), 1.0)
    assert_same_bits(T.segment_sum(Tensor(x), ids, n).data, acc)
    assert_same_bits(T.segment_mean(Tensor(x), ids, n).data, acc / safe[:, None])


@pytest.mark.parametrize("cols", [1, 16])
@pytest.mark.parametrize("layout", ID_LAYOUTS)
def test_gather_rows_gradient_bit_identical_to_add_at(layout, cols):
    ids, w, n = scatter_case(layout, cols)
    a = Tensor(np.random.default_rng(1).normal(size=(n, cols)), requires_grad=True)
    with Tape() as tape:
        tape.backward(upstream(T.gather_rows(a, ids), w))
    assert_same_bits(a.grad, add_at(ids, w, n))


def gather_sum_case(layout: str, seed: int = 2):
    """Three tables of 10, 13 and 10 rows (with -0.0 entries) and an index each."""
    ids, w, n = scatter_case(layout, 16)
    rng = np.random.default_rng(seed)
    values = []
    for rows in (n, n + 3, n):
        v = rng.normal(size=(rows, 16)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 16))
        v[rng.integers(0, rows, size=4), rng.integers(0, 16, size=4)] = -0.0
        values.append(v)
    return values, [ids, rng.permutation(ids), ids[::-1].copy()], w


@pytest.mark.parametrize("layout", ID_LAYOUTS)
def test_gather_sum_bit_identical_to_gather_rows_and_add(layout):
    values, idx, w = gather_sum_case(layout)

    def chain(tables, indices):
        out = T.gather_rows(tables[0], indices[0])
        for t, i in zip(tables[1:], indices[1:]):
            out = T.add(out, T.gather_rows(t, i))
        return out

    def run(combine):
        tables = [Tensor(v.copy(), requires_grad=True) for v in values]
        with Tape() as tape:
            out = combine(tables, idx)
            tape.backward(upstream(out, w))
        return out.data, [t.grad for t in tables]

    (got, got_grads), (ref, ref_grads) = run(T.gather_sum), run(chain)
    assert_same_bits(got, ref)
    for g, r in zip(got_grads, ref_grads):
        assert_same_bits(g, r)


def attend_chain(messages, alpha, insts, segments, n):
    """`T.attend` as the ops it replaces: the pair messages, then per head a
    column of alpha, a product and a segment sum, the heads side by side."""
    heads = alpha.shape[1]
    m_pair = T.gather_rows(messages, insts)
    alpha_flat = T.reshape(alpha, alpha.shape[0] * heads, 1)
    return T.concat_cols([T.segment_sum(T.hadamard(m_pair, T.gather_rows(
        alpha_flat, np.arange(k, alpha_flat.shape[0], heads))), segments, n)
        for k in range(heads)])


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("layout", ID_LAYOUTS)
def test_attend_bit_identical_to_the_chain(layout, heads):
    ids, _, n = scatter_case(layout, 1, seed=3)
    rng = np.random.default_rng(4)
    messages = rng.normal(size=(7, 16)) * 10.0 ** rng.uniform(-3, 3, size=(7, 16))
    messages[rng.integers(0, 7, size=4), rng.integers(0, 16, size=4)] = -0.0
    alpha = rng.uniform(size=(ids.size, heads))
    alpha[: ids.size // 4, 0] = 0.0
    insts = rng.integers(0, 7, size=ids.size)
    w = rng.normal(size=(n, 16 * heads))
    w[rng.integers(0, n, size=6), rng.integers(0, 16 * heads, size=6)] = -0.0

    def run(op):
        m, a = Tensor(messages.copy(), requires_grad=True), Tensor(alpha.copy(), requires_grad=True)
        with Tape() as tape:
            out = op(m, a, insts, ids, n)
            tape.backward(upstream(out, w))
        return out.data, m.grad, a.grad

    for got, ref in zip(run(T.attend), run(attend_chain)):
        assert_same_bits(got, ref)


def test_attend_rejects_bad_pairs():
    m, a = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="attend: index out of range"):
        T.attend(m, a, [0, 3], [0, 1], 2)
    with pytest.raises(ShapeError, match="attend: segment id out of range"):
        T.attend(m, a, [0, 1], [0, 2], 2)
    with pytest.raises(ShapeError, match="attend: need one segment id per row"):
        T.attend(m, a, [0, 1], [0], 2)
    with pytest.raises(ShapeError, match="attend: 3 message rows for 2 pairs"):
        T.attend(m, a, [0, 1, 2], [0, 1], 2)


@pytest.mark.parametrize("indices", [
    [[0, 3], [0, 1]], [[0, -1], [0, 1]], [[0, 1], [0, 4]],
    [[0, 1], [0]], [[0, 1]], [[[0, 1]], [[0, 1]]],
], ids=["past-end", "negative", "past-end-second", "misaligned", "one-index",
        "two-dim"])
def test_gather_sum_rejects_bad_indices(indices):
    tables = [Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2)))]
    with pytest.raises(ShapeError, match="gather_sum"):
        T.gather_sum(tables, indices)


def test_gather_sum_rejects_mismatched_columns():
    with pytest.raises(ShapeError, match="gather_sum: col mismatch"):
        T.gather_sum([Tensor(np.ones((3, 2))), Tensor(np.ones((3, 4)))], [[0], [0]])


@pytest.mark.parametrize("layout", [lay for lay in ID_LAYOUTS if lay != "zero-rows"])
def test_segment_softmax_value_and_gradient_bit_identical_to_add_at(layout):
    ids, x, n = scatter_case(layout, 1)
    _, w, _ = scatter_case(layout, 1, seed=1)
    v = x[:, 0]
    seg_max = np.full(n, -np.inf)
    np.maximum.at(seg_max, ids, v)
    e = np.exp(v - seg_max[ids])
    y = e / add_at(ids, e, n)[ids]
    gy = w[:, 0] * y
    grad = gy - y * add_at(ids, gy, n)[ids]

    a = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.segment_softmax(a, ids, n)
        tape.backward(upstream(out, w))
    assert_same_bits(out.data, y[:, None])
    assert_same_bits(a.grad, grad[:, None])


@pytest.mark.parametrize("layout", [lay for lay in ID_LAYOUTS if lay != "zero-rows"])
def test_segment_softmax_columns_bit_identical_to_one_call_per_column(layout):
    ids, x, n = scatter_case(layout, 5)
    _, w, _ = scatter_case(layout, 5, seed=1)
    a = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.segment_softmax(a, ids, n)
        tape.backward(upstream(out, w))
    for c in range(x.shape[1]):
        col = Tensor(x[:, [c]], requires_grad=True)
        with Tape() as tape:
            one = T.segment_softmax(col, ids, n)
            tape.backward(upstream(one, w[:, [c]]))
        assert_same_bits(out.data[:, [c]], one.data)
        assert_same_bits(a.grad[:, [c]], col.grad)
    if layout == "empty-segments":
        assert set(ids.tolist()) == {0, 3, 7}  # seven segments receive no row


def test_reshape_value_grad_and_shape_error():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = np.arange(1.0, 7.0).reshape(3, 2)
    with Tape() as tape:
        out = T.reshape(x, 3, 2)
        assert np.array_equal(out.data, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        tape.backward(upstream(out, w))
    # row-major order both ways: the grad of x[i, j] is w's entry at 3 * i + j
    assert np.array_equal(x.grad, w.reshape(2, 3))
    assert T.reshape(x, 6, 1).shape == (6, 1)
    for rows, cols in ((4, 2), (1, 5), (-2, -3), (0, 6)):
        with pytest.raises(ShapeError, match="reshape: .*2, 3"):
            T.reshape(x, rows, cols)
