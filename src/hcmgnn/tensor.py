"""Dense 2-D float64 tensors with a reverse-mode gradient tape.

Every differentiable quantity in the model is a `Tensor`: a row-major
float64 matrix, optionally tracked on the active `Tape`.  The tape is
define-by-run: ops executed while a tape is active append their backward
rules, and `Tape.backward(loss)` replays them in reverse.  The sweep
consumes the tape: each record, with the arrays its rule saved and the
grad of its output, is freed as the sweep passes it, so only leaf grads
remain afterwards.  Without an active tape ops just compute values
(inference mode).

Tapes are thread-local, so concurrent evaluations must each open their
own `Tape`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "TapeError",
    "tensor", "constant", "zeros", "ones",
    "matmul", "transpose", "reshape", "add", "hadamard", "smul",
    "concat_cols", "concat_rows", "gather_rows", "gather_sum", "attend",
    "segment_sum", "segment_mean", "mean_rows",
    "row_softmax", "segment_softmax",
    "leaky_relu", "elu", "tanh", "sigmoid", "sum_sq",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to the primitive's rule."""


class TapeError(RuntimeError):
    """Tape misuse: non-scalar loss, double backward, etc."""


class Tensor:
    """A rows x cols float64 matrix, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_LOCAL = threading.local()


def _tape_stack() -> list:
    if not hasattr(_LOCAL, "stack"):
        _LOCAL.stack = []
    return _LOCAL.stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations for one reverse-mode sweep.

    `backward` consumes the records as it runs them; `len` still counts
    every op recorded.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, "callable"]] = []
        self._n_recorded = 0
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape stack corrupted: exiting a non-active tape")
        stack.pop()
        return False

    def __len__(self):
        return self._n_recorded

    def backward(self, loss: Tensor):
        """Populate grads of every requires_grad leaf ancestor of `loss`.

        Each record is popped as its rule runs, and its output's grad is
        handed to the rule and reset to None, so every intermediate grad
        and saved array is freed once the sweep has passed it.
        """
        if loss.shape != (1, 1):
            raise TapeError(f"loss must be 1x1, got {loss.shape}")
        if self._consumed:
            raise TapeError("backward already ran on this tape; build a new tape")
        self._consumed = True
        loss.grad = np.ones((1, 1))
        records = self._records
        while records:
            out, rule = records.pop()
            g, out.grad = out.grad, None
            if g is not None and out.requires_grad:
                rule(g)


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False):
    """Add `g` into `t.grad`.

    A rule sets `fresh` only for an array it has just allocated and hands
    over whole, which `t` may then own and add into in place.  Any other
    `g` (the output's own grad, a slice or a transpose of it) is shared
    with another tensor, so its first store is a copy.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if fresh else g.copy()
    else:
        t.grad += g


def _record(out: Tensor, inputs: tuple[Tensor, ...], rule) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._records.append((out, rule))
        tape._n_recorded += 1
    return out


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def zeros(rows: int, cols: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros((rows, cols)), requires_grad=requires_grad)


def ones(rows: int, cols: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones((rows, cols)), requires_grad=requires_grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def rule(g):
        _accumulate(a, g @ b.data.T, fresh=True)
        _accumulate(b, a.data.T @ g, fresh=True)

    return _record(out, (a, b), rule)


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy())

    def rule(g):
        _accumulate(a, g.T)

    return _record(out, (a,), rule)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    """The same entries, row-major, as a rows x cols matrix."""
    if rows < 0 or cols < 0 or rows * cols != a.data.size:
        raise ShapeError(f"reshape: {a.shape} to ({rows}, {cols})")
    out = Tensor(a.data.reshape(rows, cols))

    def rule(g):
        _accumulate(a, g.reshape(a.shape))

    return _record(out, (a,), rule)


def _broadcast_kind(a: Tensor, b: Tensor, opname: str) -> str:
    if a.shape == b.shape:
        return "same"
    if b.shape == (1, a.shape[1]):
        return "row"
    if b.shape == (a.shape[0], 1):
        return "col"
    raise ShapeError(f"{opname}: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; b may be a 1 x cols row or rows x 1 column."""
    kind = _broadcast_kind(a, b, "add")
    out = Tensor(a.data + b.data)

    def rule(g):
        _accumulate(a, g)
        if kind == "same":
            _accumulate(b, g)
        elif kind == "row":
            _accumulate(b, g.sum(axis=0, keepdims=True), fresh=True)
        else:
            _accumulate(b, g.sum(axis=1, keepdims=True), fresh=True)

    return _record(out, (a, b), rule)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b; b may be a 1 x cols row or rows x 1 column."""
    kind = _broadcast_kind(a, b, "hadamard")
    out = Tensor(a.data * b.data)

    def rule(g):
        _accumulate(a, g * b.data, fresh=True)
        gb = g * a.data
        if kind == "row":
            gb = gb.sum(axis=0, keepdims=True)
        elif kind == "col":
            gb = gb.sum(axis=1, keepdims=True)
        _accumulate(b, gb, fresh=True)

    return _record(out, (a, b), rule)


def smul(a: Tensor, c: float) -> Tensor:
    """Scale by a python float."""
    c = float(c)
    out = Tensor(a.data * c)

    def rule(g):
        _accumulate(a, g * c, fresh=True)

    return _record(out, (a,), rule)


def _concat(parts: list[Tensor], axis: int, opname: str) -> Tensor:
    """Join `parts` along `axis`; every other extent must agree."""
    if not parts:
        raise ShapeError(f"{opname}: empty input list")
    other = 1 - axis
    for p in parts:
        if p.shape[other] != parts[0].shape[other]:
            raise ShapeError(f"{opname}: {'row' if other == 0 else 'col'} mismatch "
                             f"{p.shape} vs {parts[0].shape}")
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts])
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

    def rule(g):
        for p, lo, hi in zip(parts, bounds, bounds[1:]):
            _accumulate(p, g[:, lo:hi] if axis == 1 else g[lo:hi, :])

    return _record(out, tuple(parts), rule)


def concat_cols(parts: list[Tensor]) -> Tensor:
    return _concat(parts, 1, "concat_cols")


def concat_rows(parts: list[Tensor]) -> Tensor:
    return _concat(parts, 0, "concat_rows")


def _row_index(idx, rows: int, opname: str) -> np.ndarray:
    """`idx` as a 1-D int64 array of rows in [0, rows)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"{opname}: index must be 1-D, got ndim={idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"{opname}: index out of range for {rows} rows")
    return idx


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows a[idx]; repeated indices accumulate gradient."""
    idx = _row_index(idx, a.shape[0], "gather_rows")
    out = Tensor(a.data[idx])

    def rule(g):
        _accumulate(a, _scatter_add(idx, g, a.shape[0]), fresh=True)

    return _record(out, (a,), rule)


def gather_sum(tables: list[Tensor], indices) -> Tensor:
    """Row i is tables[0][indices[0][i]] + tables[1][indices[1][i]] + ...

    The gathered rows are summed left to right, bit for bit as a chain of
    `gather_rows` and `add`; each table's grad is one scatter of the
    output's grad.
    """
    if not tables or len(indices) != len(tables):
        raise ShapeError(f"gather_sum: {len(tables)} tables but {len(indices)} index arrays")
    idxs = [_row_index(idx, t.shape[0], "gather_sum") for t, idx in zip(tables, indices)]
    if any(i.size != idxs[0].size for i in idxs):
        raise ShapeError(f"gather_sum: index lengths {[i.size for i in idxs]} differ")
    if any(t.shape[1] != tables[0].shape[1] for t in tables):
        raise ShapeError(f"gather_sum: col mismatch {[t.shape for t in tables]}")
    out = tables[0].data[idxs[0]]
    for t, idx in zip(tables[1:], idxs[1:]):
        out += t.data[idx]

    def rule(g):
        for t, idx in zip(tables, idxs):
            _accumulate(t, _scatter_add(idx, g, t.shape[0]), fresh=True)

    return _record(Tensor(out), tuple(tables), rule)


def attend(messages: Tensor, alpha: Tensor, insts, segments, num_segments: int) -> Tensor:
    """Every head's alpha-weighted sum of messages per segment, heads side by side.

    Pair i carries message row insts[i] into segment segments[i], weighted
    by alpha[i, k] in head k; column block k of the num_segments x (H * F)
    output is head k's sums.  Bit for bit as a `gather_rows` of the
    messages and, per head, a `hadamard` with alpha's column, a
    `segment_sum` and at the end `concat_cols`, in grads too: the backward
    visits the heads last to first, as that chain's does, and sums them
    into one buffer.  No pairs x F array is kept between the two passes.
    """
    insts = _row_index(insts, messages.shape[0], "attend")
    seg = np.asarray(segments, dtype=np.int64)
    _check_segments(seg, alpha.shape[0], num_segments, "attend")
    if insts.size != seg.size:
        raise ShapeError(f"attend: {insts.size} message rows for {seg.size} pairs")
    f, heads = messages.shape[1], alpha.shape[1]
    m_pair = messages.data[insts]
    out = np.empty((num_segments, heads * f))
    for k in range(heads):
        out[:, k * f:(k + 1) * f] = _scatter_add(seg, m_pair * alpha.data[:, k:k + 1],
                                                 num_segments)

    def rule(g):
        m_pair = messages.data[insts]
        g_alpha = np.empty(alpha.shape)
        g_pair = None
        for k in reversed(range(heads)):
            gk = g[seg, k * f:(k + 1) * f]
            g_alpha[:, k] = (gk * m_pair).sum(axis=1)
            gk *= alpha.data[:, k:k + 1]
            if g_pair is None:
                g_pair = gk
            else:
                g_pair += gk
        del m_pair   # before the scatter's flat index is built
        _accumulate(alpha, g_alpha, fresh=True)
        _accumulate(messages, _scatter_add(insts, g_pair, messages.shape[0]), fresh=True)

    return _record(Tensor(out), (messages, alpha), rule)


def _scatter_add(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[j] = sum of values[i] with idx[i] == j, over n output rows.

    `np.bincount` adds its weights in input order, so each output sums its
    rows in row order, bit for bit as an unbuffered `ufunc.at` addition
    into zeros does; `np.add.reduceat` does not keep that order.  The
    rows x cols `values` go through the flat index idx * cols + column.
    """
    cols = values.shape[1]
    flat = (idx[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=n * cols).reshape(n, cols)


def _check_segments(seg: np.ndarray, nrows: int, num_segments: int, opname: str):
    if seg.ndim != 1 or seg.size != nrows:
        raise ShapeError(f"{opname}: need one segment id per row ({nrows}), got {seg.shape}")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError(f"{opname}: segment id out of range [0, {num_segments})")


def segment_sum(a: Tensor, segments, num_segments: int) -> Tensor:
    """out[j] = sum of rows i with segments[i] == j; empty segments give 0."""
    seg = np.asarray(segments, dtype=np.int64)
    _check_segments(seg, a.shape[0], num_segments, "segment_sum")
    out = Tensor(_scatter_add(seg, a.data, num_segments))

    def rule(g):
        _accumulate(a, g[seg], fresh=True)

    return _record(out, (a,), rule)


def segment_mean(a: Tensor, segments, num_segments: int) -> Tensor:
    """out[j] = mean of rows i with segments[i] == j; empty segments give 0."""
    seg = np.asarray(segments, dtype=np.int64)
    _check_segments(seg, a.shape[0], num_segments, "segment_mean")
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    out = Tensor(_scatter_add(seg, a.data, num_segments) / safe[:, None])

    def rule(g):
        _accumulate(a, g[seg] / safe[seg][:, None], fresh=True)

    return _record(out, (a,), rule)


def mean_rows(a: Tensor) -> Tensor:
    """Column means as a 1 x cols row."""
    if a.shape[0] == 0:
        raise ShapeError("mean_rows: empty tensor")
    n = a.shape[0]
    out = Tensor(a.data.mean(axis=0, keepdims=True))

    def rule(g):
        _accumulate(a, np.repeat(g, n, axis=0) / n, fresh=True)

    return _record(out, (a,), rule)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along each row; rows sum to 1."""
    if a.data.size == 0:
        raise ShapeError("row_softmax: softmax over an empty set")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def rule(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accumulate(a, y * (g - dot), fresh=True)

    return _record(out, (a,), rule)


def segment_softmax(a: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax of each column normalized within each segment of rows.

    Segment sizes may vary; every segment with at least one row sums to 1
    in every column, which comes out bit for bit as it would on its own.
    An input with no rows is rejected.
    """
    if a.shape[0] == 0:
        raise ShapeError("segment_softmax: softmax over an empty set")
    seg = np.asarray(segments, dtype=np.int64)
    _check_segments(seg, a.shape[0], num_segments, "segment_softmax")

    x = a.data
    seg_max = np.full((num_segments, x.shape[1]), -np.inf)
    for col in range(x.shape[1]):  # 6x faster than one 2-D np.maximum.at
        np.maximum.at(seg_max[:, col], seg, x[:, col])
    e = np.exp(x - seg_max[seg])
    y = e / _scatter_add(seg, e, num_segments)[seg]
    out = Tensor(y)

    def rule(g):
        gy = g * y
        dot = _scatter_add(seg, gy, num_segments)
        _accumulate(a, gy - y * dot[seg], fresh=True)

    return _record(out, (a,), rule)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    out = Tensor(np.where(a.data > 0, a.data, slope * a.data))

    def rule(g):  # the mask is built only when a backward runs
        _accumulate(a, g * np.where(a.data > 0, 1.0, slope), fresh=True)

    return _record(out, (a,), rule)


def elu(a: Tensor) -> Tensor:
    # branch-free: ex is exactly 1.0 wherever x > 0, so there (ex - 1) + x is
    # x and the derivative is ex; the sum must stay in this order to keep bits
    ex = np.minimum(a.data, 0.0)
    np.exp(ex, out=ex)
    y = ex - 1.0
    y += np.maximum(a.data, 0.0)
    out = Tensor(y)

    def rule(g):
        _accumulate(a, g * ex, fresh=True)

    return _record(out, (a,), rule)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def rule(g):
        _accumulate(a, g * (1.0 - y * y), fresh=True)

    return _record(out, (a,), rule)


def sigmoid(a: Tensor) -> Tensor:
    # stable in both tails
    y = np.where(a.data >= 0,
                 1.0 / (1.0 + np.exp(-np.maximum(a.data, 0))),
                 np.exp(np.minimum(a.data, 0)) / (1.0 + np.exp(np.minimum(a.data, 0))))
    out = Tensor(y)

    def rule(g):
        _accumulate(a, g * y * (1.0 - y), fresh=True)

    return _record(out, (a,), rule)


def sum_sq(a: Tensor) -> Tensor:
    """Squared L2 norm of all entries, as a 1x1 tensor."""
    out = Tensor(np.array([[float((a.data * a.data).sum())]]))

    def rule(g):
        _accumulate(a, 2.0 * a.data * g[0, 0], fresh=True)

    return _record(out, (a,), rule)
