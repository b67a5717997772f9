"""The message passing as it ran before the node-table attention: the oracle
that `model.instance_attention` and `T.attend_nodes` are checked against.

Each instance's message is built as an instances x F array from per-node
tables (`instance_messages`), and `attend` weighs and sums the messages of
every delivery pair, pairs x F per head.
"""

import numpy as np

import hcmgnn.tensor as T
from hcmgnn.tensor import ShapeError, Tensor


def attend(messages: Tensor, alpha: Tensor, insts, segments, num_segments: int) -> Tensor:
    """Every head's alpha-weighted sum of messages per segment, heads side by side.

    Pair i carries message row insts[i] into segment segments[i], weighted
    by alpha[i, k] in head k; column block k of the num_segments x (H * F)
    output is head k's sums.  Bit for bit as a `gather_rows` of the
    messages and, per head, a `hadamard` with alpha's column, a
    `segment_sum` and at the end `concat_cols`, in grads too: the backward
    visits the heads last to first, as that chain's does, and sums them
    into one buffer.
    """
    insts = T._row_index(insts, messages.shape[0], "attend")
    seg = np.asarray(segments, dtype=np.int64)
    T._check_segments(seg, alpha.shape[0], num_segments, "attend")
    if insts.size != seg.size:
        raise ShapeError(f"attend: {insts.size} message rows for {seg.size} pairs")
    f, heads = messages.shape[1], alpha.shape[1]
    m_pair = messages.data[insts]
    out = np.empty((num_segments, heads * f))
    for k in range(heads):
        out[:, k * f:(k + 1) * f] = T._scatter_add(seg, m_pair * alpha.data[:, k:k + 1],
                                                   num_segments)

    def rule(g):
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
        T._accumulate(alpha, g_alpha, fresh=True)
        T._accumulate(messages, T._scatter_add(insts, g_pair, messages.shape[0]), fresh=True)

    return T._record(Tensor(out), (messages, alpha), rule)


def instance_paths(cache) -> np.ndarray:
    """Each stacked instance's path: every instance delivers at least one pair."""
    paths = np.empty(cache.instances.shape[0], dtype=np.int64)
    paths[cache.pair_insts] = cache.pair_paths
    return paths


def instance_messages(cache, params, h_all: Tensor) -> Tensor:
    """One message per stacked instance; woMP-i passes the tail embedding.

    Position j's row is scaled by the product of the relations after it:
    each position gets a (P * V) x F table whose row p * V + v is h_all[v]
    times path p's factor, and the messages are one gather of L rows per
    instance, then 1/L.
    """
    if cache.variant == "woMP-i":
        return T.gather_rows(h_all, cache.instances[:, -1])
    (n_paths, steps), v = cache.path_relations.shape, cache.total_nodes
    message_rows = instance_paths(cache) * v + cache.instances.T
    h_tiled = T.gather_rows(h_all, np.tile(np.arange(v), n_paths))
    path_of_row = np.repeat(np.arange(n_paths), v)
    rel = params.tensors["rel"]
    tables, factor = [h_tiled], None
    for ids in cache.path_relations.T[::-1]:   # the relations from the last one back
        r = T.gather_rows(rel, ids)
        factor = r if factor is None else T.hadamard(r, factor)
        tables.insert(0, T.hadamard(h_tiled, T.gather_rows(factor, path_of_row)))
    return T.smul(T.gather_sum(tables, message_rows), 1.0 / (steps + 1))


def message_attention(h_nodes: Tensor, messages: Tensor, attn: Tensor, pairs, n_paths: int,
                      slope: float = 0.01):
    """Every path's and head's attention over the messages each node receives.

    `pairs` holds the (nodes, insts, paths) delivery pairs; the logit
    a . [h || m] splits as a1 . h + a2 . m.  Returns the ELU'd
    (P * V) x (H * F) views and the (pairs x H) attention weights.
    """
    nodes, insts, paths = pairs
    f, heads = h_nodes.shape[1], attn.shape[1] // n_paths
    segments, num_segments = paths * h_nodes.shape[0] + nodes, n_paths * h_nodes.shape[0]

    def half_logits(x, half, rows):  # x @ a_half, read at each pair's (row, path)
        prod = T.reshape(T.matmul(x, T.gather_rows(attn, half)), x.shape[0] * n_paths, heads)
        return T.gather_rows(prod, rows * n_paths + paths)

    logits = T.add(half_logits(h_nodes, np.arange(f), nodes),
                   half_logits(messages, np.arange(f, 2 * f), insts))
    alpha = T.segment_softmax(T.leaky_relu(logits, slope), segments, num_segments)
    return T.elu(attend(messages, alpha, insts, segments, num_segments)), alpha


def reference_attention(cache, params, h_all: Tensor):
    """`instance_attention`'s (views, alpha) for `forward`'s h_all, by the oracle."""
    return message_attention(h_all, instance_messages(cache, params, h_all),
                             params.tensors["attn"],
                             (cache.pair_nodes, cache.pair_insts, cache.pair_paths),
                             len(cache.metapaths), slope=params.config.leaky_slope)
