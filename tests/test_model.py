import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hcmgnn.tensor as T
from hcmgnn import model
from conftest import (edge_set, forward_scores, forward_views, index_of, random_graph,
                      toy_graph)
from attention_oracle import instance_messages, instance_paths, reference_attention
from gradcheck import grad_check
from hcmgnn.graph import (DISEASE, GENE, MICROBE, RELATIONS, EntityType, HetGraph,
                          derive_positive_triplets)
from hcmgnn.metapath import enumerate_instance_rows
from hcmgnn.model import (VARIANTS, ModelCache, ModelConfig, ModelParams, delivery_positions,
                          encode_instance, encode_walk, feature_transform, forward,
                          fuse_subgraphs, init_params, instance_attention,
                          message_positions, multi_head_aggregate, pair_layout, param_specs,
                          predict, score_triplets)
from hcmgnn.tensor import ShapeError, Tensor
from hcmgnn.cli import main
from hcmgnn.synthetic import SyntheticConfig, generate_synthetic
from hcmgnn.training import loss_fn
from test_cli import write_config

SMALL = dict(proj_dim=4, heads=2, fusion_dim=5, mlp_hidden=6)


def small_config(variant="full"):
    return ModelConfig(variant=variant, **SMALL)


def some_samples(g):
    return index_of([(0, 0, 0), (1, 1, 0)])


# ---- feature transform ----

def test_feature_transform_identity():
    x = np.random.default_rng(0).normal(size=(4, 3))
    out = feature_transform(T.constant(x), T.constant(np.eye(3)))
    assert np.allclose(out.data, x)


def test_feature_transform_zero_input():
    w = T.constant(np.random.default_rng(1).normal(size=(5, 3)))
    out = feature_transform(T.constant(np.zeros((2, 3))), w)
    assert np.array_equal(out.data, np.zeros((2, 5)))


def test_feature_transform_worked_example():
    w = T.constant(np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]))
    out = feature_transform(T.constant(np.array([[1.0, 2.0, 3.0]])), w)
    assert np.allclose(out.data, [[4.0, 4.0]])


def test_feature_transform_rejects_mismatch():
    with pytest.raises(ShapeError):
        feature_transform(T.constant(np.zeros((2, 3))), T.constant(np.zeros((5, 4))))


# ---- instance encoder ----

def test_encoder_with_unit_relations_is_mean():
    rng = np.random.default_rng(2)
    h, e, t = (T.constant(rng.normal(size=(3, 4))) for _ in range(3))
    ones = T.constant(np.ones((1, 4)))
    out = encode_instance(h, e, t, ones, ones)
    assert np.allclose(out.data, (h.data + e.data + t.data) / 3)


def test_encoder_worked_example():
    out = encode_instance(T.constant([[1.0, 0.0]]), T.constant([[0.0, 1.0]]),
                          T.constant([[1.0, 1.0]]),
                          T.constant([[2.0, 2.0]]), T.constant([[1.0, 3.0]]))
    assert np.allclose(out.data, [[1.0, 4.0 / 3.0]])


def test_encoder_zero_inputs():
    z = T.constant(np.zeros((2, 3)))
    out = encode_instance(z, z, z, T.constant(np.zeros((1, 3))),
                          T.constant(np.zeros((1, 3))))
    assert np.array_equal(out.data, np.zeros((2, 3)))


def test_encoder_is_direction_sensitive():
    rng = np.random.default_rng(3)
    h, e, t = (rng.normal(size=(1, 4)) for _ in range(3))
    r1, r2 = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    fwd = encode_instance(T.constant(h), T.constant(e), T.constant(t),
                          T.constant(r1), T.constant(r2))
    rev = encode_instance(T.constant(t), T.constant(e), T.constant(h),
                          T.constant(r2), T.constant(r1))
    assert not np.allclose(fwd.data, rev.data)


# ---- attention ----

def hand_built(h_rows, messages, attn, pairs):
    """instance_attention's inputs for hand-built messages.

    The node table is h_rows and then the messages, and instance s's message
    is one position, at scale 1, that reads node len(h_rows) + s.  `pairs`
    holds the delivery pairs' (nodes, insts, paths), path-major.
    """
    nodes, insts, paths = map(np.asarray, pairs)
    h = np.vstack([h_rows, messages])
    n_paths = int(paths.max()) + 1
    reads = len(h_rows) + np.arange(len(messages))[None]
    layout = pair_layout(nodes, insts, paths, reads, np.zeros((n_paths, 1), dtype=np.int64),
                         len(h), len(h))
    return (T.constant(h), T.constant(np.ones((n_paths, h.shape[1]))), T.constant(attn),
            layout)


def one_path(nodes, insts):
    """Delivery pairs of a single path."""
    return np.array(nodes), np.array(insts), np.zeros(len(nodes), dtype=np.int64)


def test_attention_singleton_is_activated_message():
    f = 3
    m = np.array([[0.5, -2.0, 1.0]])
    out, alpha = instance_attention(*hand_built(np.zeros((1, f)), m, np.zeros((2 * f, 1)),
                                                one_path([0], [0])))
    assert np.allclose(alpha.data, [[1.0]])
    expect = np.where(m > 0, m, np.exp(m) - 1)
    assert np.allclose(out.data, np.vstack([expect, np.zeros((1, f))]))  # node, message node


def test_attention_identical_messages_split_evenly():
    f = 2
    m = np.array([[1.0, 2.0], [1.0, 2.0]])
    a = np.random.default_rng(0).normal(size=(2 * f, 1))
    _, alpha = instance_attention(*hand_built(np.zeros((1, f)), m, a, one_path([0, 0], [0, 1])))
    assert np.allclose(alpha.data[:, 0], [0.5, 0.5])


def test_attention_closed_form_logits():
    f = 2
    messages = np.array([[0.0, 0.0], [np.log(3.0), 0.0]])
    a = np.zeros((2 * f, 1))
    a[f, 0] = 1.0  # reads the first message coordinate
    out, alpha = instance_attention(*hand_built(np.zeros((1, f)), messages, a,
                                                one_path([0, 0], [0, 1])))
    assert np.allclose(alpha.data[:, 0], [0.25, 0.75])
    assert np.allclose(out.data[0], [0.75 * np.log(3.0), 0.0])


def test_attention_keeps_paths_and_heads_apart():
    # two paths deliver to node 1, two heads per path; each (path, head)
    # column is its own softmax and lands in its own block of the views
    rng = np.random.default_rng(5)
    f, heads = 2, 2
    h = rng.normal(size=(3, f))
    m = rng.normal(size=(4, f))
    a = rng.normal(size=(2 * f, 2 * heads))
    pairs = (np.array([1, 1, 1, 2]), np.array([0, 1, 2, 3]), np.array([0, 0, 1, 1]))
    views, alpha = instance_attention(*hand_built(h, m, a, pairs))
    v = 3 + 4   # the nodes, then the message nodes, which receive nothing
    assert views.shape == (2 * v, heads * f)
    for p, rows in ((0, [0, 1]), (1, [2])):
        for k in range(heads):
            col = a[:, p * heads + k]
            logits = h[1] @ col[:f] + m[rows] @ col[f:]
            logits = np.where(logits > 0, logits, 0.01 * logits)
            expect = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
            assert np.allclose(alpha.data[rows, k], expect)
            assert np.allclose(views.data[p * v + 1, k * f:(k + 1) * f],
                               elu_np(expect @ m[rows]))
    received = [1, v + 1, v + 2]
    assert np.array_equal(np.delete(views.data, received, axis=0),
                          np.zeros((2 * v - 3, heads * f)))


# ---- multi-head ----

def test_multi_head_identity_and_repeat():
    x = T.constant(np.random.default_rng(1).normal(size=(3, 4)))
    assert np.array_equal(multi_head_aggregate([x]).data, x.data)
    two = multi_head_aggregate([x, x])
    assert np.array_equal(two.data, np.concatenate([x.data, x.data], axis=1))


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_multi_head_shape_law(k):
    rng = np.random.default_rng(k)
    heads = [T.constant(rng.normal(size=(3, 4))) for _ in range(k)]
    assert multi_head_aggregate(heads).shape == (3, 4 * k)


# ---- fusion ----

def test_fusion_equal_views_give_uniform_beta():
    view = T.constant(np.random.default_rng(2).normal(size=(4, 3)))
    views = T.constant(np.concatenate([view.data] * 6))
    rng = np.random.default_rng(3)
    z, beta = fuse_subgraphs(views, 6, T.constant(rng.normal(size=(5, 1))),
                             T.constant(rng.normal(size=(5, 3))),
                             T.constant(rng.normal(size=(1, 5))))
    assert np.allclose(beta.data, np.full((1, 6), 1 / 6))
    assert np.allclose(z.data, view.data)


def test_fusion_closed_form_two_views():
    v1 = T.constant(np.zeros((2, 1)))
    v2 = T.constant(np.full((2, 1), np.arctanh(np.log(3.0) / 2.0)))
    z, beta = fuse_subgraphs(T.concat_rows([v1, v2]), 2, T.constant([[2.0]]),
                             T.constant([[1.0]]), T.constant([[0.0]]))
    assert np.allclose(beta.data, [[0.25, 0.75]])
    assert np.allclose(z.data, 0.25 * v1.data + 0.75 * v2.data)


# ---- prediction head ----

def test_predict_zero_weights_give_half():
    rng = np.random.default_rng(4)
    tables = [T.constant(rng.normal(size=(5, 4))) for _ in range(3)]
    index = tuple(rng.integers(0, 5, size=7) for _ in range(3))
    out = predict(tables, index, T.constant(np.zeros((6, 12))), T.constant(np.zeros((1, 6))),
                  T.constant(np.zeros((1, 6))), T.constant(np.zeros((1, 1))))
    assert out.shape == (7, 1)
    assert np.allclose(out.data, 0.5)


def test_predict_saturates_toward_one():
    tables = [T.constant(np.ones((1, 2))) for _ in range(3)]
    w1 = T.constant(np.ones((2, 6)))
    out = predict(tables, ([0], [0], [0]), w1, T.constant(np.zeros((1, 2))),
                  T.constant(np.full((1, 2), 50.0)), T.constant([[0.0]]))
    assert out.data[0, 0] > 1 - 1e-12
    assert out.data[0, 0] < 1.0 or out.data[0, 0] == pytest.approx(1.0)


def test_predict_rejects_tables_that_do_not_fit_the_first_layer():
    tables = [T.constant(np.ones((2, 4))) for _ in range(3)]
    with pytest.raises(ShapeError, match="predict"):
        predict(tables, ([0], [1], [0]), T.constant(np.ones((6, 11))),
                T.constant(np.zeros((1, 6))), T.constant(np.zeros((1, 6))),
                T.constant([[0.0]]))


def concat_predict(tables, index, w1, b1, w2, b2):
    """The head as it ran before the per-node first layer: each triplet's
    z_g || z_m || z_d gathered and concatenated, then W1 applied per triplet."""
    x = T.concat_cols([T.gather_rows(t, idx) for t, idx in zip(tables, index)])
    hidden = T.elu(T.add(T.matmul(x, T.transpose(w1)), b1))
    return T.sigmoid(T.add(T.matmul(hidden, T.transpose(w2)), b2))


@pytest.mark.parametrize("variant", VARIANTS)
def test_per_node_head_matches_the_concat_head(variant):
    rng = np.random.default_rng(23)
    g = random_graph(rng, 6, 5, 5, p=0.45)
    # repeated nodes and repeated triplets, so the scatters sum several rows
    pos = derive_positive_triplets(g)
    neg = np.stack([rng.integers(0, 6, 30), rng.integers(0, 5, 30), rng.integers(0, 5, 30)],
                   axis=1)
    labels = np.repeat([1.0, 0.0], [len(pos), len(neg)])
    index = index_of(np.concatenate([pos, neg]))
    cfg = ModelConfig(proj_dim=3, heads=2, fusion_dim=4, mlp_hidden=7, variant=variant)
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 13)
    mlp = [params.tensors[f"mlp_{k}"] for k in ("W1", "b1", "W2", "b2")]

    def head(fn):
        def run():
            emb = forward(cache, params).embeddings
            return (fn([emb[t] for t in (GENE, MICROBE, DISEASE)], index, *mlp),)
        return taped_grads(run, params, labels)

    ((scores,), grads), ((ref,), ref_grads) = head(predict), head(concat_predict)
    assert_close(scores.data, ref.data, "scores", rtol=1e-12)
    assert set(grads) == set(ref_grads)
    for name in grads:
        assert_close(grads[name], ref_grads[name], f"grad {name}", rtol=1e-12)
    assert np.abs(grads["mlp_W1"]).max() > 0


# ---- forward pass ----

def test_forward_scores_in_unit_interval_and_beta_normalized(tiny_graph):
    cfg = small_config()
    cache = ModelCache(tiny_graph, cfg)
    params = init_params(cache, cfg, 0)
    out, scores = forward_scores(cache, params, some_samples(tiny_graph))
    assert ((scores.data > 0) & (scores.data < 1)).all()
    for t, beta in out.fusion_weights.items():
        assert beta.shape == (6,)
        assert beta.sum() == pytest.approx(1.0, abs=1e-9)
        assert (beta >= 0).all()


def attention_sums(cache, alpha):
    """Per-segment sums of each head's column of the stacked attention."""
    seg = cache.pair_paths * cache.total_nodes + cache.pair_nodes
    sums = np.zeros((len(cache.metapaths) * cache.total_nodes, alpha.shape[1]))
    np.add.at(sums, seg, alpha)
    return sums[np.unique(seg)]


def test_forward_attention_rows_normalized_over_seeds(tiny_graph):
    cfg = small_config()
    cache = ModelCache(tiny_graph, cfg)
    for seed in range(10):
        params = init_params(cache, cfg, seed)
        out = forward(cache, params)
        assert out.attention.shape == (cache.pair_nodes.size, cfg.heads)
        assert np.allclose(attention_sums(cache, out.attention), 1.0, atol=1e-9)


def test_empty_instance_set_yields_zero_view():
    g = HetGraph({GENE: ["g0", "g_lonely"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0), (1, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {GENE: np.eye(2), MICROBE: np.eye(1), DISEASE: np.eye(1)})
    cfg = small_config()
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 1)
    # g_lonely has no G-M edge, so no instance of G-M-D involves it
    h = forward_views(cache, params)[1]["G-M-D"]
    assert np.array_equal(h[1], np.zeros(cfg.embed_dim))
    assert not np.array_equal(h[0], np.zeros(cfg.embed_dim))


def test_full_equals_woaf_when_all_views_equal():
    # with no edges every view is the zero matrix, so mean == weighted sum
    g = HetGraph({GENE: ["g0"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [], (GENE, DISEASE): [], (MICROBE, DISEASE): []},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    outs = {}
    for variant in ("full", "woAF"):
        cfg = small_config(variant)
        cache = ModelCache(g, cfg)
        params = init_params(cache, cfg, 7)
        outs[variant] = forward(cache, params)
    for t in (GENE, MICROBE, DISEASE):
        assert np.allclose(outs["full"].embeddings[t].data,
                           outs["woAF"].embeddings[t].data)
    assert np.allclose(outs["woAF"].fusion_weights[GENE], 1 / 6)


def test_womp2_matches_full_on_head_and_tail_with_single_instance():
    g = HetGraph({GENE: ["g0"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    cfg_full = ModelConfig(proj_dim=4, heads=1, fusion_dim=5, mlp_hidden=6)
    cfg_ii = ModelConfig(proj_dim=4, heads=1, fusion_dim=5, mlp_hidden=6,
                         variant="woMP-ii")
    _, views_full = forward_views(ModelCache(g, cfg_full),
                                  init_params(ModelCache(g, cfg_full), cfg_full, 3))
    _, views_ii = forward_views(ModelCache(g, cfg_ii),
                                init_params(ModelCache(g, cfg_ii), cfg_ii, 3))
    # head is row 0 (gene), tail is row 2 (disease) for G-M-D
    h_full = views_full["G-M-D"]
    h_ii = views_ii["G-M-D"]
    assert np.allclose(h_full[0], h_ii[0], atol=1e-12)
    assert np.allclose(h_full[2], h_ii[2], atol=1e-12)
    assert not np.allclose(h_full[1], h_ii[1])  # intermediate differs


def test_mirror_metapaths_differ_for_some_node(tiny_graph):
    cfg = small_config()
    cache = ModelCache(tiny_graph, cfg)
    params = init_params(cache, cfg, 5)
    _, views = forward_views(cache, params)
    fwd = views["G-M-D"]
    rev = views["D-M-G"]
    assert not np.allclose(fwd, rev)


def permute_graph(g, rng):
    perms = {t: rng.permutation(g.num_nodes(t)) for t in (GENE, MICROBE, DISEASE)}
    node_ids = {}
    feats = {}
    for t, perm in perms.items():
        ids = [None] * len(perm)
        x = np.empty_like(g.features[t])
        for old, new in enumerate(perm):
            ids[new] = g.node_ids[t][old]
            x[new] = g.features[t][old]
        node_ids[t] = ids
        feats[t] = x
    edges = {}
    for kind in [(GENE, MICROBE), (GENE, DISEASE), (MICROBE, DISEASE)]:
        a, b = kind
        edges[kind] = [(int(perms[a][u]), int(perms[b][v]))
                       for u, v in edge_set(g, kind)]
    return HetGraph(node_ids, edges, feats), perms


def test_permutation_equivariance():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 6, 5, 5, p=0.4)
    g2, perms = permute_graph(g, rng)
    cfg = small_config()
    cache1, cache2 = ModelCache(g, cfg), ModelCache(g2, cfg)
    params = init_params(cache1, cfg, 2)
    samples1 = np.array([(1, 2, 3), (4, 0, 2)])
    samples2 = np.stack([perms[t][samples1[:, k]] for k, t in enumerate((GENE, MICROBE, DISEASE))],
                        axis=1)
    out1, scores1 = forward_scores(cache1, params, index_of(samples1))
    out2, scores2 = forward_scores(cache2, params, index_of(samples2))
    for t in (GENE, MICROBE, DISEASE):
        # row i of graph 1 lands at row perms[t][i] in graph 2
        assert np.allclose(out1.embeddings[t].data,
                           out2.embeddings[t].data[perms[t]], atol=1e-9)
    assert np.allclose(scores1.data, scores2.data, atol=1e-9)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_runs_and_normalizes(tiny_graph, variant):
    cfg = small_config(variant)
    cache = ModelCache(tiny_graph, cfg)
    params = init_params(cache, cfg, 4)
    out, scores = forward_scores(cache, params, some_samples(tiny_graph))
    assert scores.shape == (2, 1)
    assert ((scores.data > 0) & (scores.data < 1)).all()
    for t in (GENE, MICROBE, DISEASE):
        assert out.embeddings[t].shape == (tiny_graph.num_nodes(t), cfg.embed_dim)
        assert out.fusion_weights[t].sum() == pytest.approx(1.0, abs=1e-9)


def single_triangle_graph():
    return HetGraph({GENE: ["g0"], MICROBE: ["m0"], DISEASE: ["d0"]},
                    {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                     (MICROBE, DISEASE): [(0, 0)]},
                    {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})


def elu_np(x):
    return np.where(x > 0, x, np.exp(np.minimum(x, 0)) - 1.0)


def rel_vector(params, rel) -> Tensor:
    """Relation `rel`'s 1 x F row of the shared `rel` table, as a taped slice."""
    return T.gather_rows(params.tensors["rel"], [RELATIONS.index(rel)])


def attn_vector(params, path: int, head: int) -> Tensor:
    """Path `path`'s head `head`: column path * H + head of `attn`, as a taped slice."""
    col = path * params.config.heads + head
    return T.transpose(T.gather_rows(T.transpose(params.tensors["attn"]), [col]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_loss_gradients_match_finite_differences(variant):
    g = toy_graph(seed=0)
    pos = derive_positive_triplets(g)
    neg = [(0, 1, 0), (0, 1, 1), (1, 1, 0)]
    labels = np.repeat([1.0, 0.0], [len(pos), len(neg)])
    index = index_of(np.concatenate([pos, neg]))
    cfg = small_config(variant)
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 1)

    def full_loss(*_):
        return loss_fn(forward_scores(cache, params, index)[1], labels, 0.7)

    report = grad_check(full_loss, list(params.tensors.values()), h=1e-6, tol=1e-4)
    assert report.n_checked > 0
    assert report.passed, (report.max_rel_error, report.worst)


def test_womp1_aggregates_tail_projections_for_heads_only():
    g = single_triangle_graph()
    cfg = ModelConfig(proj_dim=3, heads=1, fusion_dim=4, mlp_hidden=5,
                      variant="woMP-i")
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 6)
    h = forward_views(cache, params)[1]["G-M-D"]
    h_disease = params.proj(DISEASE).data @ g.features[DISEASE][0]
    assert np.allclose(h[0], elu_np(h_disease))  # head view = ELU(tail projection)
    assert np.array_equal(h[1], np.zeros(3))     # intermediate gets nothing
    assert np.array_equal(h[2], np.zeros(3))     # tail gets nothing


def test_wotm_pairwise_message_reaches_both_endpoints():
    g = single_triangle_graph()
    cfg = ModelConfig(proj_dim=3, heads=1, fusion_dim=4, mlp_hidden=5,
                      variant="woTM")
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 8)
    h = forward_views(cache, params)[1]["G-M"]
    h_g = params.proj(GENE).data @ g.features[GENE][0]
    h_m = params.proj(MICROBE).data @ g.features[MICROBE][0]
    r = rel_vector(params, (GENE, MICROBE)).data[0]
    message = 0.5 * (h_g * r + h_m)
    assert np.allclose(h[0], elu_np(message))
    assert np.allclose(h[1], elu_np(message))
    assert np.array_equal(h[2], np.zeros(3))  # diseases sit outside G-M


def test_womp3_five_node_fold_formula():
    g = single_triangle_graph()
    cfg = ModelConfig(proj_dim=3, heads=1, fusion_dim=4, mlp_hidden=5,
                      variant="woMP-iii")
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 9)
    h = forward_views(cache, params)[1]["G-M-D-M-G"]
    h_g = params.proj(GENE).data @ g.features[GENE][0]
    h_m = params.proj(MICROBE).data @ g.features[MICROBE][0]
    h_d = params.proj(DISEASE).data @ g.features[DISEASE][0]
    r_gm, r_md, r_dm, r_mg = (rel_vector(params, r).data[0] for r in (
        (GENE, MICROBE), (MICROBE, DISEASE), (DISEASE, MICROBE), (MICROBE, GENE)))
    msg = ((((h_g * r_gm + h_m) * r_md + h_d) * r_dm + h_m) * r_mg + h_g) / 5.0
    # head == tail here, so the single delivery target is the gene
    assert np.allclose(h[0], elu_np(msg))
    assert np.array_equal(h[1], np.zeros(3))


def assert_layout_reads(cache, path, nodes, rows, off, width):
    """The layout's keys, logit rows and node tables for `path`'s pairs, which
    receive at `nodes` from the instances `rows` (global node ids); each
    position's table is `width` columns from its type's first row."""
    layout, sel = cache.layout, cache.pair_paths == path
    n_paths, v = len(cache.metapaths), cache.total_nodes
    positions = list(message_positions(cache.variant, rows.shape[1]))
    blocks = (1 + len(positions)) * n_paths
    assert np.array_equal(layout.segments[sel], path * v + nodes)
    assert np.array_equal(layout.logit_rows[0, sel], nodes * blocks + path)
    for j, pos in enumerate(positions):
        assert np.array_equal(layout.keys[j, sel], (path * v + nodes) * width
                              + rows[:, pos] - off[pos]), (cache.variant, path, pos)
        assert np.array_equal(layout.logit_rows[1 + j, sel],
                              rows[:, pos] * blocks + (1 + j) * n_paths + path)
        assert np.array_equal(layout.sources[j, path],
                              np.minimum(off[pos] + np.arange(width), v - 1))


def test_delivery_pairs_are_the_distinct_node_instance_pairs_in_order():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 6, 5, 5, p=0.5)
    revisits = 0
    for variant in VARIANTS:
        cache = ModelCache(g, ModelConfig(variant=variant))
        start = 0
        for i, p in enumerate(cache.metapaths):
            off = np.array([cache.offsets[t] for t in p.types])
            grows = enumerate_instance_rows(g, p) + off
            stop = start + len(grows)
            assert np.array_equal(cache.instances[start:stop], grows), (variant, p)
            assert [RELATIONS[r] for r in cache.path_relations[i]] == list(p.relations)
            cols = delivery_positions(variant, len(p.types))
            expect = sorted({(int(grows[j, c]), start + j)
                             for j in range(len(grows)) for c in cols})
            revisits += len(grows) * len(cols) - len(expect)
            nodes, insts = cache.pairs[p.name]
            assert nodes.dtype == insts.dtype == np.int64
            assert list(zip(nodes.tolist(), insts.tolist())) == expect, (variant, p)
            assert_layout_reads(cache, i, nodes, grows[insts - start], off, max(g.sizes))
            # the name's pairs are the path's slice of the stacked table
            assert np.shares_memory(nodes, cache.pair_nodes)
            assert (cache.pair_paths[np.isin(cache.pair_insts, insts)] == i).all()
            start = stop
        assert start == len(cache.instances)
        assert sum(n.size for n, _ in cache.pairs.values()) == cache.pair_nodes.size
    assert revisits > 0  # symmetric-5 walks that return to their first node


def test_relation_embeddings_shared_across_paths_and_heads(tiny_graph):
    for variant in VARIANTS:
        cfg = small_config(variant)
        params = init_params(ModelCache(tiny_graph, cfg), cfg, 0)
        assert params.tensors["rel"].shape == (len(RELATIONS), cfg.proj_dim)
        assert params.tensors["attn"].shape == (2 * cfg.proj_dim, 6 * cfg.heads)
        for heads in (1, 4):
            assert len(param_specs(replace(cfg, heads=heads), params.feature_dims)) == 18
        # the stacked table keeps the RNG stream of one 2F x 1 draw per (path, head)
        rng = np.random.default_rng(0)
        for name, shape, init in param_specs(cfg, params.feature_dims):
            if name == "attn":
                break
            init(rng, shape)
        limit = np.sqrt(6.0 / (2 * cfg.proj_dim + 1))
        cols = [rng.uniform(-limit, limit, size=(2 * cfg.proj_dim, 1))
                for _ in range(6 * cfg.heads)]
        assert np.array_equal(params.tensors["attn"].data, np.hstack(cols)), variant


def test_wobf_uses_one_hot_inputs(tiny_graph):
    cache = ModelCache(tiny_graph, ModelConfig(variant="woBF"))
    for t in (GENE, MICROBE, DISEASE):
        assert np.array_equal(cache.features[t], np.eye(tiny_graph.num_nodes(t)))
        assert cache.feature_dims[t] == tiny_graph.num_nodes(t)


def test_forward_rejects_variant_mismatch(tiny_graph):
    cache_full = ModelCache(tiny_graph, small_config())
    cfg_wo = small_config("woTM")
    params = init_params(ModelCache(tiny_graph, cfg_wo), cfg_wo, 0)
    with pytest.raises(ValueError, match="variant|instance tables"):
        forward(cache_full, params)


def test_forward_rejects_unseen_entities(tiny_graph):
    cfg = small_config()
    cache = ModelCache(tiny_graph, cfg)
    params = init_params(cache, cfg, 0)
    ghost = index_of([(99, 0, 0)])
    with pytest.raises(ShapeError):
        forward_scores(cache, params, ghost)


def test_checkpoint_round_trip_is_bit_exact(tmp_path, tiny_graph):
    cfg = small_config()
    cache = ModelCache(tiny_graph, cfg)
    params = init_params(cache, cfg, 9)
    path = tmp_path / "ckpt.json"
    params.save(path)
    loaded = ModelParams.load(path)
    assert loaded.config == params.config
    assert set(loaded.tensors) == set(params.tensors)
    for name, p in params.tensors.items():
        assert np.array_equal(loaded.tensors[name].data, p.data), name
    scores1 = forward_scores(cache, params, some_samples(tiny_graph))[1]
    scores2 = forward_scores(cache, loaded, some_samples(tiny_graph))[1]
    assert np.array_equal(scores1.data, scores2.data)


def test_checkpoint_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"format": "hcmgnn-checkpoint-v2", ', encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON") as err:
        ModelParams.load(path)
    assert str(path) in str(err.value)


def transpose_entry(entry):
    rows, cols = entry["shape"]
    data = np.array(entry["data"]).reshape(rows, cols).T
    return {"shape": [cols, rows], "data": data.reshape(-1).tolist()}


@pytest.mark.parametrize("tamper, key", [
    (lambda doc: doc["tensors"].pop("mlp_W2"), "'mlp_W2'"),
    (lambda doc: doc["tensors"]["mlp_b2"].update(shape=[3, 3]), "'mlp_b2'"),
    (lambda doc: doc["config"].update(heads=3), "'attn'"),
    (lambda doc: doc["config"].update(heads="2"), "heads"),
    (lambda doc: doc["config"].update(leaky_slope=float("nan")),
     "config: leaky_slope must be finite, got nan"),
    (lambda doc: doc.pop("feature_dims"), "'feature_dims'"),
    (lambda doc: doc["tensors"].update(extra={"shape": [1, 1], "data": [0.0]}), "'extra'"),
    (lambda doc: doc["tensors"].update(mlp_W1=transpose_entry(doc["tensors"]["mlp_W1"])),
     "'mlp_W1'"),
    (lambda doc: doc["tensors"]["mlp_b2"].update(data=[float("nan")]),
     "tensor 'mlp_b2' holds a non-finite value"),
    (lambda doc: doc["tensors"]["proj_gene"]["data"].__setitem__(3, float("-inf")),
     "tensor 'proj_gene' holds a non-finite value"),
    (lambda doc: doc.update(format="hcmgnn-checkpoint-v1"),
     "checkpoint format 'hcmgnn-checkpoint-v1', expected 'hcmgnn-checkpoint-v2'"),
], ids=["missing-tensor", "wrong-length", "heads-3-of-2", "config-value",
        "slope-nan", "missing-feature-dims", "extra-tensor", "transposed", "nan-value", "inf-value",
        "format-v1"])
def test_malformed_checkpoint_rejected_at_load(tmp_path, tiny_graph, capsys, tamper, key):
    path = tmp_path / "ckpt.json"
    init_params(ModelCache(tiny_graph, small_config()), small_config(), 0).save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    tamper(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg, _ = write_config(tmp_path)
    assert main(["stratify", "--config", cfg, "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and key in err, err


# ---- the per-path, per-head forward, kept as the stacked pass's oracle ----

def reference_forward(g, cache, params, index):
    """The forward as it ran before the stacked pass: one set of ops per
    metapath and per head, relation rows broadcast per path, a [h || m]
    logit per head, and fusion over a list of per-path views.  Each relation
    row and attention column is a taped slice of the stacked tables, so the
    grads reach `rel` and `attn` as they do from `forward`.

    Returns (scores, embeddings, betas, views, alphas), the last two keyed
    by path name, alphas as one (pairs x H) array per path.
    """
    config = params.config
    h_all = T.concat_rows([feature_transform(T.constant(cache.features[t]), params.proj(t))
                           for t in (GENE, MICROBE, DISEASE)])
    v_total = cache.total_nodes
    views, alphas = {}, {}
    for i, p in enumerate(cache.metapaths):
        off = np.array([cache.offsets[t] for t in p.types], dtype=np.int64)
        grows = enumerate_instance_rows(g, p) + off
        s = grows.shape[0]
        positions = delivery_positions(cache.variant, len(p.types))
        keys = np.unique(np.concatenate([grows[:, c] * s + np.arange(s) for c in positions]))
        node_ids, inst_ids = keys // max(s, 1), keys % max(s, 1)
        if node_ids.size == 0:
            views[p.name] = T.constant(np.zeros((v_total, config.embed_dim)))
            alphas[p.name] = np.zeros((0, config.heads))
            continue
        cols = [T.gather_rows(h_all, grows[:, i]) for i in range(grows.shape[1])]
        if cache.variant == "woMP-i":
            messages = cols[-1]
        else:
            messages = encode_walk(cols, [rel_vector(params, r) for r in p.relations])
        h_pair = T.gather_rows(h_all, node_ids)
        m_pair = T.gather_rows(messages, inst_ids)
        head_outs, head_alphas = [], []
        for k in range(config.heads):
            logits = T.leaky_relu(T.matmul(T.concat_cols([h_pair, m_pair]),
                                           attn_vector(params, i, k)), config.leaky_slope)
            alpha = T.segment_softmax(logits, node_ids, v_total)
            agg = T.segment_sum(T.hadamard(m_pair, alpha), node_ids, v_total)
            head_outs.append(T.elu(agg))
            head_alphas.append(alpha.data[:, 0])
        views[p.name] = T.concat_cols(head_outs)
        alphas[p.name] = np.stack(head_alphas, axis=1)

    n_paths = len(cache.metapaths)
    embeddings, betas = {}, {}
    for t in (GENE, MICROBE, DISEASE):
        per_path = [T.gather_rows(views[p.name], cache.type_slices[t]) for p in cache.metapaths]
        if cache.variant == "woAF":
            z = per_path[0]
            for view in per_path[1:]:
                z = T.add(z, view)
            embeddings[t] = T.smul(z, 1.0 / n_paths)
            betas[t] = np.full(n_paths, 1.0 / n_paths)
            continue
        q, w, b = params.fuse(t)
        coeffs = [T.mean_rows(T.matmul(T.tanh(T.add(T.matmul(view, T.transpose(w)), b)), q))
                  for view in per_path]
        beta = T.row_softmax(T.concat_cols(coeffs))
        beta_col = T.transpose(beta)
        n = per_path[0].shape[0]
        z = T.hadamard(per_path[0], T.gather_rows(beta_col, np.zeros(n, dtype=np.int64)))
        for i, view in enumerate(per_path[1:], start=1):
            z = T.add(z, T.hadamard(view, T.gather_rows(beta_col, np.full(n, i))))
        embeddings[t] = z
        betas[t] = beta.data[0]
    return (score_triplets(embeddings, params, index), embeddings, betas,
            {name: v.data for name, v in views.items()}, alphas)


def assert_close(got, expect, what, rtol=1e-10):
    """Within rtol of each entry, relative to the entry or to the array's scale."""
    scale = max(np.abs(expect).max(initial=0.0), np.finfo(float).tiny)
    np.testing.assert_allclose(got, expect, rtol=rtol, atol=rtol * scale, err_msg=what)


def taped_grads(run, params, labels):
    """Every parameter's grad after one backward of `run`'s scores' loss."""
    params.zero_grad()
    with T.Tape() as tape:
        out = run()
        tape.backward(loss_fn(out[0], labels, 0.7))
    grads = {name: np.zeros(p.shape) if p.grad is None else p.grad.copy()
             for name, p in params.tensors.items()}
    params.zero_grad()
    return out, grads


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_forward_matches_the_per_path_per_head_reference(variant):
    rng = np.random.default_rng(21)
    g = random_graph(rng, 6, 5, 5, p=0.45)
    pos = derive_positive_triplets(g)[:6]
    neg = [(0, 1, 0), (2, 3, 4)]
    labels = np.repeat([1.0, 0.0], [len(pos), len(neg)])
    index = index_of(np.concatenate([pos, neg]))
    cfg = ModelConfig(proj_dim=3, heads=3, fusion_dim=4, mlp_hidden=5, variant=variant)
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 11)

    def stacked():
        out, views = forward_views(cache, params)
        return (score_triplets(out.embeddings, params, index), out.embeddings,
                out.fusion_weights, views, out.attention)

    (scores, emb, betas, views, alpha), grads = taped_grads(stacked, params, labels)
    (r_scores, r_emb, r_betas, r_views, r_alphas), r_grads = taped_grads(
        lambda: reference_forward(g, cache, params, index), params, labels)
    assert alpha.shape == (cache.pair_nodes.size, cfg.heads) and alpha.size > 0
    assert_close(scores.data, r_scores.data, "scores")
    for t in (GENE, MICROBE, DISEASE):
        assert_close(emb[t].data, r_emb[t].data, f"embeddings {t.name}")
        assert_close(betas[t], r_betas[t], f"beta {t.name}")
    for i, p in enumerate(cache.metapaths):
        assert_close(views[p.name], r_views[p.name], f"view {p.name}")
        assert_close(alpha[cache.pair_paths == i], r_alphas[p.name], f"alpha {p.name}")
    assert set(grads) == set(r_grads)
    for name in grads:
        assert_close(grads[name], r_grads[name], f"grad {name}")
    assert np.abs(grads["attn"]).max() > 0


# ---- attention over node tables, against the instance messages ----

@pytest.mark.parametrize("variant", VARIANTS)
def test_node_tables_match_the_instance_message_reference(monkeypatch, variant):
    rng = np.random.default_rng(41)
    g = random_graph(rng, 6, 5, 5, p=0.45)
    pos = derive_positive_triplets(g)[:6]
    neg = [(0, 1, 0), (2, 3, 4)]
    labels = np.repeat([1.0, 0.0], [len(pos), len(neg)])
    index = index_of(np.concatenate([pos, neg]))
    cfg = ModelConfig(proj_dim=3, heads=3, fusion_dim=4, mlp_hidden=5, variant=variant)
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 13)
    params.tensors["rel"].data = rng.normal(size=params.tensors["rel"].shape)

    def run():
        out, views = forward_views(cache, params)
        return score_triplets(out.embeddings, params, index), views, out.attention

    (scores, views, alpha), grads = taped_grads(run, params, labels)
    monkeypatch.setattr(model, "instance_attention",
                        lambda h_all, *_, **__: reference_attention(cache, params, h_all))
    (r_scores, r_views, r_alpha), r_grads = taped_grads(run, params, labels)
    assert alpha.shape == (cache.pair_nodes.size, cfg.heads) and alpha.size > 0
    assert_close(alpha, r_alpha, "alpha", rtol=1e-11)
    for name in views:
        assert_close(views[name], r_views[name], f"view {name}", rtol=1e-11)
    assert_close(scores.data, r_scores.data, "scores", rtol=1e-11)
    assert set(grads) == set(r_grads)
    for name in grads:
        assert_close(grads[name], r_grads[name], f"grad {name}", rtol=1e-11)
    assert np.abs(grads["rel"]).max() > 0 or variant == "woMP-i"


def walk_messages(cache, params, h_all):
    """Each instance's message as `encode_walk` folds its gathered rows: the
    oracle of the per-node tables the reference builds its messages from."""
    if cache.variant == "woMP-i":
        return T.gather_rows(h_all, cache.instances[:, -1])
    paths = instance_paths(cache)
    return encode_walk([T.gather_rows(h_all, col) for col in cache.instances.T],
                       [T.gather_rows(params.tensors["rel"], ids)
                        for ids in cache.path_relations[paths].T])


@pytest.mark.parametrize("variant", VARIANTS)
def test_table_messages_match_the_walk_fold(variant):
    rng = np.random.default_rng(31)
    g = random_graph(rng, 6, 5, 5, p=0.45)
    cfg = ModelConfig(proj_dim=3, heads=2, fusion_dim=4, mlp_hidden=5, variant=variant)
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 12)
    params.tensors["rel"].data = rng.normal(size=params.tensors["rel"].shape)
    readout = rng.normal(size=(cache.instances.shape[0], 3))

    def run(encode):
        params.zero_grad()
        with T.Tape() as tape:
            h_all = T.concat_rows([feature_transform(T.constant(cache.features[t]),
                                                     params.proj(t)) for t in EntityType])
            messages = encode(cache, params, h_all)
            tape.backward(T.sum_sq(T.hadamard(messages, T.constant(readout))))
        return messages.data, {name: p.grad for name, p in params.tensors.items()
                               if p.grad is not None}

    (got, grads), (ref, ref_grads) = run(instance_messages), run(walk_messages)
    assert got.shape == (cache.instances.shape[0], 3)
    assert_close(got, ref, "messages", rtol=1e-12)
    assert set(grads) == set(ref_grads)
    for name in grads:
        assert_close(grads[name], ref_grads[name], f"grad {name}", rtol=1e-12)


def test_womp3_taped_pass_peak_memory_on_the_acceptance_graph():
    """One taped forward and backward of the five-node family on the 40/30/30
    graph peaked at 838 MB under `tracemalloc` with messages folded per
    instance and a per-head chain, at 317 MB with per-node tables and
    `T.attend`, at 73 MB with attention over node tables, and at 49 MB with
    the logits and their softmax as one op (`T.pair_softmax`)."""
    g = generate_synthetic(SyntheticConfig(n_genes=40, n_microbes=30, n_diseases=30,
                                           latent_dim=8, edge_density=0.15), 7).graph
    cfg = ModelConfig(proj_dim=16, heads=4, fusion_dim=32, mlp_hidden=128, variant="woMP-iii")
    cache = ModelCache(g, cfg)
    params = init_params(cache, cfg, 1)
    pos = derive_positive_triplets(g)
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            _, scores = forward_scores(cache, params, index_of(pos))
            loss = loss_fn(scores, np.ones(len(pos)), 0.7)
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 450e6, f"{peak / 1e6:.0f} MB"
