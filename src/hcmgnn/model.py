"""Forward computation: projection, causal message passing, fusion, scoring.

The pipeline per variant: project each type's features into a shared
space, encode every metapath instance into a relation-aware message,
share that message with the instance's nodes through per-head attention,
fuse the per-subgraph views with a type-level softmax, then score
triplets with an MLP head.  Ablation variants reroute messages or swap
the metapath family but reuse the same machinery.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .graph import (DISEASE, GENE, MICROBE, RELATIONS, EntityType, HetGraph,
                    load_json)
from .metapath import (CAUSAL_3, PAIRWISE_2, SYMMETRIC_5, Metapath,
                       ablation_metapaths, causal_metapaths,
                       enumerate_instance_rows)
from .tensor import ShapeError, Tensor

VARIANTS = ("full", "woMP-i", "woMP-ii", "woMP-iii", "woTM", "woAF", "woBF")


@dataclass(frozen=True)
class ModelConfig:
    proj_dim: int = 64
    heads: int = 4
    leaky_slope: float = 0.01
    fusion_dim: int = 128
    mlp_hidden: int = 64
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.proj_dim < 1 or self.heads < 1:
            raise ValueError("proj_dim and heads must be >= 1")

    @property
    def embed_dim(self) -> int:
        return self.heads * self.proj_dim


def metapath_family(variant: str) -> str:
    if variant == "woMP-iii":
        return SYMMETRIC_5
    if variant == "woTM":
        return PAIRWISE_2
    return CAUSAL_3


def family_paths(variant: str) -> list[Metapath]:
    fam = metapath_family(variant)
    if fam == CAUSAL_3:
        return causal_metapaths()
    return ablation_metapaths(fam)


def delivery_positions(variant: str, length: int) -> tuple[int, ...]:
    """Which instance positions receive the instance's message."""
    if variant == "woMP-i":
        return (0,)
    if variant in ("woMP-ii", "woMP-iii"):
        return (0, length - 1)
    if variant == "woTM":
        return (0, 1)
    return tuple(range(length))


class ModelCache:
    """Per-graph immutable tables: instances, global ids, delivery pairs.

    Enumeration is the hot path, so it runs once here and forward passes
    only gather.  A cache is tied to one variant because the metapath
    family and delivery positions depend on it.
    """

    def __init__(self, graph: HetGraph, variant: str = "full"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.graph = graph
        self.variant = variant
        self.metapaths = family_paths(variant)

        n_g, n_m, n_d = graph.sizes
        self.offsets = {GENE: 0, MICROBE: n_g, DISEASE: n_g + n_m}
        self.total_nodes = n_g + n_m + n_d
        self.type_slices = {t: np.arange(self.offsets[t],
                                         self.offsets[t] + graph.num_nodes(t))
                            for t in EntityType}

        if variant == "woBF":
            self.features = {t: np.eye(graph.num_nodes(t)) for t in EntityType}
        else:
            self.features = {t: graph.features[t] for t in EntityType}
        self.feature_dims = {t: self.features[t].shape[1] for t in EntityType}

        self.global_rows: dict[str, np.ndarray] = {}
        self.pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for p in self.metapaths:
            off = np.array([self.offsets[t] for t in p.types], dtype=np.int64)
            grows = enumerate_instance_rows(graph, p) + off[None, :]
            self.global_rows[p.name] = grows
            self.pairs[p.name] = self._build_pairs(grows,
                                                   delivery_positions(variant, len(p.types)))

    @staticmethod
    def _build_pairs(grows: np.ndarray, positions: tuple[int, ...]):
        s = grows.shape[0]
        if s == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        nodes = np.concatenate([grows[:, pos] for pos in positions])
        insts = np.tile(np.arange(s, dtype=np.int64), len(positions))
        # a node revisited inside one instance receives its message once;
        # the key node * s + inst dedupes and sorts by (node, inst)
        keys = np.unique(nodes * s + insts)
        return keys // s, keys % s


def _type_key(t: EntityType) -> str:
    return t.name.lower()


def _rel_key(rel: tuple[EntityType, EntityType]) -> str:
    return f"rel_{rel[0].name[0]}{rel[1].name[0]}"


def _glorot(rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class ModelParams:
    """All learnable tensors, keyed by stable names for Adam and checkpoints."""

    def __init__(self, tensors: dict[str, Tensor], config: ModelConfig,
                 feature_dims: dict[EntityType, int]):
        self.tensors = tensors
        self.config = config
        self.feature_dims = dict(feature_dims)

    def named(self) -> dict[str, Tensor]:
        return self.tensors

    def proj(self, t: EntityType) -> Tensor:
        return self.tensors[f"proj_{_type_key(t)}"]

    def rel(self, rel) -> Tensor:
        return self.tensors[_rel_key(rel)]

    def attn(self, p: Metapath, head: int) -> Tensor:
        return self.tensors[f"attn_{p.name}_h{head}"]

    def zero_grad(self):
        for p in self.tensors.values():
            p.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        if set(state) != set(self.tensors):
            raise ValueError("parameter state does not match this model's tensors")
        for name, arr in state.items():
            if arr.shape != self.tensors[name].shape:
                raise ValueError(f"state shape mismatch for {name}: "
                                 f"{arr.shape} vs {self.tensors[name].shape}")
            self.tensors[name].data = np.array(arr, dtype=np.float64)

    def save(self, path):
        doc = {
            "format": "hcmgnn-checkpoint-v1",
            "config": asdict(self.config),
            "feature_dims": {_type_key(t): int(d) for t, d in self.feature_dims.items()},
            "tensors": {name: {"shape": list(p.shape),
                               "data": p.data.reshape(-1).tolist()}
                        for name, p in self.tensors.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ModelParams":
        doc = load_json(path)
        if not isinstance(doc, dict) or doc.get("format") != "hcmgnn-checkpoint-v1":
            raise ValueError(f"{path}: not a model checkpoint")
        config = ModelConfig(**doc["config"])
        fdims = {EntityType[k.upper()]: int(v) for k, v in doc["feature_dims"].items()}
        tensors = {}
        for name, entry in doc["tensors"].items():
            arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            tensors[name] = Tensor(arr, requires_grad=True)
        return cls(tensors, config, fdims)


def init_params(cache: ModelCache, config: ModelConfig, seed: int) -> ModelParams:
    """Seeded Glorot init; relation embeddings start near all-ones."""
    if config.variant != cache.variant:
        raise ValueError(f"cache built for variant {cache.variant!r}, "
                         f"config wants {config.variant!r}")
    rng = np.random.default_rng(seed)
    f_prime = config.proj_dim
    tensors: dict[str, Tensor] = {}
    for t in EntityType:
        tensors[f"proj_{_type_key(t)}"] = Tensor(
            _glorot(rng, f_prime, cache.feature_dims[t]), requires_grad=True)
    for rel in RELATIONS:
        tensors[_rel_key(rel)] = Tensor(
            1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(1, f_prime)), requires_grad=True)
    for p in cache.metapaths:
        for k in range(config.heads):
            tensors[f"attn_{p.name}_h{k}"] = Tensor(
                _glorot(rng, 2 * f_prime, 1), requires_grad=True)
    d_embed = config.embed_dim
    for t in EntityType:
        key = _type_key(t)
        tensors[f"fuse_W_{key}"] = Tensor(
            _glorot(rng, config.fusion_dim, d_embed), requires_grad=True)
        tensors[f"fuse_b_{key}"] = Tensor(
            np.zeros((1, config.fusion_dim)), requires_grad=True)
        tensors[f"fuse_q_{key}"] = Tensor(
            _glorot(rng, config.fusion_dim, 1), requires_grad=True)
    tensors["mlp_W1"] = Tensor(_glorot(rng, config.mlp_hidden, 3 * d_embed),
                               requires_grad=True)
    tensors["mlp_b1"] = Tensor(np.zeros((1, config.mlp_hidden)), requires_grad=True)
    tensors["mlp_W2"] = Tensor(_glorot(rng, 1, config.mlp_hidden), requires_grad=True)
    tensors["mlp_b2"] = Tensor(np.zeros((1, 1)), requires_grad=True)
    return ModelParams(tensors, config, cache.feature_dims)


def feature_transform(x: Tensor, w: Tensor) -> Tensor:
    """Type-specific linear map h = W x, batched over rows of x."""
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"feature_transform: features {x.shape} vs weight {w.shape}")
    return T.matmul(x, T.transpose(w))


def encode_instance(h_head: Tensor, h_mid: Tensor, h_tail: Tensor,
                    r_head_mid: Tensor, r_mid_tail: Tensor) -> Tensor:
    """Relation-twisted instance message ((h ⊙ r + e) ⊙ r' + t) / 3.

    The two Hadamard relations make the message direction-sensitive:
    reversing an instance generally changes it.
    """
    inner = T.add(T.hadamard(h_head, r_head_mid), h_mid)
    return T.smul(T.add(T.hadamard(inner, r_mid_tail), h_tail), 1.0 / 3.0)


def encode_walk(node_embeds: list[Tensor], rels: list[Tensor]) -> Tensor:
    """Left-to-right fold of the pairwise encoder over a longer walk."""
    cur = node_embeds[0]
    for nxt, r in zip(node_embeds[1:], rels):
        cur = T.add(T.hadamard(cur, r), nxt)
    return T.smul(cur, 1.0 / len(node_embeds))


def encode_pair(h_head: Tensor, h_tail: Tensor, r: Tensor) -> Tensor:
    return T.smul(T.add(T.hadamard(h_head, r), h_tail), 0.5)


def instance_attention(h_nodes: Tensor, messages: Tensor, attn_vec: Tensor,
                       segments, num_segments: int, slope: float = 0.01):
    """One attention head over (node, message) pairs grouped per node.

    Rows of h_nodes/messages are aligned pairs; segments holds the node id
    of each pair.  Returns the aggregated per-node embedding (ELU applied)
    and the attention weights.
    """
    feats = T.concat_cols([h_nodes, messages])
    logits = T.leaky_relu(T.matmul(feats, attn_vec), slope)
    alpha = T.segment_softmax(logits, segments, num_segments)
    agg = T.segment_sum(T.hadamard(messages, alpha), segments, num_segments)
    return T.elu(agg), alpha


def multi_head_aggregate(head_outputs: list[Tensor]) -> Tensor:
    return T.concat_cols(head_outputs)


def fuse_subgraphs(views: list[Tensor], q: Tensor, w: Tensor, b: Tensor):
    """Type-level attentive fusion; returns (z, beta) with beta a 1 x P row."""
    coeffs = []
    for view in views:
        hidden = T.tanh(T.add(T.matmul(view, T.transpose(w)), b))
        coeffs.append(T.mean_rows(T.matmul(hidden, q)))
    beta = T.row_softmax(T.concat_cols(coeffs))
    beta_col = T.transpose(beta)
    z = None
    for i, view in enumerate(views):
        term = T.smul(view, T.gather_rows(beta_col, [i]))
        z = term if z is None else T.add(z, term)
    return z, beta


def predict(z_gene: Tensor, z_microbe: Tensor, z_disease: Tensor,
            w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """MLP + sigmoid over the concatenated triplet embedding."""
    x = T.concat_cols([z_gene, z_microbe, z_disease])
    hidden = T.elu(T.add(T.matmul(x, T.transpose(w1)), b1))
    logit = T.add(T.matmul(hidden, T.transpose(w2)), b2)
    return T.sigmoid(logit)


@dataclass
class ForwardOutput:
    embeddings: dict[EntityType, Tensor]
    subgraph_embeddings: dict[str, Tensor]
    fusion_weights: dict[EntityType, np.ndarray]
    scores: Tensor
    attention: dict[str, list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=dict)


def _sample_indices(samples):
    if isinstance(samples, tuple) and len(samples) == 3:
        return (np.asarray(samples[0], dtype=np.int64),
                np.asarray(samples[1], dtype=np.int64),
                np.asarray(samples[2], dtype=np.int64))
    genes = np.array([s.gene for s in samples], dtype=np.int64)
    microbes = np.array([s.microbe for s in samples], dtype=np.int64)
    diseases = np.array([s.disease for s in samples], dtype=np.int64)
    return genes, microbes, diseases


def _metapath_messages(cache: ModelCache, params: ModelParams,
                       p: Metapath, h_all: Tensor) -> Tensor:
    rows = cache.global_rows[p.name]
    cols = [T.gather_rows(h_all, rows[:, i]) for i in range(rows.shape[1])]
    if cache.variant == "woMP-i":
        return cols[-1]
    rels = [params.rel(r) for r in p.relations]
    if p.kind == CAUSAL_3:
        return encode_instance(cols[0], cols[1], cols[2], rels[0], rels[1])
    if p.kind == PAIRWISE_2:
        return encode_pair(cols[0], cols[1], rels[0])
    return encode_walk(cols, rels)


def forward(cache: ModelCache, params: ModelParams, samples,
            config: ModelConfig | None = None) -> ForwardOutput:
    """Score `samples` and expose embeddings, fusion weights and attention."""
    config = config or params.config
    if config != params.config:
        raise ValueError("forward: config does not match the parameters' config")
    if config.variant != cache.variant:
        raise ValueError(f"forward: cache holds {cache.variant!r} instance tables, "
                         f"config wants {config.variant!r}")
    for t in EntityType:
        if cache.feature_dims[t] != params.feature_dims[t]:
            raise ValueError(f"forward: feature dim mismatch for {t.name.lower()}: "
                             f"graph {cache.feature_dims[t]}, "
                             f"params {params.feature_dims[t]}")

    h_per_type = {t: feature_transform(T.constant(cache.features[t]), params.proj(t))
                  for t in EntityType}
    h_all = T.concat_rows([h_per_type[GENE], h_per_type[MICROBE], h_per_type[DISEASE]])

    v_total = cache.total_nodes
    d_embed = config.embed_dim
    subgraph_embeds: dict[str, Tensor] = {}
    attention: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for p in cache.metapaths:
        node_ids, inst_ids = cache.pairs[p.name]
        if node_ids.size == 0:
            subgraph_embeds[p.name] = T.constant(np.zeros((v_total, d_embed)))
            attention[p.name] = []
            continue
        messages = _metapath_messages(cache, params, p, h_all)
        h_pair_nodes = T.gather_rows(h_all, node_ids)
        m_pair = T.gather_rows(messages, inst_ids)
        head_outs = []
        head_attn = []
        for k in range(config.heads):
            out, alpha = instance_attention(h_pair_nodes, m_pair,
                                            params.attn(p, k), node_ids, v_total,
                                            slope=config.leaky_slope)
            head_outs.append(out)
            head_attn.append((node_ids, alpha.data[:, 0].copy()))
        subgraph_embeds[p.name] = multi_head_aggregate(head_outs)
        attention[p.name] = head_attn

    n_paths = len(cache.metapaths)
    embeddings: dict[EntityType, Tensor] = {}
    fusion_weights: dict[EntityType, np.ndarray] = {}
    for t in EntityType:
        views = [T.gather_rows(subgraph_embeds[p.name], cache.type_slices[t])
                 for p in cache.metapaths]
        if config.variant == "woAF":
            z = views[0]
            for view in views[1:]:
                z = T.add(z, view)
            z = T.smul(z, 1.0 / n_paths)
            beta_row = np.full(n_paths, 1.0 / n_paths)
        else:
            key = _type_key(t)
            z, beta = fuse_subgraphs(views,
                                     params.tensors[f"fuse_q_{key}"],
                                     params.tensors[f"fuse_W_{key}"],
                                     params.tensors[f"fuse_b_{key}"])
            beta_row = beta.data[0].copy()
        embeddings[t] = z
        fusion_weights[t] = beta_row

    genes, microbes, diseases = _sample_indices(samples)
    scores = predict(T.gather_rows(embeddings[GENE], genes),
                     T.gather_rows(embeddings[MICROBE], microbes),
                     T.gather_rows(embeddings[DISEASE], diseases),
                     params.tensors["mlp_W1"], params.tensors["mlp_b1"],
                     params.tensors["mlp_W2"], params.tensors["mlp_b2"])
    return ForwardOutput(embeddings=embeddings, subgraph_embeddings=subgraph_embeds,
                         fusion_weights=fusion_weights, scores=scores,
                         attention=attention)
