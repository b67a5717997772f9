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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .graph import (DISEASE, GENE, MICROBE, RELATIONS, EntityType, HetGraph,
                    load_json)
from .metapath import (CAUSAL_3, PAIRWISE_2, SYMMETRIC_5, Metapath,
                       ablation_metapaths, causal_metapaths,
                       enumerate_instance_rows)
from .tensor import ShapeError, Tensor

VARIANTS = ("full", "woMP-i", "woMP-ii", "woMP-iii", "woTM", "woAF", "woBF")
CHECKPOINT_FORMAT = "hcmgnn-checkpoint-v1"


_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def check_type(name: str, value, type_name: str):
    """Reject a value not of `type_name` ("int", "float" or "str"); a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[type_name]):
        raise ValueError(f"{name} must be {type_name}, got {value!r}")


def check_field_types(config):
    """Reject a dataclass field not of its declared type."""
    for f in fields(config):
        check_type(f.name, getattr(config, f.name), f.type)


def config_block(cls, block, where: str):
    """`cls(**block)`; a bad key or value is an error naming `where`."""
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ModelConfig:
    proj_dim: int = 64
    heads: int = 4
    leaky_slope: float = 0.01
    fusion_dim: int = 128
    mlp_hidden: int = 64
    variant: str = "full"

    def __post_init__(self):
        check_field_types(self)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("proj_dim", "heads", "fusion_dim", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def embed_dim(self) -> int:
        return self.heads * self.proj_dim


def family_paths(variant: str) -> list[Metapath]:
    """The metapaths whose views the variant fuses."""
    if variant == "woMP-iii":
        return ablation_metapaths(SYMMETRIC_5)
    if variant == "woTM":
        return ablation_metapaths(PAIRWISE_2)
    return causal_metapaths()


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


def _attn_key(p: Metapath, head: int) -> str:
    return f"attn_{p.name}_h{head}"


def _glorot(rng, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _near_one(rng, shape: tuple[int, int]) -> np.ndarray:
    return 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=shape)


def _zeros(rng, shape: tuple[int, int]) -> np.ndarray:
    return np.zeros(shape)


def param_specs(config: ModelConfig, feature_dims: dict[EntityType, int]):
    """Every learnable tensor as a (name, shape, init) row, in init's draw order.

    `init(rng, shape)` draws the tensor's start value; the order of the rows
    fixes the RNG stream, so checkpoints depend on it.
    """
    f, d, fd, hid = config.proj_dim, config.embed_dim, config.fusion_dim, config.mlp_hidden
    specs = [(f"proj_{_type_key(t)}", (f, feature_dims[t]), _glorot) for t in EntityType]
    specs += [(_rel_key(rel), (1, f), _near_one) for rel in RELATIONS]
    specs += [(_attn_key(p, k), (2 * f, 1), _glorot)
              for p in family_paths(config.variant) for k in range(config.heads)]
    for t in EntityType:
        key = _type_key(t)
        specs += [(f"fuse_W_{key}", (fd, d), _glorot), (f"fuse_b_{key}", (1, fd), _zeros),
                  (f"fuse_q_{key}", (fd, 1), _glorot)]
    specs += [("mlp_W1", (hid, 3 * d), _glorot), ("mlp_b1", (1, hid), _zeros),
              ("mlp_W2", (1, hid), _glorot), ("mlp_b2", (1, 1), _zeros)]
    return specs


def _check_state(specs, state: dict, where: str) -> dict[str, np.ndarray]:
    """Float64 copies of `state`'s arrays, in spec order.

    A missing, unexpected or misshapen tensor is an error naming `where`.
    """
    extra = sorted(set(state).difference(name for name, _, _ in specs))
    if extra:
        raise ValueError(f"{where}: unexpected tensor {extra[0]!r}")
    arrays = {}
    for name, shape, _ in specs:
        if name not in state:
            raise ValueError(f"{where}: missing tensor {name!r}")
        arrays[name] = np.array(state[name], dtype=np.float64)
        if arrays[name].shape != shape:
            raise ValueError(f"{where}: tensor {name!r} has shape "
                             f"{list(arrays[name].shape)}, expected {list(shape)}")
    return arrays


@dataclass
class ModelParams:
    """All learnable tensors, keyed by stable names for Adam and checkpoints."""
    tensors: dict[str, Tensor]
    config: ModelConfig
    feature_dims: dict[EntityType, int]

    def proj(self, t: EntityType) -> Tensor:
        return self.tensors[f"proj_{_type_key(t)}"]

    def rel(self, rel) -> Tensor:
        return self.tensors[_rel_key(rel)]

    def attn(self, p: Metapath, head: int) -> Tensor:
        return self.tensors[_attn_key(p, head)]

    def fuse(self, t: EntityType) -> tuple[Tensor, Tensor, Tensor]:
        """The type-level fusion's (q, W, b) for entity type t."""
        return tuple(self.tensors[f"fuse_{part}_{_type_key(t)}"] for part in "qWb")

    def zero_grad(self):
        for p in self.tensors.values():
            p.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        specs = param_specs(self.config, self.feature_dims)
        for name, arr in _check_state(specs, state, "parameter state").items():
            self.tensors[name].data = arr

    def save(self, path):
        doc = {
            "format": CHECKPOINT_FORMAT,
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
        """Read a checkpoint, checking it against `param_specs` of its own config.

        Every error names the file and the key or tensor at fault.
        """
        doc = load_json(path)
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a model checkpoint")
        for key in ("config", "feature_dims", "tensors"):
            if not isinstance(doc.get(key), dict):
                raise ValueError(f"{path}: the checkpoint has no {key!r} object")
        config = config_block(ModelConfig, doc["config"], f"{path}: config")
        fdims = doc["feature_dims"]
        if (sorted(fdims) != sorted(map(_type_key, EntityType))
                or not all(type(n) is int and n >= 1 for n in fdims.values())):
            raise ValueError(f"{path}: 'feature_dims' must map gene, microbe and "
                             f"disease to positive integers, got {fdims!r}")
        fdims = {t: fdims[_type_key(t)] for t in EntityType}
        state = {}
        for name, entry in doc["tensors"].items():
            try:  # a data length that does not fit the shape fails the reshape
                state[name] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: tensor {name!r}: {exc}") from exc
        arrays = _check_state(param_specs(config, fdims), state, str(path))
        return cls({name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()},
                   config, fdims)


def init_params(cache: ModelCache, config: ModelConfig, seed: int) -> ModelParams:
    """Seeded draws from `param_specs`; relation embeddings start near all-ones."""
    if config.variant != cache.variant:
        raise ValueError(f"cache built for variant {cache.variant!r}, "
                         f"config wants {config.variant!r}")
    rng = np.random.default_rng(seed)
    tensors = {name: Tensor(init(rng, shape), requires_grad=True)
               for name, shape, init in param_specs(config, cache.feature_dims)}
    return ModelParams(tensors, config, dict(cache.feature_dims))


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


def forward(cache: ModelCache, params: ModelParams, index) -> ForwardOutput:
    """Score the triplets of `index` and expose embeddings, fusion weights and attention.

    `index` is the triple (genes, microbes, diseases) of int64 node-index arrays.
    """
    config = params.config
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
            z, beta = fuse_subgraphs(views, *params.fuse(t))
            beta_row = beta.data[0].copy()
        embeddings[t] = z
        fusion_weights[t] = beta_row

    return ForwardOutput(embeddings=embeddings, subgraph_embeddings=subgraph_embeds,
                         fusion_weights=fusion_weights,
                         scores=score_triplets(embeddings, params, index),
                         attention=attention)


def score_triplets(embeddings: dict[EntityType, Tensor], params: ModelParams,
                   index) -> Tensor:
    """The MLP head alone: score the triplets of `index` from fused embeddings.

    `embeddings` are `forward`'s per-type outputs; `index` is the triple
    (genes, microbes, diseases) of int64 node-index arrays.
    """
    genes, microbes, diseases = index
    return predict(T.gather_rows(embeddings[GENE], genes),
                   T.gather_rows(embeddings[MICROBE], microbes),
                   T.gather_rows(embeddings[DISEASE], diseases),
                   params.tensors["mlp_W1"], params.tensors["mlp_b1"],
                   params.tensors["mlp_W2"], params.tensors["mlp_b2"])
