"""Forward computation: projection, causal message passing, fusion, scoring.

The pipeline per variant: project each type's features into a shared
space, encode every metapath instance into a relation-aware message,
share that message with the instance's nodes through per-head attention,
and fuse the per-subgraph views with a type-level softmax; that is
`forward`.  An MLP head, `score_triplets`, then scores triplets from the
fused embeddings.  One set of ops over stacked tables runs every path and
head; ablation variants reroute messages or swap the family.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .config import check_at_least, check_field_types, config_block
from .graph import (DISEASE, GENE, MICROBE, RELATIONS, EntityType, HetGraph,
                    load_json)
from .metapath import (CAUSAL_3, PAIRWISE_2, SYMMETRIC_5, Metapath, count_instances,
                       enumerate_instance_rows, metapaths)
from .tensor import ShapeError, Tensor

VARIANTS = ("full", "woMP-i", "woMP-ii", "woMP-iii", "woTM", "woAF", "woBF")
CHECKPOINT_FORMAT = "hcmgnn-checkpoint-v2"
# The most memory the cache build and a taped pass may need for the delivery
# pairs and node tables (see `pair_bytes` and `table_bytes`)
PAIR_MEMORY_BOUND = 4 * 2 ** 30
# Triplets the head reads out at a time without a tape: a multiple of every BLAS
# kernel width, so each score comes out bit for bit as in one single-threaded
# call over all, and small enough that the allocator reuses the per-triplet
# arrays' memory from block to block instead of faulting in fresh pages
SCORE_BLOCK = 256


class InstanceExplosion(RuntimeError):
    """A graph has more delivery pairs than a taped pass can hold."""


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
        if not -np.inf < self.leaky_slope < np.inf:
            raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope!r}")
        check_at_least(self, 1, "proj_dim", "heads", "fusion_dim", "mlp_hidden")

    @property
    def embed_dim(self) -> int:
        return self.heads * self.proj_dim


def family_paths(variant: str) -> list[Metapath]:
    """The metapaths whose views the variant fuses."""
    return metapaths({"woMP-iii": SYMMETRIC_5, "woTM": PAIRWISE_2}.get(variant, CAUSAL_3))


def delivery_positions(variant: str, length: int) -> tuple[int, ...]:
    """Which instance positions receive the instance's message."""
    if variant == "woMP-i":
        return (0,)
    if variant in ("woMP-ii", "woMP-iii"):
        return (0, length - 1)
    return tuple(range(length))


def message_positions(variant: str, length: int) -> tuple[int, ...]:
    """Which instance positions a message reads: woMP-i passes the tail's row."""
    return (length - 1,) if variant == "woMP-i" else tuple(range(length))


def _family_shape(variant: str) -> tuple[int, int, int]:
    """The variant's paths, their length and the positions a message reads."""
    paths = family_paths(variant)
    length = len(paths[0].types)
    return len(paths), length, len(message_positions(variant, length))


def pair_bytes(config: ModelConfig) -> int:
    """Bytes a delivery pair takes at the peak of the cache build or of one
    taped forward and backward, whichever is higher, for D delivery pairs per
    instance (as `check_pair_bound` counts them).

    The cache keeps eight bytes per pair for its node, instance, path and
    segment, for a key per message position (J of them), for a logit row per
    message position and one for the node itself, and up to L for the
    instance's columns.  A taped pass adds 33 bytes per head (H = heads):
    four floats at its peak, in `T.attend_nodes`' backward (the attention,
    a head-major copy of it, its grad and that grad's transpose), and
    `T.pair_softmax`'s one-byte sign mask.  No pairs x F array is built.
    The build peaks in `pair_layout`, with eight bytes per pair for 7 + 2J
    arrays and per instance for 2L + 3J + 3 + D.  Per pair counted,
    `tracemalloc` peaks of woMP-iii at 0.3M to 2.4M pairs and 1 to 8 heads
    came 1-7% under this plus `table_bytes` (the build set the peak up to 2
    heads), and of `full` at 2.2M pairs 4-5% under.  The MLP head's
    triplets are not counted; those runs scored 1,000 of them.
    """
    _, length, n_pos = _family_shape(config.variant)
    deliveries = len(delivery_positions(config.variant, length))
    taped = 8 * (5 + 2 * n_pos + length) + 33 * config.heads
    build = 8 * (7 + 2 * n_pos) + 8 * (2 * length + 3 * n_pos + 3 + deliveries) // deliveries
    return max(taped, build)


def table_bytes(graph: HetGraph, config: ModelConfig) -> int:
    """Bytes of `T.attend_nodes`' node tables at the peak of a taped pass.

    One (position, head)'s P x V x C weights live at a time (C = the largest
    type), beside the J kept P x V x H x F products and three more arrays
    of that size (the output, its grad and the scaled grad).  On graphs of
    1,000 and 2,000 nodes and few pairs, `tracemalloc` peaks came within
    -1% and +1% of this plus the pairs' bytes.
    """
    n_paths, _, n_pos = _family_shape(config.variant)
    return (8 * n_paths * sum(graph.sizes)
            * (max(graph.sizes) + (n_pos + 3) * config.heads * config.proj_dim))


def check_pair_bound(graph: HetGraph, config: ModelConfig):
    """Reject a graph whose taped pass would outgrow `PAIR_MEMORY_BOUND`.

    The instances are counted, not built, so nothing large exists before the
    check; each delivers a pair per delivery position, or fewer on a revisit.
    The node tables grow with the graph's nodes alone.
    """
    paths = family_paths(config.variant)
    n_inst = sum(count_instances(graph, p) for p in paths)
    n_pairs = n_inst * len(delivery_positions(config.variant, len(paths[0].types)))
    pairs_need, tables_need = n_pairs * pair_bytes(config), table_bytes(graph, config)
    if pairs_need + tables_need > PAIR_MEMORY_BOUND:
        raise InstanceExplosion(
            f"variant {config.variant!r}: {n_inst:,} metapath instances deliver up to "
            f"{n_pairs:,} pairs, about {pairs_need / 2 ** 30:.2f} GiB to build and train at "
            f"{pair_bytes(config):,} bytes per pair, and the node tables of "
            f"{sum(graph.sizes):,} nodes take {tables_need / 2 ** 30:.2f} GiB, over the "
            f"bound of {PAIR_MEMORY_BOUND / 2 ** 30:.2f} GiB")


class ModelCache:
    """Per-graph immutable tables: stacked instances and delivery pairs.

    Enumeration is the hot path, so it runs once here and forward passes
    only gather.  Every path's instances (global node ids), each path's
    relations (indices into `RELATIONS`) and the delivery pairs (node,
    global instance, path) are stacked in path order; `pairs` maps each
    name to its slice, and `layout` says where each pair reads and writes
    in `instance_attention`'s node tables.  A cache is tied to one variant:
    the family and delivery positions depend on it.  `config`'s sizes go
    into `check_pair_bound`.
    """

    def __init__(self, graph: HetGraph, config: ModelConfig):
        check_pair_bound(graph, config)
        self.variant = variant = config.variant
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

        # every path of a family has the same length, so the rows stack
        bases = np.array([[self.offsets[t] for t in p.types] for p in self.metapaths])
        rows = [enumerate_instance_rows(graph, p) + base for p, base in zip(self.metapaths, bases)]
        inst_paths = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        self.instances = np.concatenate(rows)
        self.path_relations = np.array([[RELATIONS.index(r) for r in p.relations]
                                        for p in self.metapaths])
        (s, length), v = self.instances.shape, self.total_nodes
        # a node revisited inside one instance receives its message once: keys
        # (path * V + node) * S + inst, sorted and deduped (np.unique hashes, 20x slower)
        inst_keys = inst_paths * (v * s) + np.arange(s)
        keys = np.sort(np.concatenate([self.instances[:, pos] * s + inst_keys
                                       for pos in delivery_positions(variant, length)]))
        segments, self.pair_insts = np.divmod(keys[np.diff(keys, prepend=-1) != 0], s)
        self.pair_paths, self.pair_nodes = np.divmod(segments, v)
        bounds = np.searchsorted(self.pair_paths, np.arange(len(rows) + 1))
        self.pairs = {p.name: (self.pair_nodes[lo:hi], self.pair_insts[lo:hi])
                      for p, lo, hi in zip(self.metapaths, bounds, bounds[1:])}
        positions = list(message_positions(variant, length))
        self.layout = pair_layout(self.pair_nodes, self.pair_insts, self.pair_paths,
                                  self.instances.T[positions], bases[:, positions], v,
                                  max(graph.sizes))


@dataclass(frozen=True)
class PairLayout:
    """Where each delivery pair reads and writes in `instance_attention`.

    `segments` holds each pair's path * V + node, `keys` (positions x pairs)
    and `sources` (positions x P x C) are `T.attend_nodes`' keys and node
    tables, and `logit_rows` ((1 + positions) x pairs) are the pair's rows of
    the logit table: its own node's, then the node each position holds.
    """
    n_paths: int
    segments: np.ndarray
    keys: np.ndarray
    sources: np.ndarray
    logit_rows: np.ndarray


def pair_layout(nodes, insts, paths, reads, bases, n_nodes: int, width: int) -> PairLayout:
    """The layout of pairs (nodes[i], insts[i], paths[i]), path-major.

    reads[j, s] is the node that message position j of instance s holds.
    Position j of path p reads the `width` node rows from bases[p, j] on
    (its type's rows, padded past the type's last node with rows no key
    reaches), so that node sits in column reads[j, s] - bases[p, j].  Each
    instance's rows are worked out once and then gathered into every pair.
    """
    n_paths, n_pos = bases.shape
    inst_paths = np.empty(reads.shape[1], dtype=np.int64)
    inst_paths[insts] = paths
    blocks = (1 + n_pos) * n_paths
    # per instance: each position's row of the logit table, then its column
    per_inst = np.empty((2 * n_pos, reads.shape[1]), dtype=np.int64)
    for j, read in enumerate(reads):
        np.multiply(read, blocks, out=per_inst[j])
        per_inst[j] += inst_paths
        per_inst[j] += (1 + j) * n_paths
        np.subtract(read, bases[inst_paths, j], out=per_inst[n_pos + j])
    rows = np.empty((1 + 2 * n_pos, len(nodes)), dtype=np.int64)
    np.take(per_inst, insts, axis=1, out=rows[1:], mode="clip")   # "raise" buffers `out`
    segments = paths * n_nodes + nodes
    np.multiply(nodes, blocks, out=rows[0])
    rows[0] += paths
    rows[1 + n_pos:] += segments * width
    sources = np.minimum(bases.T[:, :, None] + np.arange(width), n_nodes - 1)
    return PairLayout(n_paths, segments, rows[1 + n_pos:], sources, rows[:1 + n_pos])


def _type_key(t: EntityType) -> str:
    return t.name.lower()


def _glorot(rng, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _glorot_columns(rng, shape: tuple[int, int]) -> np.ndarray:
    """Each column its own rows x 1 Glorot vector, drawn column after column."""
    limit = np.sqrt(6.0 / (shape[0] + 1))
    return rng.uniform(-limit, limit, size=shape[::-1]).T.copy()


def _near_one(rng, shape: tuple[int, int]) -> np.ndarray:
    return 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=shape)


def _zeros(rng, shape: tuple[int, int]) -> np.ndarray:
    return np.zeros(shape)


def param_specs(config: ModelConfig, feature_dims: dict[EntityType, int]):
    """Every learnable tensor as a (name, shape, init) row, in init's draw order.

    `init(rng, shape)` draws the tensor's start value; the order of the rows
    fixes the RNG stream, so checkpoints depend on it.  `rel` has a row per
    relation in `RELATIONS` order; column p * H + k of `attn` is path p's head k.
    """
    f, d, fd, hid = config.proj_dim, config.embed_dim, config.fusion_dim, config.mlp_hidden
    n_attn = len(family_paths(config.variant)) * config.heads
    specs = [(f"proj_{_type_key(t)}", (f, feature_dims[t]), _glorot) for t in EntityType]
    specs += [("rel", (len(RELATIONS), f), _near_one), ("attn", (2 * f, n_attn), _glorot_columns)]
    for t in EntityType:
        key = _type_key(t)
        specs += [(f"fuse_W_{key}", (fd, d), _glorot), (f"fuse_b_{key}", (1, fd), _zeros),
                  (f"fuse_q_{key}", (fd, 1), _glorot)]
    specs += [("mlp_W1", (hid, 3 * d), _glorot), ("mlp_b1", (1, hid), _zeros),
              ("mlp_W2", (1, hid), _glorot), ("mlp_b2", (1, 1), _zeros)]
    return specs


def _check_state(specs, state: dict, where: str) -> dict[str, np.ndarray]:
    """Float64 copies of `state`'s arrays, in spec order.

    A missing, unexpected, misshapen or non-finite tensor is an error naming `where`.
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
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{where}: tensor {name!r} holds a non-finite value")
    return arrays


@dataclass
class ModelParams:
    """All learnable tensors, keyed by stable names for Adam and checkpoints."""
    tensors: dict[str, Tensor]
    config: ModelConfig

    @property
    def feature_dims(self) -> dict[EntityType, int]:
        """Each type's input feature width, the column count of its projection."""
        return {t: self.proj(t).shape[1] for t in EntityType}

    def proj(self, t: EntityType) -> Tensor:
        return self.tensors[f"proj_{_type_key(t)}"]

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
            "feature_dims": {_type_key(t): d for t, d in self.feature_dims.items()},
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
        if not isinstance(doc, dict) or "format" not in doc:
            raise ValueError(f"{path}: not a model checkpoint")
        if doc["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: checkpoint format {doc['format']!r}, "
                             f"expected {CHECKPOINT_FORMAT!r}")
        for key in ("config", "feature_dims", "tensors"):
            if not isinstance(doc.get(key), dict):
                raise ValueError(f"{path}: the checkpoint has no {key!r} object")
        config = config_block(ModelConfig, doc["config"], path, "config.")
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
                   config)


def init_params(cache: ModelCache, config: ModelConfig, seed: int) -> ModelParams:
    """Seeded draws from `param_specs`; relation embeddings start near all-ones."""
    if config.variant != cache.variant:
        raise ValueError(f"cache built for variant {cache.variant!r}, "
                         f"config wants {config.variant!r}")
    rng = np.random.default_rng(seed)
    tensors = {name: Tensor(init(rng, shape), requires_grad=True)
               for name, shape, init in param_specs(config, cache.feature_dims)}
    return ModelParams(tensors, config)


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
    return encode_walk([h_head, h_mid, h_tail], [r_head_mid, r_mid_tail])


def encode_walk(node_embeds: list[Tensor], rels: list[Tensor]) -> Tensor:
    """Left-to-right fold of the pairwise encoder over a longer walk."""
    cur = node_embeds[0]
    for nxt, r in zip(node_embeds[1:], rels):
        cur = T.add(T.hadamard(cur, r), nxt)
    return T.smul(cur, 1.0 / len(node_embeds))


def encode_pair(h_head: Tensor, h_tail: Tensor, r: Tensor) -> Tensor:
    return encode_walk([h_head, h_tail], [r])


def instance_attention(h_nodes: Tensor, scales: Tensor, attn: Tensor, layout: PairLayout,
                       slope: float = 0.01):
    """Every path's and head's attention over the messages each node receives.

    h_nodes has a row per node.  A pair's message is linear in them: the sum
    over positions j of scales[j * P + p] ⊙ h_nodes[layout's read at j], p
    the pair's path.  Column p * H + k of the 2F x (P * H) `attn` is path p's
    head k; its logit a . [h || m] splits as a1 . h + sum_j (a2 ⊙ s_j) . h_j,
    so one V x ((1 + J) * P * H) node table, h_nodes @ [a1 | a2 ⊙ s_0 | ...],
    holds every term, and a pair's logits sum J + 1 of its rows.  Returns the
    ELU'd (P * V) x (H * F) views, path p's view of node v at row p * V + v,
    and the (pairs x H) attention weights.
    """
    (v, f), n_paths = h_nodes.shape, layout.n_paths
    heads, n_pos = attn.shape[1] // n_paths, layout.keys.shape[0]
    # row 2c of the transposed attn, cut into F-wide rows, is column c's a1, row 2c + 1 its a2
    halves = T.reshape(T.transpose(attn), 2 * n_paths * heads, f)
    cols = 2 * np.arange(n_paths * heads)
    a2_scaled = T.hadamard(T.gather_rows(halves, np.tile(cols + 1, n_pos)),
                           T.gather_rows(scales, np.repeat(np.arange(n_pos * n_paths), heads)))
    weights = T.concat_rows([T.gather_rows(halves, cols), a2_scaled])
    table = T.reshape(T.matmul(h_nodes, T.transpose(weights)), v * (1 + n_pos) * n_paths, heads)
    alpha = T.pair_softmax(table, layout.logit_rows, layout.segments, n_paths * v, slope)
    return T.elu(T.attend_nodes(h_nodes, scales, alpha, layout.sources, layout.keys,
                                n_paths * v)), alpha


def multi_head_aggregate(head_outputs: list[Tensor]) -> Tensor:
    return T.concat_cols(head_outputs)


def fuse_subgraphs(views: Tensor, n_paths: int, q: Tensor, w: Tensor, b: Tensor):
    """Type-level attentive fusion of (P * n) path-major stacked views of n
    nodes; returns (z, beta) with beta a 1 x P row."""
    n = views.shape[0] // n_paths
    paths = np.repeat(np.arange(n_paths), n)
    hidden = T.tanh(T.add(T.matmul(views, T.transpose(w)), b))
    coeffs = T.segment_mean(T.matmul(hidden, q), paths, n_paths)
    beta = T.row_softmax(T.transpose(coeffs))
    weighted = T.hadamard(views, T.gather_rows(T.transpose(beta), paths))
    return T.segment_sum(weighted, np.tile(np.arange(n), n_paths), n), beta


def predict(tables: list[Tensor], index, w1: Tensor, b1: Tensor, w2: Tensor,
            b2: Tensor) -> Tensor:
    """MLP + sigmoid over each triplet's z_g || z_m || z_d.

    `tables` are the gene, microbe and disease node tables and `index` the
    triple (genes, microbes, diseases) of row indices.  W1 [z_g; z_m; z_d] + b1
    is linear, so each table is multiplied by its column block of W1 once per
    node, with b1 added to the gene rows, and the readout sums one row of each
    per triplet.  Under a tape the readout takes every triplet at once;
    without one it takes `SCORE_BLOCK` at a time, to the same scores.
    """
    index = np.asarray(index)
    w1t = T.transpose(w1)
    bounds = np.cumsum([0] + [t.shape[1] for t in tables])
    if bounds[-1] != w1t.shape[0]:
        raise ShapeError(f"predict: tables of {bounds[-1]} columns vs weight {w1.shape}")
    prods = [T.matmul(t, T.gather_rows(w1t, np.arange(lo, hi)))
             for t, lo, hi in zip(tables, bounds, bounds[1:])]
    prods[0] = T.add(prods[0], b1)

    def readout(idx):
        hidden = T.elu(T.gather_sum(prods, idx))
        return T.sigmoid(T.add(T.matmul(hidden, T.transpose(w2)), b2))

    if T.active_tape() is not None or index.shape[1] <= SCORE_BLOCK:
        return readout(index)
    return T.constant(np.concatenate([readout(index[:, lo:lo + SCORE_BLOCK]).data
                                      for lo in range(0, index.shape[1], SCORE_BLOCK)]))


@dataclass
class ForwardOutput:
    embeddings: dict[EntityType, Tensor]
    fusion_weights: dict[EntityType, np.ndarray]
    attention: np.ndarray   # pairs x heads, row-aligned with the cache's pairs


def position_scales(cache: ModelCache, rel: Tensor) -> Tensor:
    """Row j * P + p scales the node at message position j of path p's instances.

    `encode_walk`'s fold ((h0 ⊙ r1 + h1) ⊙ r2 + h2) / L is linear in the node
    rows: position j's row is scaled by the product of the relations after
    it, over L.  woMP-i's message is the tail's row as it is.
    """
    (n_paths, steps), f = cache.path_relations.shape, rel.shape[1]
    if cache.variant == "woMP-i":
        return T.constant(np.ones((n_paths, f)))
    factor = T.constant(np.full((n_paths, f), 1.0 / (steps + 1)))
    scales = [factor]
    for ids in cache.path_relations.T[::-1]:   # the relations from the last one back
        factor = T.hadamard(T.gather_rows(rel, ids), factor)
        scales.insert(0, factor)
    return T.concat_rows(scales)


def forward(cache: ModelCache, params: ModelParams) -> ForwardOutput:
    """Every node's fused embedding, with the fusion weights and the attention;
    `score_triplets` scores triplets from the embeddings."""
    config = params.config
    if config.variant != cache.variant:
        raise ValueError(f"forward: cache holds {cache.variant!r} instance tables, "
                         f"config wants {config.variant!r}")
    for t in EntityType:
        if cache.feature_dims[t] != params.feature_dims[t]:
            raise ValueError(f"forward: feature dim mismatch for {t.name.lower()}: "
                             f"graph {cache.feature_dims[t]}, "
                             f"params {params.feature_dims[t]}")

    h_all = T.concat_rows([feature_transform(T.constant(cache.features[t]), params.proj(t))
                           for t in EntityType])   # gene, microbe, disease rows

    n_paths, v_total = len(cache.metapaths), cache.total_nodes
    if cache.pair_nodes.size == 0:
        views = T.constant(np.zeros((n_paths * v_total, config.embed_dim)))
        attention = np.zeros((0, config.heads))
    else:
        views, alpha = instance_attention(
            h_all, position_scales(cache, params.tensors["rel"]), params.tensors["attn"],
            cache.layout, slope=config.leaky_slope)
        attention = alpha.data

    embeddings: dict[EntityType, Tensor] = {}
    fusion_weights: dict[EntityType, np.ndarray] = {}
    for t in EntityType:
        n = cache.type_slices[t].size
        stacked = T.gather_rows(views, (np.arange(n_paths)[:, None] * v_total
                                        + cache.type_slices[t]).ravel())
        if config.variant == "woAF":
            embeddings[t] = T.smul(T.segment_sum(stacked, np.tile(np.arange(n), n_paths), n),
                                   1.0 / n_paths)
            fusion_weights[t] = np.full(n_paths, 1.0 / n_paths)
        else:
            embeddings[t], beta = fuse_subgraphs(stacked, n_paths, *params.fuse(t))
            fusion_weights[t] = beta.data[0]
    return ForwardOutput(embeddings, fusion_weights, attention)


def score_triplets(embeddings: dict[EntityType, Tensor], params: ModelParams,
                   index) -> Tensor:
    """The MLP head alone: score the triplets of `index` from fused embeddings.

    `embeddings` are `forward`'s per-type outputs; `index` is the triple
    (genes, microbes, diseases) of int64 node-index arrays.
    """
    return predict([embeddings[t] for t in EntityType], index,
                   *(params.tensors[f"mlp_{k}"] for k in ("W1", "b1", "W2", "b2")))
