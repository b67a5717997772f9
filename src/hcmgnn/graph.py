"""Tri-partite gene/microbe/disease graph: ingestion, triplets, splits.

Associations are undirected on disk but materialized as six directed
relation edge sets, one per ordered type pair.  A (gene, microbe,
disease) triplet is positive exactly when all three pairwise edges
exist, i.e. the triplet closes a triangle.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)


class EntityType(Enum):
    GENE = 0
    MICROBE = 1
    DISEASE = 2

    def __lt__(self, other):
        return self.value < other.value


GENE, MICROBE, DISEASE = EntityType.GENE, EntityType.MICROBE, EntityType.DISEASE

# ordered type pairs, one per directed relation
RELATIONS: list[tuple[EntityType, EntityType]] = [
    (GENE, MICROBE), (MICROBE, GENE),
    (GENE, DISEASE), (DISEASE, GENE),
    (MICROBE, DISEASE), (DISEASE, MICROBE),
]

# the undirected association classes, in file order
PAIR_KINDS = [(GENE, MICROBE), (GENE, DISEASE), (MICROBE, DISEASE)]


@dataclass(frozen=True)
class LabeledTriplet:
    gene: int
    microbe: int
    disease: int
    label: int
    provenance: str  # "observed" | "sampled-negative"

    def key(self) -> tuple[int, int, int]:
        return (self.gene, self.microbe, self.disease)


class HetGraph:
    """Immutable after construction; safe for shared reads."""

    def __init__(self, node_ids: dict[EntityType, list[str]],
                 undirected_edges: dict[tuple[EntityType, EntityType], list[tuple[int, int]]],
                 features: dict[EntityType, np.ndarray]):
        self.node_ids = {t: list(node_ids[t]) for t in EntityType}
        self.node_index = {t: {v: i for i, v in enumerate(self.node_ids[t])}
                           for t in EntityType}
        for t in EntityType:
            rows = np.shape(features[t])[0]
            if rows != len(self.node_ids[t]):
                raise ValueError(f"{t.name.lower()} features have {rows} rows "
                                 f"for {len(self.node_ids[t])} nodes")
        self.features = features

        self.edges: dict[tuple[EntityType, EntityType], set[tuple[int, int]]] = {
            rel: set() for rel in RELATIONS}
        for (a, b), pairs in undirected_edges.items():
            for u, v in pairs:
                self.edges[(a, b)].add((u, v))
                self.edges[(b, a)].add((v, u))

        self.adj: dict[tuple[EntityType, EntityType], dict[int, np.ndarray]] = {}
        for rel, pairs in self.edges.items():
            out: dict[int, list[int]] = {}
            for u, v in pairs:
                out.setdefault(u, []).append(v)
            self.adj[rel] = {u: np.array(sorted(vs), dtype=np.int64)
                             for u, vs in out.items()}

    def num_nodes(self, t: EntityType) -> int:
        return len(self.node_ids[t])

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.num_nodes(GENE), self.num_nodes(MICROBE), self.num_nodes(DISEASE))

    def neighbors(self, rel: tuple[EntityType, EntityType], u: int) -> np.ndarray:
        return self.adj[rel].get(u, np.empty(0, dtype=np.int64))

    def degree(self, t: EntityType, v: int) -> int:
        """Distinct cross-type neighbors; each bidirectional pair counts once."""
        total = 0
        for rel in RELATIONS:
            if rel[0] is t:
                total += self.neighbors(rel, v).size
        return total

    def triplet_id(self, t: LabeledTriplet) -> str:
        return "|".join((self.node_ids[GENE][t.gene],
                         self.node_ids[MICROBE][t.microbe],
                         self.node_ids[DISEASE][t.disease]))


def _read_edge_file(path, kind, registries) -> list[tuple[int, int]]:
    a_type, b_type = kind
    reg_a, reg_b = registries[a_type], registries[b_type]
    pairs = []
    seen = set()
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}, "
                                 "expected 'id_a<TAB>id_b'")
            if "|" in line:
                raise ValueError(f"{path}:{lineno}: node id contains '|', "
                                 "which separates the ids inside a triplet id")
            ia = reg_a.setdefault(fields[0], len(reg_a))
            ib = reg_b.setdefault(fields[1], len(reg_b))
            if (ia, ib) in seen:
                duplicates += 1
                continue
            seen.add((ia, ib))
            pairs.append((ia, ib))
    if duplicates:
        logger.warning("%s: dropped %d duplicate edges", path, duplicates)
    return pairs


def _read_feature_file(path, index: dict[str, int]):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise ValueError(f"{path}: feature file needs a header 'id,f1,...,fk'")
        width = len(header) - 1
        rows: dict[int, np.ndarray] = {}
        ignored = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) - 1 != width:
                raise ValueError(f"{path}:{lineno}: expected {width} feature values, "
                                 f"got {len(row) - 1}")
            node = index.get(row[0])
            if node is None:
                ignored += 1
                continue
            rows[node] = np.array([float(x) for x in row[1:]], dtype=np.float64)
    if ignored:
        logger.warning("%s: ignored %d feature rows for ids absent from the edge files",
                       path, ignored)
    return width, rows


def _feature_matrix(n: int, supplied) -> np.ndarray:
    """Supplied features, with one-hot indicator columns for uncovered nodes.

    No file at all degenerates to the identity matrix.
    """
    if supplied is None:
        return np.eye(n)
    width, rows = supplied
    missing = [v for v in range(n) if v not in rows]
    x = np.zeros((n, width + len(missing)))
    for v, vec in rows.items():
        x[v, :width] = vec
    for j, v in enumerate(missing):
        x[v, width + j] = 1.0
    return x


def load_edges(gene_microbe_path, gene_disease_path, microbe_disease_path,
               feature_paths: dict[EntityType, str] | None = None) -> HetGraph:
    """Build a HetGraph from three TSV edge lists and optional feature CSVs."""
    registries = {t: {} for t in EntityType}
    paths = dict(zip(PAIR_KINDS,
                     [gene_microbe_path, gene_disease_path, microbe_disease_path]))
    undirected = {kind: _read_edge_file(path, kind, registries)
                  for kind, path in paths.items()}

    node_ids = {t: list(registries[t]) for t in EntityType}
    supplied = {}
    feature_paths = feature_paths or {}
    for t in EntityType:
        path = feature_paths.get(t)
        supplied[t] = _read_feature_file(path, registries[t]) if path else None
    features = {t: _feature_matrix(len(node_ids[t]), supplied[t]) for t in EntityType}
    return HetGraph(node_ids, undirected, features)


def derive_positive_triplets(g: HetGraph) -> list[LabeledTriplet]:
    """Enumerate all gene/microbe/disease triangles, lexicographically sorted."""
    out = []
    adj_gd = g.adj[(GENE, DISEASE)]
    adj_md = g.adj[(MICROBE, DISEASE)]
    for gi, mi in sorted(g.edges[(GENE, MICROBE)]):
        dg = adj_gd.get(gi)
        dm = adj_md.get(mi)
        if dg is None or dm is None:
            continue
        for d in np.intersect1d(dg, dm, assume_unique=True):
            out.append(LabeledTriplet(gi, mi, int(d), 1, "observed"))
    return out


def sample_negatives(positives: list[LabeledTriplet], count_per_positive: int,
                     rng_seed: int, sizes: tuple[int, int, int],
                     known_positives=None) -> list[LabeledTriplet]:
    """Corrupt one slot per candidate, cycling gene/microbe/disease evenly.

    Emits count_per_positive distinct negatives per positive, in
    positive-major order.  Candidates that hit a known positive or repeat
    an earlier candidate for the same positive are rejected and redrawn.
    """
    if not positives:
        raise ValueError("sample_negatives: positive set is empty")
    n_g, n_m, n_d = sizes
    universe = n_g * n_m * n_d
    if known_positives is None:
        known_positives = {p.key() for p in positives}
    if universe <= len(known_positives):
        raise ValueError("sample_negatives: universe not larger than the positive set")

    rng = np.random.default_rng(rng_seed)
    out = []
    max_trials = 1000 * count_per_positive
    for p in positives:
        chosen = set()
        trials = 0
        for j in range(count_per_positive):
            slot = j % 3
            while True:
                if trials >= max_trials:
                    raise RuntimeError(
                        f"sample_negatives: could not draw {count_per_positive} distinct "
                        f"negatives for positive ({p.gene},{p.microbe},{p.disease}) "
                        f"after {max_trials} trials")
                trials += 1
                if slot == 0:
                    cand = (int(rng.integers(n_g)), p.microbe, p.disease)
                elif slot == 1:
                    cand = (p.gene, int(rng.integers(n_m)), p.disease)
                else:
                    cand = (p.gene, p.microbe, int(rng.integers(n_d)))
                if cand in known_positives or cand in chosen:
                    continue
                chosen.add(cand)
                out.append(LabeledTriplet(cand[0], cand[1], cand[2], 0, "sampled-negative"))
                break
    return out


def sample_training_negatives(positives: list[LabeledTriplet], rng_seed: int,
                              sizes: tuple[int, int, int],
                              known_positives=None) -> list[LabeledTriplet]:
    """One negative per positive, the corrupted slot cycling across positives.

    Keeps the three corruption slots balanced over the whole training set,
    which a per-positive count of 1 cannot do.
    """
    if not positives:
        raise ValueError("sample_training_negatives: positive set is empty")
    n_g, n_m, n_d = sizes
    if known_positives is None:
        known_positives = {p.key() for p in positives}
    if n_g * n_m * n_d <= len(known_positives):
        raise ValueError("sample_training_negatives: universe not larger than positives")

    rng = np.random.default_rng(rng_seed)
    out = []
    chosen = set()
    for i, p in enumerate(positives):
        slot = i % 3
        trials = 0
        while True:
            if trials >= 1000:
                raise RuntimeError(
                    f"sample_training_negatives: stuck on positive "
                    f"({p.gene},{p.microbe},{p.disease})")
            trials += 1
            if slot == 0:
                cand = (int(rng.integers(n_g)), p.microbe, p.disease)
            elif slot == 1:
                cand = (p.gene, int(rng.integers(n_m)), p.disease)
            else:
                cand = (p.gene, p.microbe, int(rng.integers(n_d)))
            if cand in known_positives or cand in chosen:
                continue
            chosen.add(cand)
            out.append(LabeledTriplet(cand[0], cand[1], cand[2], 0, "sampled-negative"))
            break
    return out


@dataclass
class SplitPlan:
    """Test/CV partition of the positive triplet ids, plus fold boundaries."""
    test: list[str]
    folds: list[list[str]]
    seed: int

    def fold_train_ids(self, k: int) -> list[str]:
        return [tid for i, fold in enumerate(self.folds) if i != k for tid in fold]

    def to_json(self) -> str:
        return json.dumps({"test": self.test, "folds": self.folds, "seed": self.seed},
                          indent=2, sort_keys=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "SplitPlan":
        """Read a split file; a missing key or a wrong type is an error naming it."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a split file is a JSON object")
        for key in ("test", "folds", "seed"):
            if key not in doc:
                raise ValueError(f"{path}: the split file has no {key!r}")

        def ids(v):
            return isinstance(v, list) and all(isinstance(t, str) for t in v)

        if not ids(doc["test"]):
            raise ValueError(f"{path}: 'test' must be a list of triplet ids")
        if not (isinstance(doc["folds"], list) and all(map(ids, doc["folds"]))):
            raise ValueError(f"{path}: 'folds' must be a list of lists of triplet ids")
        if type(doc["seed"]) is not int:
            raise ValueError(f"{path}: 'seed' must be an integer")
        return cls(test=doc["test"], folds=doc["folds"], seed=doc["seed"])


def check_split(plan: SplitPlan, positive_ids, where: str):
    """Reject a split with an id not in `positive_ids` or seen twice, or an empty fold.

    Errors name `where`, the split file.
    """
    if not plan.folds:
        raise ValueError(f"{where}: the split has no folds")
    seen = set()
    for name, ids in [("test", plan.test)] + [
            (f"fold {k}", fold) for k, fold in enumerate(plan.folds)]:
        if not ids and name != "test":
            raise ValueError(f"{where}: {name} is empty")
        for tid in ids:
            if tid not in positive_ids:
                raise ValueError(f"{where}: {name} id {tid!r} is not a known positive")
            if tid in seen:
                raise ValueError(f"{where}: id {tid!r} appears more than once "
                                 "across test and folds")
            seen.add(tid)


def make_split(g: HetGraph, positives: list[LabeledTriplet],
               test_fraction: float = 0.1, folds: int = 5,
               rng_seed: int = 0) -> SplitPlan:
    """Shuffle positives, reserve the test slice, split the rest into folds."""
    n = len(positives)
    n_test = round(test_fraction * n)
    if n - n_test < folds:
        raise ValueError(f"make_split: {n - n_test} positives left after the test "
                         f"slice of {n_test} cannot fill {folds} folds")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(n)
    ids = [g.triplet_id(positives[i]) for i in order]

    test = ids[:n_test]
    rest = ids[n_test:]
    base, extra = divmod(len(rest), folds)
    fold_lists = []
    off = 0
    for k in range(folds):
        size = base + (1 if k < extra else 0)
        fold_lists.append(rest[off:off + size])
        off += size
    return SplitPlan(test=test, folds=fold_lists, seed=rng_seed)


def avg_node_degree(g: HetGraph, t: LabeledTriplet) -> float:
    """Mean degree of the triplet's three nodes in the association graph."""
    return (g.degree(GENE, t.gene)
            + g.degree(MICROBE, t.microbe)
            + g.degree(DISEASE, t.disease)) / 3.0
