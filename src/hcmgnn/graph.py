"""Tri-partite gene/microbe/disease graph: ingestion, triplets, splits.

Associations are undirected on disk but materialized as six directed
relation edge arrays, one per ordered type pair.  A (gene, microbe,
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

from .config import check_at_least, check_field_types

logger = logging.getLogger(__name__)


class EntityType(Enum):
    GENE = 0
    MICROBE = 1
    DISEASE = 2


GENE, MICROBE, DISEASE = EntityType.GENE, EntityType.MICROBE, EntityType.DISEASE

# ordered type pairs, one per directed relation
RELATIONS: list[tuple[EntityType, EntityType]] = [
    (GENE, MICROBE), (MICROBE, GENE),
    (GENE, DISEASE), (DISEASE, GENE),
    (MICROBE, DISEASE), (DISEASE, MICROBE),
]

# the undirected association classes, in file order
PAIR_KINDS = [(GENE, MICROBE), (GENE, DISEASE), (MICROBE, DISEASE)]


class InstanceExplosion(RuntimeError):
    """A join would give more rows than its limit."""


class HetGraph:
    """Immutable after construction; safe for shared reads.

    A triplet is a (gene, microbe, disease) row of node indices; a set of
    them is an int64 (N, 3) array.
    """

    def __init__(self, node_ids: dict[EntityType, list[str]],
                 undirected_edges: dict[tuple[EntityType, EntityType], np.ndarray | list],
                 features: dict[EntityType, np.ndarray]):
        self.node_ids = {t: list(node_ids[t]) for t in EntityType}
        for t in EntityType:
            rows = np.shape(features[t])[0]
            if rows != len(self.node_ids[t]):
                raise ValueError(f"{t.name.lower()} features have {rows} rows "
                                 f"for {len(self.node_ids[t])} nodes")
        self.features = features

        # each relation as lexsorted, distinct, read-only (E, 2) rows; a kind
        # given as (b, a) contributes its pairs reversed to (a, b)
        self.edge_rows: dict[tuple[EntityType, EntityType], np.ndarray] = {}
        for a, b in RELATIONS:
            fwd, rev = (np.asarray(undirected_edges.get(k, ()), dtype=np.int64).reshape(-1, 2)
                        for k in ((a, b), (b, a)))
            rows = np.unique(np.concatenate([fwd, rev[:, ::-1]]), axis=0)
            rows.flags.writeable = False
            self.edge_rows[(a, b)] = rows
        # each node's distinct cross-type neighbours: the heads of its outgoing relations
        self.degrees = {t: sum(np.bincount(self.edge_rows[rel][:, 0],
                                           minlength=self.num_nodes(t))
                               for rel in RELATIONS if rel[0] is t)
                        for t in EntityType}

    def num_nodes(self, t: EntityType) -> int:
        return len(self.node_ids[t])

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.num_nodes(GENE), self.num_nodes(MICROBE), self.num_nodes(DISEASE))

    def triplet_id(self, rows: np.ndarray) -> list[str]:
        """The 'gene|microbe|disease' id of each (N, 3) triplet row."""
        genes, microbes, diseases = (self.node_ids[t] for t in EntityType)
        return ["|".join((genes[g], microbes[m], diseases[d])) for g, m, d in rows.tolist()]


def load_json(path):
    """Parse a JSON file; a file that is not valid JSON is an error naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def _read_edge_file(path, kind, registries) -> list[tuple[int, int]]:
    """The file's (a, b) index pairs in row order; HetGraph drops the duplicates."""
    a_type, b_type = kind
    reg_a, reg_b = registries[a_type], registries[b_type]
    pairs = []
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
            pairs.append((reg_a.setdefault(fields[0], len(reg_a)),
                          reg_b.setdefault(fields[1], len(reg_b))))
    duplicates = len(pairs) - len(set(pairs))
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
        if not width:
            raise ValueError(f"{path}:1: the header names no feature column after 'id'")
        rows: dict[int, np.ndarray] = {}
        first_line: dict[str, int] = {}
        ignored = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) - 1 != width:
                raise ValueError(f"{path}:{lineno}: expected {width} feature values, "
                                 f"got {len(row) - 1}")
            if row[0] in first_line:
                raise ValueError(f"{path}:{lineno}: id {row[0]!r} repeats the row of "
                                 f"line {first_line[row[0]]}")
            first_line[row[0]] = lineno
            node = index.get(row[0])
            if node is None:
                ignored += 1
                continue
            try:
                rows[node] = np.array([float(x) for x in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(rows[node]).all():
                raise ValueError(f"{path}:{lineno}: non-finite feature value in {row[1:]}")
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


def join_rows(left: np.ndarray, right: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Each row of `left` extended by every `right` row that starts at its last node.

    The shared node appears once.  `right` must be sorted by its first
    column; lexsorted inputs give a lexsorted output.  A join that would
    give more than `limit` rows raises InstanceExplosion before any row is
    built.
    """
    lo = np.searchsorted(right[:, 0], left[:, -1], side="left")
    hi = np.searchsorted(right[:, 0], left[:, -1], side="right")
    counts = hi - lo
    total = int(counts.sum())
    if limit is not None and total > limit:
        raise InstanceExplosion(f"a join of {total} rows exceeds the limit of {limit}")
    # output row k of left row i takes right row lo[i] + (k - first output row of i)
    ri = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return np.concatenate([left[np.repeat(np.arange(left.shape[0]), counts)],
                           right[ri, 1:]], axis=1)


def derive_positive_triplets(g: HetGraph) -> np.ndarray:
    """Every gene/microbe/disease triangle as (N, 3) rows, lexicographically sorted.

    A triangle is a G-M-D walk whose gene-disease edge exists too.
    """
    gmd = join_rows(g.edge_rows[(GENE, MICROBE)], g.edge_rows[(MICROBE, DISEASE)])
    gd = g.edge_rows[(GENE, DISEASE)]
    n_d = g.num_nodes(DISEASE)
    closed = np.isin(gmd[:, 0] * n_d + gmd[:, 2], gd[:, 0] * n_d + gd[:, 1])
    return gmd[closed]


def positives_by_id(g: HetGraph) -> dict[str, tuple[int, int, int]]:
    """Each positive triplet of `g` as a (g, m, d) tuple keyed by its id, in derivation order."""
    rows = derive_positive_triplets(g)
    return dict(zip(g.triplet_id(rows), map(tuple, rows.tolist())))


def _known_keys(positives: np.ndarray, sizes: tuple[int, int, int],
                known_positives, name: str) -> set[tuple[int, int, int]]:
    """The triplets no negative may be; rejects an empty positive set or a full universe."""
    if not len(positives):
        raise ValueError(f"{name}: positive set is empty")
    if known_positives is None:
        known_positives = set(map(tuple, positives.tolist()))
    n_g, n_m, n_d = sizes
    if n_g * n_m * n_d <= len(known_positives):
        raise ValueError(f"{name}: universe not larger than the positive set")
    return known_positives


def _corrupt(rng, p: list[int], slot: int, sizes: tuple[int, int, int],
             known, chosen: set, budget: int, name: str) -> tuple[tuple[int, int, int], int]:
    """Redraw `slot` of p until the triplet is neither known nor already chosen.

    Spends one of `budget` draws per try and returns the negative with the
    draws left; raises naming p once the budget is spent.
    """
    g, m, d = p
    n = sizes[slot]
    while budget > 0:
        budget -= 1
        x = int(rng.integers(n))
        cand = (x, m, d) if slot == 0 else (g, x, d) if slot == 1 else (g, m, x)
        if cand not in known and cand not in chosen:
            chosen.add(cand)
            return cand, budget
    raise RuntimeError(f"{name}: ran out of draws for a new negative of positive "
                       f"({g},{m},{d})")


def sample_negatives(positives: np.ndarray, count_per_positive: int,
                     rng_seed: int, sizes: tuple[int, int, int],
                     known_positives=None) -> np.ndarray:
    """Corrupt one slot per candidate, cycling gene/microbe/disease evenly.

    Emits count_per_positive distinct negatives per positive row, as (N, 3)
    rows in positive-major order.  Candidates that hit a known positive or repeat
    an earlier candidate for the same positive are rejected and redrawn,
    within 1000 draws per negative asked of each positive.
    """
    known = _known_keys(positives, sizes, known_positives, "sample_negatives")
    rng = np.random.default_rng(rng_seed)
    out = []
    for p in positives.tolist():
        chosen = set()
        budget = 1000 * count_per_positive
        for j in range(count_per_positive):
            neg, budget = _corrupt(rng, p, j % 3, sizes, known, chosen, budget,
                                   "sample_negatives")
            out.append(neg)
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def sample_training_negatives(positives: np.ndarray, rng_seed: int,
                              sizes: tuple[int, int, int],
                              known_positives=None) -> np.ndarray:
    """One negative per positive row, the corrupted slot cycling across positives.

    Keeps the three corruption slots balanced over the whole training set,
    which a per-positive count of 1 cannot do.  No negative repeats, and
    each positive gets 1000 draws.
    """
    known = _known_keys(positives, sizes, known_positives, "sample_training_negatives")
    rng = np.random.default_rng(rng_seed)
    chosen = set()
    return np.array([_corrupt(rng, p, i % 3, sizes, known, chosen, 1000,
                              "sample_training_negatives")[0]
                     for i, p in enumerate(positives.tolist())], dtype=np.int64)


@dataclass
class SplitPlan:
    """Test/CV partition of the positive triplet ids, plus fold boundaries."""
    test: list[str]
    folds: list[list[str]]
    seed: int

    def to_json(self) -> str:
        return json.dumps({"test": self.test, "folds": self.folds, "seed": self.seed},
                          indent=2, sort_keys=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "SplitPlan":
        """Read a split file; a missing key or a wrong type is an error naming it."""
        doc = load_json(path)
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


@dataclass(frozen=True)
class SplitConfig:
    """A run config's `split` block: the test slice's share and the CV fold count."""
    test_fraction: float = 0.1
    folds: int = 5

    def __post_init__(self):
        check_field_types(self)
        check_at_least(self, 2, "folds")  # CV trains on a fold besides the one it scores
        if not 0 <= self.test_fraction < 1:
            raise ValueError(f"test_fraction must lie in [0, 1), got {self.test_fraction!r}")


def make_split(ids: list[str], test_fraction: float = SplitConfig.test_fraction,
               folds: int = SplitConfig.folds, rng_seed: int = 0) -> SplitPlan:
    """Shuffle the positives' triplet ids, reserve the test slice, split the rest into folds."""
    n = len(ids)
    n_test = round(test_fraction * n)
    if n - n_test < folds:
        raise ValueError(f"make_split: {n - n_test} positives left after the test "
                         f"slice of {n_test} cannot fill {folds} folds")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(n)
    ids = [ids[i] for i in order]

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


def avg_node_degree(g: HetGraph, rows: np.ndarray) -> np.ndarray:
    """Mean degree of each (N, 3) triplet row's three nodes in the association graph."""
    return (g.degrees[GENE][rows[:, 0]] + g.degrees[MICROBE][rows[:, 1]]
            + g.degrees[DISEASE][rows[:, 2]]) / 3.0
