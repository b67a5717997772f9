import numpy as np
import pytest

from hcmgnn import model
from hcmgnn.graph import DISEASE, GENE, MICROBE, HetGraph
from hcmgnn.model import forward, score_triplets


def index_of(rows):
    """The 3 x N (genes, microbes, diseases) index of (g, m, d) rows that the head scores."""
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3).T.copy()


def forward_scores(cache, params, index):
    """`forward`, then the MLP head on its embeddings: the output and the scores of `index`."""
    out = forward(cache, params)
    return out, score_triplets(out.embeddings, params, index)


def forward_views(cache, params):
    """`forward`'s output and each metapath's V x D views, by name.

    The views are what `model.instance_attention` returns inside that forward,
    split into one block of rows per path.
    """
    attend, views = model.instance_attention, []

    def recorded(*args, **kwargs):
        result = attend(*args, **kwargs)
        views.append(result[0].data)
        return result

    model.instance_attention = recorded
    try:
        out = forward(cache, params)
    finally:
        model.instance_attention = attend
    (stacked,) = views
    return out, dict(zip([p.name for p in cache.metapaths],
                         np.split(stacked, len(cache.metapaths))))


def resolve_rank(scores, candidate_ids, positive_index: int = 0) -> int:
    """1-based rank under the (score desc, candidate id asc) ordering, one candidate at a time.

    The oracle of the tie rule that `evaluation.rank_pools` computes over whole arrays.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos_score = scores[positive_index]
    pos_id = candidate_ids[positive_index]
    rank = 1
    for j, (s, cid) in enumerate(zip(scores, candidate_ids)):
        if j == positive_index:
            continue
        if s > pos_score or (s == pos_score and cid < pos_id):
            rank += 1
    return rank


def edge_set(g, rel):
    """The (u, v) pairs of relation `rel` as a set of int tuples."""
    return set(map(tuple, g.edge_rows[rel].tolist()))


def toy_graph(seed=0, feat_dim=3):
    """2 genes, 2 microbes, 2 diseases; 3 triangles worth of structure."""
    rng = np.random.default_rng(seed)
    node_ids = {GENE: ["g0", "g1"], MICROBE: ["m0", "m1"], DISEASE: ["d0", "d1"]}
    edges = {
        (GENE, MICROBE): [(0, 0), (1, 0), (1, 1)],
        (GENE, DISEASE): [(0, 0), (1, 1)],
        (MICROBE, DISEASE): [(0, 0), (0, 1), (1, 1)],
    }
    feats = {t: rng.normal(size=(2, feat_dim)) for t in (GENE, MICROBE, DISEASE)}
    return HetGraph(node_ids, edges, feats)


def random_graph(rng, n_g, n_m, n_d, p=0.3, feat_dim=4):
    node_ids = {GENE: [f"g{i}" for i in range(n_g)],
                MICROBE: [f"m{i}" for i in range(n_m)],
                DISEASE: [f"d{i}" for i in range(n_d)]}
    edges = {}
    for kind, (na, nb) in [((GENE, MICROBE), (n_g, n_m)),
                           ((GENE, DISEASE), (n_g, n_d)),
                           ((MICROBE, DISEASE), (n_m, n_d))]:
        mask = rng.uniform(size=(na, nb)) < p
        edges[kind] = [(int(i), int(j)) for i, j in np.argwhere(mask)]
    feats = {GENE: rng.normal(size=(n_g, feat_dim)),
             MICROBE: rng.normal(size=(n_m, feat_dim)),
             DISEASE: rng.normal(size=(n_d, feat_dim))}
    return HetGraph(node_ids, edges, feats)


def load_embeddings(path):
    """An exported embedding TSV read back as (ids, labels, vectors)."""
    ids, labels, vectors = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            ids.append(parts[0])
            labels.append(int(parts[1]))
            vectors.append([float(v) for v in parts[2:]])
    return ids, np.array(labels), np.array(vectors, dtype=np.float64)


@pytest.fixture
def tiny_graph():
    return toy_graph()
