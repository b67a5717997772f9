"""Ranking metrics, degree stratification, silhouette, embedding export.

Each evaluated positive is ranked inside its own candidate pool (itself
plus sampled negatives).  Ties are resolved by descending score then
ascending candidate id, which makes every metric reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

METRIC_KEYS = ("hit1", "hit3", "hit5", "ndcg1", "ndcg3", "ndcg5", "mrr")


def rank_pools(scores, before) -> np.ndarray:
    """1-based rank of each pool's positive (column 0) under the tie rule.

    `scores` and `before` are pools x candidates; `before[i, j]` is true
    where candidate j's id sorts before pool i's positive id.  A candidate
    outranks its positive on a higher score, or on an equal score and an
    earlier id.
    """
    s = np.asarray(scores, dtype=np.float64)
    s0 = s[:, :1]
    return 1 + (s > s0).sum(axis=1) + ((s == s0) & before).sum(axis=1)


def make_case(positive_id, negative_ids, scores) -> int:
    """The rank of one pool's positive, its scores listed positive first.

    One pool through `rank_pools`; `perfbench/probes.py` traces this name.
    """
    ids = [positive_id] + list(negative_ids)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != len(ids):
        raise ValueError(f"make_case: {len(ids)} candidates but {scores.shape[0]} scores")
    if not np.isfinite(scores).all():
        raise ValueError(f"make_case: non-finite score among the candidates of {positive_id}")
    before = np.array([cid < positive_id for cid in ids])
    return int(rank_pools(scores[None], before[None])[0])


def rank_metrics(ranks) -> dict[str, float]:
    """Hit@{1,3,5}, NDCG@{1,3,5} (single relevant item) and MRR of 1-based ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("rank_metrics: no ranks")
    out = {}
    for n in (1, 3, 5):
        hit = ranks <= n
        out[f"hit{n}"] = float(hit.mean())
        out[f"ndcg{n}"] = float(np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0).mean())
    out["mrr"] = float((1.0 / ranks).mean())
    return out


@dataclass
class StratumReport:
    threshold: float
    count: int
    hit1: float | None


# Cumulative degree strata in `default_thresholds`
STRATA = 12


def default_thresholds(degrees) -> list[float]:
    """`STRATA` cumulative thresholds at the empirical avg-degree quantiles.

    Coincident quantiles are nudged so the list is strictly increasing and
    always has `STRATA` entries.
    """
    qs = np.arange(1, STRATA + 1) / STRATA
    out = [float(x) for x in np.quantile(np.asarray(degrees, dtype=np.float64), qs)]
    for i in range(1, STRATA):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] + 1e-9
    return out


def stratify_by_degree(degrees, ranks, thresholds) -> list[StratumReport]:
    """Hit@1 inside each cumulative interval (0, N] of average node degree.

    `degrees[i]` is the average node degree of the positive ranked `ranks[i]`.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    ranks = np.asarray(ranks)
    if degrees.shape != ranks.shape:
        raise ValueError(f"stratify_by_degree: {degrees.size} degrees for {ranks.size} ranks")
    thresholds = list(thresholds)
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("stratify_by_degree: thresholds must be strictly increasing")
    reports = []
    for n in thresholds:
        hit = ranks[(degrees > 0.0) & (degrees <= n)] == 1
        reports.append(StratumReport(threshold=float(n), count=int(hit.size),
                                     hit1=float(hit.mean()) if hit.size else None))
    return reports


# Rows per block of the distance matrix; a block of 256 rows by n columns
# is all of the matrix held at once.
_BLOCK_ROWS = 256
# A squared distance at most this share of |x_i|^2 + |x_j|^2 has lost most of
# its digits to cancellation in the Gram form and is recomputed exactly.
_CANCEL_SHARE = 1e-6


def silhouette(embeddings, labels) -> float:
    """Mean silhouette over two classes with Euclidean distance.

    A point in a singleton class gets silhouette 0 (with a warning), and
    0/0 from coincident points resolves to 0.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    classes = np.unique(y)
    if classes.size != 2:
        raise ValueError(f"silhouette: need exactly 2 classes, got {classes.size}")
    col = (y == classes[1]).astype(np.intp)     # each point's class, 0 or 1
    member = np.eye(2)[col]                     # n x 2 one-hot of the classes
    counts = member.sum(axis=0)
    for cls, count in zip(classes, counts):
        if count == 1:
            logger.warning("silhouette: class %r has a single point, scored 0", cls)

    # Distances by row block from the Gram expansion |x|^2 + |y|^2 - 2 x.y.
    # Where d^2 is at most _CANCEL_SHARE of |x|^2 + |y|^2 the expansion has
    # cancelled (a duplicate row can come out nonzero), so those pairs, the
    # diagonal among them, take the exact ((x - y)**2).sum(); coincident
    # points are then exactly 0 apart.  Each block's distances are summed
    # per class by one product with `member`.
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", x, x)
    sums = np.empty((n, 2))
    for lo in range(0, n, _BLOCK_ROWS):
        block = x[lo:lo + _BLOCK_ROWS]
        norms = sq[lo:lo + _BLOCK_ROWS, None] + sq
        d2 = block @ x.T
        d2 *= -2.0
        d2 += norms
        rows, cols = np.nonzero(d2 <= _CANCEL_SHARE * norms)
        # exact differences in chunks no larger than the block, however
        # many pairs cancel (collapsed embeddings cancel everywhere)
        step = max(1, d2.size // x.shape[1])
        for s in range(0, rows.size, step):
            r, c = rows[s:s + step], cols[s:s + step]
            d2[r, c] = ((block[r] - x[c]) ** 2).sum(axis=1)
        sums[lo:lo + _BLOCK_ROWS] = np.sqrt(d2) @ member

    own = np.arange(n), col
    other = np.arange(n), 1 - col
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[own] / (counts[col] - 1)
        b = sums[other] / counts[1 - col]
        denom = np.maximum(a, b)
        scores = np.where((counts[col] > 1) & (denom > 0.0), (b - a) / denom, 0.0)
    return float(scores.mean())


def export_embeddings(path, triplet_ids, labels, tables, index):
    """TSV rows `id<TAB>label<TAB>v1..vd`; floats round-trip exactly.

    Row i's vector is the concatenation of `tables[k][index[k][i]]` over
    the per-type node tables (gene, microbe, disease).  Each node's row is
    formatted once, and each TSV row is joined from the cached strings.
    """
    tables = [np.asarray(t, dtype=np.float64) for t in tables]
    index = [np.asarray(idx, dtype=np.int64) for idx in index]
    n = len(triplet_ids)
    if len(labels) != n or len(index) != len(tables) or any(i.shape != (n,) for i in index):
        raise ValueError(f"export_embeddings: {n} ids, {len(labels)} labels and index "
                         f"arrays of shapes {[i.shape for i in index]} for {len(tables)} "
                         "tables must align")
    if n and any(i.min() < 0 or i.max() >= len(t) for t, i in zip(tables, index)):
        raise ValueError("export_embeddings: an index is out of range for its table")
    cached = [["\t".join(map(repr, row)) for row in t.tolist()] for t in tables]
    with open(path, "w", encoding="utf-8") as fh:
        for tid, label, *rows in zip(triplet_ids, labels, *(idx.tolist() for idx in index)):
            vals = "\t".join(c[r] for c, r in zip(cached, rows))
            fh.write(f"{tid}\t{int(label)}\t{vals}\n")
