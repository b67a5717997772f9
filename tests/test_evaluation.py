import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_embeddings, resolve_rank
from hcmgnn.evaluation import (default_thresholds, export_embeddings, make_case,
                               rank_metrics, rank_pools, silhouette, stratify_by_degree)


def case_with_rank(rank):
    """31 candidates; the positive's score places it at `rank` exactly."""
    scores = np.linspace(1.0, 0.0, 31)
    ids = [f"neg{i:02d}" for i in range(31)]
    ids[rank - 1] = "aaa|pos"  # unique lowest id, safe under ties
    scores = np.concatenate([[scores[rank - 1]],
                             np.delete(scores, rank - 1)])
    ids = [ids[rank - 1]] + [i for j, i in enumerate(ids) if j != rank - 1]
    return make_case(ids[0], ids[1:], scores)


def test_case_with_rank_ranks_exactly():
    assert [case_with_rank(r) for r in range(1, 32)] == list(range(1, 32))


def test_rank_one_contributions():
    m = rank_metrics([case_with_rank(1)])
    assert m["hit1"] == m["ndcg1"] == m["ndcg3"] == m["mrr"] == 1.0


def test_rank_two_ndcg():
    m = rank_metrics([case_with_rank(2)])
    assert m["hit1"] == 0.0
    assert m["ndcg3"] == pytest.approx(1.0 / np.log2(3.0))
    assert m["mrr"] == pytest.approx(0.5)


def test_resolve_rank_tie_rule():
    scores = [0.5, 0.9, 0.5, 0.5]
    ids = ["b|pos", "neg1", "a|neg", "c|neg"]
    # one higher score, one equal score with smaller id
    assert resolve_rank(scores, ids) == 3
    before = np.array([[cid < ids[0] for cid in ids]])
    assert rank_pools(np.array([scores]), before).tolist() == [3]


@pytest.mark.parametrize("seed", range(5))
def test_rank_pools_matches_the_oracle_under_heavy_ties(seed):
    # three score values, 0.0 and -0.0 among them, so most candidates tie
    rng = np.random.default_rng(seed)
    n_pools, width = 400, 31
    scores = rng.choice(np.array([0.0, -0.0, 0.25]), size=(n_pools, width))
    scores[:40] = rng.choice(np.array([0.0, -0.0]), size=(40, 1))   # every candidate ties
    scores[40:60] = 0.25
    ids = [[f"g{rng.integers(50)}|m{rng.integers(50)}|d{k}" for k in rng.permutation(width)]
           for _ in range(n_pools)]
    before = np.array([[cid < pool[0] for cid in pool] for pool in ids])
    ranks = rank_pools(scores, before)
    assert ranks.tolist() == [resolve_rank(s, pool) for s, pool in zip(scores, ids)]
    assert ranks.tolist() == [make_case(pool[0], pool[1:], s) for s, pool in zip(scores, ids)]
    assert {int(r) for r in ranks[:60]} != {1}   # the all-tied pools rank by id, not all first


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 31), min_size=1, max_size=40))
def test_ndcg1_equals_hit1(ranks):
    m = rank_metrics([case_with_rank(r) for r in ranks])
    assert m == rank_metrics(ranks)
    assert m["ndcg1"] == m["hit1"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 31), min_size=1, max_size=40))
def test_metric_orderings(ranks):
    m = rank_metrics([case_with_rank(r) for r in ranks])
    assert 0 <= m["hit1"] <= m["hit3"] <= m["hit5"] <= 1
    assert m["hit1"] <= m["mrr"] <= 1


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    ranks, ranks_tx = [], []
    for i in range(50):
        scores = rng.uniform(size=31)
        ids = [f"{i}|{j}" for j in range(31)]
        ranks.append(make_case(ids[0], ids[1:], scores))
        ranks_tx.append(make_case(ids[0], ids[1:], np.exp(3 * scores) + 7))
    assert rank_metrics(ranks) == rank_metrics(ranks_tx)


def test_uniform_random_scorer_expectations():
    rng = np.random.default_rng(123)
    ranks = []
    for i in range(2000):
        scores = rng.uniform(size=31)
        ids = [f"{i}|{j}" for j in range(31)]
        ranks.append(make_case(ids[0], ids[1:], scores))
    m = rank_metrics(ranks)
    h31 = sum(1.0 / k for k in range(1, 32))
    assert m["hit1"] == pytest.approx(1 / 31, abs=0.01)
    assert m["hit5"] == pytest.approx(5 / 31, abs=0.02)
    assert m["mrr"] == pytest.approx(h31 / 31, abs=0.01)


def test_all_tied_scores_rank_by_id_order():
    rng = np.random.default_rng(5)
    hits = []
    for i in range(3000):
        ids = [f"{rng.integers(10**9):09d}" for _ in range(31)]
        rank = make_case(ids[0], ids[1:], np.full(31, 0.5))
        assert rank == resolve_rank(np.full(31, 0.5), ids)
        hits.append(1.0 if rank == 1 else 0.0)
    assert np.mean(hits) == pytest.approx(1 / 31, abs=0.01)


def test_rank_metrics_rejects_empty():
    with pytest.raises(ValueError):
        rank_metrics([])


# ---- stratification ----

def test_single_wide_stratum_matches_global():
    ranks, degrees = [1, 2, 1, 4], [2.0, 5.0, 9.0, 3.5]
    reports = stratify_by_degree(degrees, ranks, [10.0])
    global_hit1 = rank_metrics(ranks)["hit1"]
    assert reports[0].count == 4
    assert reports[0].hit1 == pytest.approx(global_hit1)


def test_empty_stratum_reports_null():
    reports = stratify_by_degree([3.0, 3.0], [1, 2], [2.0, 4.0])
    assert reports[0].count == 0 and reports[0].hit1 is None
    assert reports[1].count == 2 and reports[1].hit1 == pytest.approx(0.5)


def test_strata_counts_nondecreasing():
    rng = np.random.default_rng(1)
    degrees = rng.uniform(1, 20, size=60)
    ranks = rng.integers(1, 31, size=60)
    reports = stratify_by_degree(degrees, ranks, default_thresholds(degrees))
    assert len(reports) == 12
    counts = [r.count for r in reports]
    assert counts == sorted(counts)
    assert counts[-1] == 60


def test_default_thresholds_always_twelve_even_with_ties():
    thresholds = default_thresholds([3.0] * 20)
    assert len(thresholds) == 12
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))


def test_thresholds_must_increase():
    with pytest.raises(ValueError):
        stratify_by_degree([3.0], [1], [3.0, 3.0])


def test_stratify_rejects_misaligned_degrees_and_ranks():
    with pytest.raises(ValueError, match="2 degrees for 3 ranks"):
        stratify_by_degree([3.0, 4.0], [1, 2, 1], [5.0])


# ---- silhouette ----

def test_silhouette_separated_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 0.05, size=(40, 3))
    b = rng.normal(0, 0.05, size=(40, 3)) + 10.0
    x = np.vstack([a, b])
    y = np.array([0] * 40 + [1] * 40)
    assert silhouette(x, y) > 0.9


def test_silhouette_random_labels_near_zero():
    rng = np.random.default_rng(7)
    scores = []
    for _ in range(10):
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, size=60)
        if len(np.unique(y)) < 2:
            continue
        scores.append(silhouette(x, y))
    assert abs(np.mean(scores)) < 0.1


def test_silhouette_coincident_points_zero():
    x = np.ones((8, 2))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert silhouette(x, y) == 0.0


def test_silhouette_singleton_class_scores_zero(caplog):
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.1, 0.0]])
    y = np.array([0, 1, 1])
    with caplog.at_level(logging.WARNING):
        s = silhouette(x, y)
    assert "single point" in caplog.text
    # singleton contributes 0; the other two are far from the singleton
    assert 0.0 < s < 1.0


def test_silhouette_matches_sklearn():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(0, 1, size=(30, 5)),
                   rng.normal(2, 1, size=(25, 5))])
    y = np.array([0] * 30 + [1] * 25)
    assert silhouette(x, y) == pytest.approx(
        sklearn_metrics.silhouette_score(x, y), abs=1e-12)


def _silhouette_full_matrix(embeddings, labels) -> float:
    """The n x n distance-matrix silhouette from exact differences: the oracle."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    classes = np.unique(y)
    dist = np.empty((x.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        dist[i] = np.sqrt(((x - x[i]) ** 2).sum(axis=1))

    scores = np.zeros(x.shape[0])
    for cls in classes:
        own = np.nonzero(y == cls)[0]
        other = np.nonzero(y != cls)[0]
        if own.size == 1:
            continue
        for i in own:
            a = dist[i, own].sum() / (own.size - 1)
            b = dist[i, other].mean()
            denom = max(a, b)
            scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


@pytest.mark.parametrize("n,d,singleton", [(2, 1, True), (37, 3, False),
                                           (64, 192, False), (90, 16, True),
                                           (600, 24, False)])
def test_silhouette_within_bound_of_full_matrix(n, d, singleton):
    # the Gram form sums in another order than the oracle, so equality is
    # bounded, not bitwise; n = 600 ends in a partial row block
    rng = np.random.default_rng(n * 1000 + d)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    if singleton:
        y[:] = 0
        y[n // 2] = 1
    if n > 6:
        # coincident points, within a class and across the two classes
        x[n - 1] = x[n - 2] = x[1]
        x[3] = x[0]
        # near-duplicates, offset by a relative 1e-9 and 1e-7
        x[5] = x[2] * (1.0 + 1e-9)
        x[6] = x[2] * (1.0 + 1e-7)
    assert abs(silhouette(x, y) - _silhouette_full_matrix(x, y)) <= 1e-12


@pytest.mark.parametrize("row", [[0.1, 0.3, 0.7], [0.3, 0.5, 1.0]])
def test_silhouette_identical_irregular_rows_score_zero(row):
    # the Gram form can leave identical rows apart by a few ulps of their
    # norm (it does for the second row), so the exact fallback is what
    # makes these distances, and the score, exactly 0
    x = np.tile(row, (8, 1))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert silhouette(x, y) == 0.0


def test_silhouette_requires_two_classes():
    with pytest.raises(ValueError):
        silhouette(np.ones((3, 2)), np.array([1, 1, 1]))


# ---- export ----

def export_case(rng, n=20):
    """Gene, microbe and disease tables of 4, 3 and 5 columns, and n triplets
    over them with every node used more than once."""
    tables = [rng.normal(size=(rows, cols)) for rows, cols in ((6, 4), (5, 3), (4, 5))]
    index = tuple(rng.integers(0, t.shape[0], size=n) for t in tables)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    return [f"g{i}|m{i}|d{i}" for i in range(n)], labels, tables, index


def rowwise_export(path, ids, labels, tables, index):
    """The export as it ran before node rows were cached: one `repr` per
    float of each triplet's concatenated vector."""
    vecs = np.concatenate([t[i] for t, i in zip(tables, index)], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        for tid, label, row in zip(ids, labels, vecs.tolist()):
            fh.write(f"{tid}\t{int(label)}\t" + "\t".join(map(repr, row)) + "\n")


def test_export_matches_the_rowwise_reference_byte_for_byte(tmp_path):
    ids, labels, tables, index = export_case(np.random.default_rng(5), n=40)
    tables[0][0, :] = [-0.0, 0.0, 5e-324, -5e-324]
    tables[1][1, :] = [1e308, -1e308, 2.2250738585072014e-308]
    tables[2][2, :] = [-1e308, 1e-310, -0.0, 1.0 / 3.0, -2.5e-320]
    for t, i in zip(tables, index):
        i[:3] = [0, 1, 2]   # the special rows above are exported, twice over
        i[3:6] = [0, 1, 2]
    export_embeddings(tmp_path / "cached.tsv", ids, labels, tables, index)
    rowwise_export(tmp_path / "rowwise.tsv", ids, labels, tables, index)
    assert (tmp_path / "cached.tsv").read_bytes() == (tmp_path / "rowwise.tsv").read_bytes()


def test_export_round_trip(tmp_path):
    ids, labels, tables, index = export_case(np.random.default_rng(2))
    vecs = np.concatenate([t[i] for t, i in zip(tables, index)], axis=1)
    path = tmp_path / "emb.tsv"
    export_embeddings(path, ids, labels, tables, index)
    rid, rlab, rvec = load_embeddings(path)
    assert rid == ids
    assert np.array_equal(rlab, labels)
    assert np.array_equal(rvec, vecs)  # repr() round-trips float64 exactly
    assert abs(silhouette(rvec, rlab) - silhouette(vecs, labels)) < 1e-9


def test_export_validates_alignment(tmp_path):
    ids, labels, tables, index = export_case(np.random.default_rng(3))
    g, m, d = index
    bad = {"ids": (ids[:-1], labels, index), "labels": (ids, labels[1:], index),
           "short-index": (ids, labels, (g, m[:-1], d)), "two-indices": (ids, labels, (g, m)),
           "index-past-end": (ids, labels, (g, m + 5, d)),
           "negative-index": (ids, labels, (g, m, d - 4))}
    for case, (bad_ids, bad_labels, bad_index) in bad.items():
        path = tmp_path / f"{case}.tsv"
        with pytest.raises(ValueError, match="export_embeddings"):
            export_embeddings(path, bad_ids, bad_labels, tables, bad_index)
        assert not path.exists(), case


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_make_case_rejects_non_finite_scores_naming_the_positive(bad, where):
    # a NaN positive used to rank first: every comparison with NaN is False
    scores = [0.5, 0.9, 0.1]
    scores[where] = bad
    with pytest.raises(ValueError, match="non-finite score among the candidates of g1|m2|d3"):
        make_case("g1|m2|d3", ["a", "b"], scores)
