"""Acceptance gate: each test pins one release criterion and prints a verdict."""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import edge_set, index_of, toy_graph
from gradcheck import grad_check
from hcmgnn import training
from hcmgnn.cli import main as cli_main
from hcmgnn.evaluation import make_case, rank_metrics
from hcmgnn.graph import (DISEASE, GENE, MICROBE, HetGraph, derive_positive_triplets,
                          load_edges, make_split, positives_by_id)
from hcmgnn.metapath import causal_metapaths, enumerate_instance_rows
from hcmgnn.model import ModelCache, ModelConfig, forward, init_params
from hcmgnn.synthetic import generate_synthetic
from hcmgnn.training import (TrainConfig, loss_fn, resolve_split, run_cv, run_test,
                             train_for_test)

PLANTED = dict(n_genes=40, n_microbes=30, n_diseases=30,
               latent_dim=8, edge_density_target=0.15, rng_seed=7)
ACCEPT_MODEL = dict(proj_dim=16, heads=4, fusion_dim=32, mlp_hidden=128)
SPLIT_SEED = 101
TRAIN_SEED = 11


def verdict(n, ok, detail):
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def planted():
    ds = generate_synthetic(**PLANTED)
    plan = make_split(list(positives_by_id(ds.graph)), rng_seed=SPLIT_SEED)
    return ds.graph, plan


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    g = toy_graph(seed=0)
    pos = derive_positive_triplets(g)
    neg = [(0, 1, 0), (0, 1, 1), (1, 1, 0)]
    samples = np.concatenate([pos, neg])
    labels = np.repeat([1.0, 0.0], [len(pos), len(neg)])
    cfg = ModelConfig(proj_dim=4, heads=2, fusion_dim=5, mlp_hidden=6)
    cache = ModelCache(g, cfg.variant)
    params = init_params(cache, cfg, 1)
    tensors = list(params.tensors.values())
    index = index_of(samples)

    def full_loss(*_):
        return loss_fn(forward(cache, params, index).scores, labels, 0.7)

    report = grad_check(full_loss, tensors, h=1e-6, tol=1e-4)
    elapsed = time.perf_counter() - start
    verdict(1, report.passed and elapsed < 60.0,
            f"full-loss finite differences over {report.n_checked} coordinates, "
            f"max relative error {report.max_rel_error:.2e} (tol 1e-4), "
            f"{elapsed:.1f}s (< 60s)")


def brute_force_rows(g, p):
    sizes = [g.num_nodes(t) for t in p.types]
    a1 = np.zeros((sizes[0], sizes[1]), dtype=bool)
    for u, v in edge_set(g, p.relations[0]):
        a1[u, v] = True
    a2 = np.zeros((sizes[1], sizes[2]), dtype=bool)
    for u, v in edge_set(g, p.relations[1]):
        a2[u, v] = True
    return sorted(map(tuple, np.argwhere(a1[:, :, None] & a2[None, :, :]).tolist()))


def test_criterion_2_enumeration_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    paths = {p.name: p for p in causal_metapaths()}
    mirrors = [("G-M-D", "D-M-G"), ("G-D-M", "M-D-G"), ("D-G-M", "M-G-D")]
    checked = 0
    for _ in range(20):
        sizes = rng.integers(5, 51, size=3)
        node_ids = {GENE: [f"g{i}" for i in range(sizes[0])],
                    MICROBE: [f"m{i}" for i in range(sizes[1])],
                    DISEASE: [f"d{i}" for i in range(sizes[2])]}
        edges = {}
        for kind, (na, nb) in [((GENE, MICROBE), (sizes[0], sizes[1])),
                               ((GENE, DISEASE), (sizes[0], sizes[2])),
                               ((MICROBE, DISEASE), (sizes[1], sizes[2]))]:
            mask = rng.uniform(size=(na, nb)) < rng.uniform(0.05, 0.3)
            edges[kind] = [(int(i), int(j)) for i, j in np.argwhere(mask)]
        g = HetGraph(node_ids, edges, {GENE: np.eye(sizes[0]),
                                       MICROBE: np.eye(sizes[1]),
                                       DISEASE: np.eye(sizes[2])})
        rows = {}
        for p in causal_metapaths():
            got = enumerate_instance_rows(g, p)
            rows[p.name] = got
            assert sorted(map(tuple, got.tolist())) == brute_force_rows(g, p)
            checked += got.shape[0]
        for a, b in mirrors:
            assert (sorted(map(tuple, rows[a][:, ::-1].tolist()))
                    == sorted(map(tuple, rows[b].tolist())))
    elapsed = time.perf_counter() - start
    verdict(2, elapsed < 30.0,
            f"20 random graphs, 6 metapaths each matched brute force "
            f"({checked} instances) with exact mirror reversals, "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_3_normalization_suite():
    g = toy_graph(seed=1)
    samples = [(0, 0, 0), (1, 1, 1)]
    cfg = ModelConfig(proj_dim=4, heads=2, fusion_dim=5, mlp_hidden=6)
    cache = ModelCache(g, cfg.variant)
    worst = 0.0
    for seed in range(100):
        params = init_params(cache, cfg, seed)
        out = forward(cache, params, index_of(samples))
        # every (path, node) segment of every head's column of alpha sums to 1
        seg = cache.pair_paths * cache.total_nodes + cache.pair_nodes
        assert out.attention.shape == (seg.size, cfg.heads) and seg.size > 0
        for alpha in out.attention.T:
            sums = np.zeros(len(cache.metapaths) * cache.total_nodes)
            np.add.at(sums, seg, alpha)
            worst = max(worst, np.abs(sums[np.unique(seg)] - 1.0).max())
        for beta in out.fusion_weights.values():
            worst = max(worst, abs(beta.sum() - 1.0))
    verdict(3, worst <= 1e-9,
            f"alpha and beta sums over 100 random-parameter seeds deviate "
            f"from 1 by at most {worst:.1e} (tol 1e-9)")


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(99)
    # NDCG@1 == Hit@1 on arbitrary case sets
    for trial in range(50):
        ranks = []
        for i in range(rng.integers(1, 40)):
            scores = rng.uniform(size=31)
            ids = [f"{trial}|{i}|{j}" for j in range(31)]
            ranks.append(make_case(ids[0], ids[1:], scores))
        m = rank_metrics(ranks)
        assert m["ndcg1"] == m["hit1"]
    # uniform-random scorer expectations over >= 2000 trials
    ranks = []
    for i in range(2500):
        scores = rng.uniform(size=31)
        ids = [f"u|{i}|{j}" for j in range(31)]
        ranks.append(make_case(ids[0], ids[1:], scores))
    m = rank_metrics(ranks)
    hit1_err = abs(m["hit1"] - 1 / 31)
    mrr_err = abs(m["mrr"] - sum(1 / k for k in range(1, 32)) / 31)
    verdict(4, hit1_err <= 0.01 and mrr_err <= 0.01,
            f"NDCG@1 == Hit@1 identically; uniform scorer over 2500 trials: "
            f"Hit@1 off by {hit1_err:.4f}, MRR off by {mrr_err:.4f} (tol 0.01)")


def test_criterion_5_learnability(planted):
    g, plan = planted
    split = resolve_split(g, plan, "split")
    start = time.perf_counter()
    results = {}
    for variant in ("full", "woTM"):
        cfg = ModelConfig(variant=variant, **ACCEPT_MODEL)
        tcfg = TrainConfig(seed=TRAIN_SEED, max_epochs=800)
        params, report, cache = train_for_test(g, split, cfg, tcfg)
        ranks, _, _ = run_test(g, split, cache, params, tcfg.seed)
        results[variant] = rank_metrics(ranks)["mrr"]
    elapsed = time.perf_counter() - start
    ok = results["full"] >= 0.39 and results["full"] > results["woTM"] \
        and elapsed < 600.0
    verdict(5, ok,
            f"planted-data test MRR: full {results['full']:.4f} (>= 0.39, "
            f"3x the 0.13 random expectation) vs woTM {results['woTM']:.4f}, "
            f"{elapsed:.0f}s (< 600s)")


def test_criterion_6_protocol_fidelity(monkeypatch):
    ds = generate_synthetic(20, 16, 16, 4, 0.2, rng_seed=3)
    g = ds.graph
    plan = make_split(list(positives_by_id(g)), rng_seed=13)
    cfg = ModelConfig(proj_dim=4, heads=2, fusion_dim=5, mlp_hidden=6)
    tcfg = TrainConfig(seed=21, max_epochs=3, patience=50)
    split = resolve_split(g, plan, "split")  # the leakage audit runs inside
    pool_shapes = []
    build = training.build_ranking_set

    def recorded_build(*args):
        rset = build(*args)
        pool_shapes.append(rset.before.shape)
        return rset

    monkeypatch.setattr(training, "build_ranking_set", recorded_build)
    result = run_cv(g, split, cfg, tcfg)

    assert len(result.folds) == 5
    assert sorted(pool_shapes) == sorted((len(f), 1 + 30) for f in split.fold_positives)
    for fold, positives in zip(result.folds, split.fold_positives):
        assert fold.n_train_neg == fold.n_train_pos
        assert fold.report.best_ranks.shape == (len(positives),)

    params, _, cache = train_for_test(g, split, cfg, tcfg)
    ranks, test_set, _ = run_test(g, split, cache, params, tcfg.seed)
    assert test_set.before.shape == (len(split.test_positives), 1 + 30) == (len(ranks), 31)
    assert all(len(ids) == 31 for ids in test_set.candidate_ids)

    test_ids = set(plan.test)
    leaked = sum(len(test_ids.intersection(fold)) for fold in plan.folds)
    verdict(6, leaked == 0,
            "5 folds, train negatives == train positives per fold, every "
            "validation/test positive ranked against exactly 30 negatives, "
            f"{leaked} leaked test ids")


def test_criterion_7_cv_determinism(tmp_path):
    config = {
        "seed": 5,
        "out": str(tmp_path / "runA"),
        "synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                      "latent_dim": 4, "edge_density": 0.2, "rng_seed": 3},
        "model": {"proj_dim": 4, "heads": 2, "fusion_dim": 5, "mlp_hidden": 6},
        "train": {"max_epochs": 3, "patience": 50},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["cv", "--config", str(cfg_path)]) == 0
    metrics_path = os.path.join(config["out"], "metrics", "cv.json")
    first = Path(metrics_path).read_bytes()
    assert cli_main(["cv", "--config", str(cfg_path)]) == 0
    second = Path(metrics_path).read_bytes()
    verdict(7, first == second,
            f"two cmd_cv executions produced byte-identical metrics JSON "
            f"({len(first)} bytes)")


def test_criterion_8_published_dataset_ingestion():
    root = os.environ.get("HCMGNN_DATASET_DIR")
    if not root:
        print("CRITERION 8 SKIP: published dataset not supplied "
              "(set HCMGNN_DATASET_DIR to run)")
        pytest.skip("published dataset files not supplied")
    g = load_edges(os.path.join(root, "gene_microbe.tsv"),
                   os.path.join(root, "gene_disease.tsv"),
                   os.path.join(root, "microbe_disease.tsv"))
    sizes = g.sizes
    n_pos = len(derive_positive_triplets(g))
    ok = sizes == (301, 176, 153) and n_pos == 3431
    verdict(8, ok, f"ingestion found {sizes[0]} genes, {sizes[1]} microbes, "
                   f"{sizes[2]} diseases, {n_pos} positive triplets "
                   f"(expected 301/176/153 and 3431)")
