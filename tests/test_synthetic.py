from pathlib import Path

import numpy as np
import pytest

from conftest import edge_set
from hcmgnn.graph import (GENE, MICROBE, DISEASE, RELATIONS, derive_positive_triplets,
                          load_edges)
from hcmgnn.synthetic import CalibrationError, generate_synthetic


def test_same_seed_byte_identical_files(tmp_path):
    d1 = generate_synthetic(10, 8, 8, 4, 0.2, rng_seed=5, out_dir=str(tmp_path / "a"))
    d2 = generate_synthetic(10, 8, 8, 4, 0.2, rng_seed=5, out_dir=str(tmp_path / "b"))
    assert sorted(d1.files) == sorted(d2.files)
    for name in d1.files:
        assert Path(d1.files[name]).read_bytes() == Path(d2.files[name]).read_bytes()


def test_different_seed_changes_output(tmp_path):
    d1 = generate_synthetic(10, 8, 8, 4, 0.2, rng_seed=5, out_dir=str(tmp_path / "a"))
    d2 = generate_synthetic(10, 8, 8, 4, 0.2, rng_seed=6, out_dir=str(tmp_path / "b"))
    blobs1 = b"".join(Path(d1.files[n]).read_bytes() for n in sorted(d1.files))
    blobs2 = b"".join(Path(d2.files[n]).read_bytes() for n in sorted(d2.files))
    assert blobs1 != blobs2


def test_zero_density_limit_has_no_edges():
    ds = generate_synthetic(8, 8, 8, 4, 0.2, rng_seed=0, bias=-1e9)
    assert all(len(e) == 0 for e in ds.graph.edge_rows.values())
    assert derive_positive_triplets(ds.graph).shape == (0, 3)


def test_realized_density_within_ten_percent():
    for seed in (0, 1, 2):
        ds = generate_synthetic(40, 30, 30, 8, 0.15, rng_seed=seed)
        assert abs(ds.realized_density - 0.15) <= 0.015


def test_planted_dataset_triangle_expectation():
    counts = [len(derive_positive_triplets(
        generate_synthetic(40, 30, 30, 8, 0.15, rng_seed=s).graph))
        for s in range(10)]
    assert np.mean(counts) >= 50


def test_calibration_failure_reports_achieved_density():
    with pytest.raises(CalibrationError, match="achieved"):
        generate_synthetic(8, 8, 8, 4, 1e-9, rng_seed=0)


def test_written_files_reload_to_same_graph(tmp_path):
    ds = generate_synthetic(12, 10, 9, 4, 0.25, rng_seed=8, out_dir=str(tmp_path))
    g2 = load_edges(ds.files["edges_gene_microbe.tsv"],
                    ds.files["edges_gene_disease.tsv"],
                    ds.files["edges_microbe_disease.tsv"],
                    feature_paths={GENE: ds.files["features_gene.csv"],
                                   MICROBE: ds.files["features_microbe.csv"],
                                   DISEASE: ds.files["features_disease.csv"]})
    g1 = ds.graph
    index2 = {t: {v: i for i, v in enumerate(g2.node_ids[t])} for t in (GENE, MICROBE, DISEASE)}
    # node sets can differ only by isolated nodes, which have no edges
    for rel in RELATIONS:
        reloaded = {(index2[rel[0]][g1.node_ids[rel[0]][u]],
                     index2[rel[1]][g1.node_ids[rel[1]][v]])
                    for u, v in edge_set(g1, rel)}
        assert reloaded == edge_set(g2, rel)
    # features round-trip exactly through repr()
    for t in (GENE, MICROBE, DISEASE):
        for nid in g2.node_ids[t]:
            i1 = g1.node_ids[t].index(nid)
            i2 = index2[t][nid]
            assert np.array_equal(g1.features[t][i1], g2.features[t][i2])
    # the same triangles, by id
    ids1, ids2 = (g.triplet_id(derive_positive_triplets(g)) for g in (g1, g2))
    assert ids1 and sorted(ids1) == sorted(ids2)


def test_size_and_density_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 5, 5, 4, 0.2, rng_seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(5, 5, 5, 4, 1.5, rng_seed=0)
    with pytest.raises(ValueError, match="latent_dim must be >= 1"):
        generate_synthetic(5, 5, 5, 0, 0.2, rng_seed=0)
