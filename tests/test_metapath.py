import numpy as np
import pytest

import hcmgnn.metapath as mp
from conftest import edge_set, random_graph, toy_graph
from hcmgnn.graph import DISEASE, GENE, MICROBE, HetGraph, derive_positive_triplets
from hcmgnn.metapath import (InstanceExplosion, Metapath, ablation_metapaths,
                             causal_metapaths, dump_instances,
                             enumerate_instance_rows)


def involving(rows, p, t, v):
    """Indices of the instance rows holding node v in a position of type t."""
    cols = [i for i, u in enumerate(p.types) if u is t]
    return np.flatnonzero((rows[:, cols] == v).any(axis=1)).tolist()


def test_six_causal_paths_in_canonical_order():
    paths = causal_metapaths()
    assert [p.name for p in paths] == ["G-M-D", "G-D-M", "D-M-G",
                                       "D-G-M", "M-D-G", "M-G-D"]
    assert len(set(p.name for p in paths)) == 6
    assert paths[0].relations == ((GENE, MICROBE), (MICROBE, DISEASE))
    assert paths[0].types[::-1] == paths[2].types


def test_subgraph_holds_the_two_relation_edge_sets(tiny_graph):
    p = causal_metapaths()[4]  # M-D-G
    assert p.relations == ((MICROBE, DISEASE), (DISEASE, GENE))
    rows = enumerate_instance_rows(tiny_graph, p).tolist()
    assert rows
    for m, d, g in rows:
        assert (m, d) in edge_set(tiny_graph, (MICROBE, DISEASE))
        assert (d, g) in edge_set(tiny_graph, (DISEASE, GENE))


def test_subgraph_with_missing_relations_is_empty():
    g = HetGraph({GENE: ["g0"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): []},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    p = causal_metapaths()[0]  # G-M-D
    assert [edge_set(g, r) for r in p.relations] == [set(), set()]
    assert enumerate_instance_rows(g, p).shape == (0, 3)


def test_enumeration_rejects_unknown_kind(tiny_graph):
    with pytest.raises(ValueError):
        enumerate_instance_rows(tiny_graph, Metapath((GENE, MICROBE, DISEASE), "causal-4"))
    with pytest.raises(ValueError):
        ablation_metapaths("causal-4")


def test_each_relation_used_by_exactly_two_causal_paths():
    from collections import Counter
    counts = Counter(rel for p in causal_metapaths() for rel in p.relations)
    assert len(counts) == 6
    assert all(c == 2 for c in counts.values())


def test_single_triangle_instances():
    g = HetGraph({GENE: ["g1"], MICROBE: ["m1"], DISEASE: ["d1"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    for p in causal_metapaths():
        assert enumerate_instance_rows(g, p).tolist() == [[0, 0, 0]]


def test_join_over_shared_intermediate():
    g = HetGraph({GENE: ["g1", "g2"], MICROBE: ["m1"], DISEASE: ["d1"]},
                 {(GENE, MICROBE): [(0, 0), (1, 0)], (GENE, DISEASE): [],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {GENE: np.eye(2), MICROBE: np.eye(1), DISEASE: np.eye(1)})
    rows = enumerate_instance_rows(g, causal_metapaths()[0])
    assert rows.tolist() == [[0, 0, 0], [1, 0, 0]]


def brute_force_rows(g, p):
    """Full grid scan over the node triple, independent of the join code."""
    sizes = [g.num_nodes(t) for t in p.types]
    a1 = np.zeros((sizes[0], sizes[1]), dtype=bool)
    for u, v in edge_set(g, p.relations[0]):
        a1[u, v] = True
    a2 = np.zeros((sizes[1], sizes[2]), dtype=bool)
    for u, v in edge_set(g, p.relations[1]):
        a2[u, v] = True
    hits = a1[:, :, None] & a2[None, :, :]
    return sorted(map(tuple, np.argwhere(hits).tolist()))


def test_enumeration_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(4):
        g = random_graph(rng, 18, 22, 30, p=0.2)
        for p in causal_metapaths():
            got = sorted(map(tuple, enumerate_instance_rows(g, p).tolist()))
            assert got == brute_force_rows(g, p)


def test_enumeration_is_lexicographically_sorted_and_deterministic():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 10, 10, 10, p=0.4)
    p = causal_metapaths()[0]
    rows = enumerate_instance_rows(g, p).tolist()
    assert rows == sorted(rows)
    assert rows == enumerate_instance_rows(g, p).tolist()


def test_mirror_paths_are_exact_reversals():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 12, 11, 10, p=0.3)
    paths = {p.name: p for p in causal_metapaths()}
    for a, b in [("G-M-D", "D-M-G"), ("G-D-M", "M-D-G"), ("D-G-M", "M-G-D")]:
        fwd = enumerate_instance_rows(g, paths[a])
        rev = enumerate_instance_rows(g, paths[b])
        assert sorted(map(tuple, fwd[:, ::-1].tolist())) == sorted(map(tuple, rev.tolist()))


def test_every_triangle_appears_once_per_subgraph():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 10, 9, 8, p=0.35)
    triangles = derive_positive_triplets(g)
    for p in causal_metapaths():
        rows = {tuple(r) for r in enumerate_instance_rows(g, p).tolist()}
        pos = {GENE: 0, MICROBE: 1, DISEASE: 2}
        order = [pos[t] for t in p.types]
        for key in triangles.tolist():
            assert tuple(key[i] for i in order) in rows


def test_instances_involving_membership(tiny_graph):
    p = causal_metapaths()[0]
    rows = enumerate_instance_rows(tiny_graph, p)
    expect = [i for i, r in enumerate(rows.tolist()) if r[1] == 0]
    assert expect
    assert involving(rows, p, MICROBE, 0) == expect


def test_node_without_edges_has_no_instances():
    g = HetGraph({GENE: ["g0", "g_lonely"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {GENE: np.eye(2), MICROBE: np.eye(1), DISEASE: np.eye(1)})
    p = causal_metapaths()[0]
    rows = enumerate_instance_rows(g, p)
    assert involving(rows, p, GENE, 1) == []


def test_membership_total_is_three_per_instance():
    rng = np.random.default_rng(17)
    g = random_graph(rng, 8, 8, 8, p=0.4)
    for p in causal_metapaths():
        rows = enumerate_instance_rows(g, p)
        total = 0
        for t in (GENE, MICROBE, DISEASE):
            for v in range(g.num_nodes(t)):
                total += len(involving(rows, p, t, v))
        assert total == 3 * rows.shape[0]


def test_symmetric5_family():
    paths = ablation_metapaths("symmetric-5")
    names = {p.name for p in paths}
    assert names == {"G-M-D-M-G", "G-D-M-D-G", "M-G-D-G-M",
                     "M-D-G-D-M", "D-G-M-G-D", "D-M-G-M-D"}
    for p in paths:
        assert tuple(reversed(p.types)) == p.types


def test_pairwise2_family_instances_are_edge_sets(tiny_graph):
    paths = ablation_metapaths("pairwise-2")
    assert {p.name for p in paths} == {"G-M", "M-G", "G-D", "D-G", "M-D", "D-M"}
    gm = next(p for p in paths if p.name == "G-M")
    rows = enumerate_instance_rows(tiny_graph, gm)
    assert set(map(tuple, rows.tolist())) == edge_set(tiny_graph, (GENE, MICROBE))


def test_symmetric5_matches_walk_oracle():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 5, 5, 5, p=0.45)
    p = next(q for q in ablation_metapaths("symmetric-5") if q.name == "G-M-D-M-G")
    got = sorted(map(tuple, enumerate_instance_rows(g, p).tolist()))
    expect = []
    gm = edge_set(g, (GENE, MICROBE))
    md = edge_set(g, (MICROBE, DISEASE))
    for a in range(5):
        for b in range(5):
            if (a, b) not in gm:
                continue
            for c in range(5):
                if (b, c) not in md:
                    continue
                for d in range(5):
                    if (d, c) not in md:
                        continue
                    for e in range(5):
                        if (e, d) in gm:
                            expect.append((a, b, c, d, e))
    assert got == sorted(expect)


def test_instance_explosion_guard(monkeypatch):
    rng = np.random.default_rng(1)
    g = random_graph(rng, 10, 10, 10, p=0.8)
    monkeypatch.setattr(mp, "MAX_INSTANCES", 10)
    with pytest.raises(InstanceExplosion):
        enumerate_instance_rows(g, causal_metapaths()[0])


def test_symmetric_five_join_has_its_own_explosion_guard(monkeypatch):
    rng = np.random.default_rng(1)
    g = random_graph(rng, 10, 10, 10, p=0.5)
    p = ablation_metapaths("symmetric-5")[0]  # G-M-D-M-G
    halves = [enumerate_instance_rows(g, Metapath(p.types[:3], "causal-3")).shape[0],
              enumerate_instance_rows(g, Metapath(p.types[2:], "causal-3")).shape[0]]
    full = enumerate_instance_rows(g, p).shape[0]
    assert max(halves) < full
    # both causal-3 halves fit, only the five-node join is over the limit
    monkeypatch.setattr(mp, "MAX_INSTANCES", max(halves))
    with pytest.raises(InstanceExplosion, match="G-M-D-M-G"):
        enumerate_instance_rows(g, p)
    monkeypatch.setattr(mp, "MAX_INSTANCES", full)
    assert enumerate_instance_rows(g, p).shape[0] == full


def test_instance_dump_format(tmp_path, tiny_graph):
    path = tmp_path / "instances.tsv"
    dump_instances(path, tiny_graph, causal_metapaths())
    lines = path.read_text().strip().split("\n")
    assert all(len(line.split("\t")) == 4 for line in lines)
    names = {line.split("\t")[0] for line in lines}
    assert names == {p.name for p in causal_metapaths()}
    # every dumped id resolves back to a node of the right type
    crows = enumerate_instance_rows(tiny_graph, causal_metapaths()[0])
    gmd = [l for l in lines if l.startswith("G-M-D\t")]
    assert len(gmd) == crows.shape[0]
