import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_set, random_graph, toy_graph
from hcmgnn.graph import (DISEASE, GENE, MICROBE, PAIR_KINDS, RELATIONS, EntityType,
                          HetGraph, SplitPlan, avg_node_degree, derive_positive_triplets,
                          load_edges, make_split, positives_by_id, sample_negatives,
                          sample_training_negatives)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_dataset(tmp_path, gm="", gd="", md=""):
    return (write(tmp_path / "gm.tsv", gm),
            write(tmp_path / "gd.tsv", gd),
            write(tmp_path / "md.tsv", md))


def test_single_row_materializes_both_directions(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\n")
    g = load_edges(gm, gd, md)
    assert edge_set(g, (GENE, MICROBE)) == {(0, 0)}
    assert edge_set(g, (MICROBE, GENE)) == {(0, 0)}
    assert len(g.edge_rows[(GENE, MICROBE)]) == len(g.edge_rows[(MICROBE, GENE)]) == 1


def test_edge_rows_are_the_distinct_pairs_lexsorted_read_only():
    # G-M unsorted with a duplicate and also given as M-G; M-D missing
    gm, mg, gd = [(2, 0), (0, 1), (2, 0), (1, 1)], [(1, 0), (0, 2), (2, 2)], [(1, 0), (0, 0)]
    g = HetGraph({GENE: ["g0", "g1", "g2"], MICROBE: ["m0", "m1", "m2"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): gm, (MICROBE, GENE): mg, (GENE, DISEASE): gd},
                 {GENE: np.eye(3), MICROBE: np.eye(3), DISEASE: np.eye(1)})
    gm_all = gm + [(v, u) for u, v in mg]
    expect = {(GENE, MICROBE): gm_all, (GENE, DISEASE): gd, (MICROBE, DISEASE): []}
    for (a, b), pairs in list(expect.items()):
        expect[(b, a)] = [(v, u) for u, v in pairs]
    for rel in RELATIONS:
        rows = g.edge_rows[rel]
        ref = np.array(sorted(set(expect[rel])), dtype=np.int64).reshape(-1, 2)
        assert np.array_equal(rows, ref), rel
        assert rows.dtype == np.int64 and rows.shape == ref.shape
        assert not rows.flags.writeable
    assert g.edge_rows[(MICROBE, DISEASE)].shape == (0, 2)


def test_empty_relation_file_is_valid(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\n", gd="g1\td1\n")
    g = load_edges(gm, gd, md)
    assert edge_set(g, (MICROBE, DISEASE)) == set()
    assert g.num_nodes(DISEASE) == 1


def test_duplicate_edges_deduplicated_with_count(tmp_path, caplog):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\ng1\tm1\ng1\tm1\n")
    with caplog.at_level(logging.WARNING):
        g = load_edges(gm, gd, md)
    assert len(g.edge_rows[(GENE, MICROBE)]) == 1
    assert "2 duplicate" in caplog.text


def test_malformed_row_reports_line_number(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\ng2\n")
    with pytest.raises(ValueError, match=":2"):
        load_edges(gm, gd, md)


def test_pipe_in_node_id_rejected_with_line(tmp_path):
    # 'a|b'+'c' and 'a'+'b|c' would both give the triplet id 'a|b|c|...'
    gm, gd, md = write_dataset(tmp_path, gm="a\tb|c\na|b\tc\n")
    with pytest.raises(ValueError, match=r"gm\.tsv:1: node id contains '\|'"):
        load_edges(gm, gd, md)
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\n", md="m1\td|1\n")
    with pytest.raises(ValueError, match=r"md\.tsv:1"):
        load_edges(gm, gd, md)


def test_feature_loading_and_fallbacks(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\ng2\tm1\n", gd="g1\td1\n",
                               md="m1\td1\n")
    feat = write(tmp_path / "genes.csv", "id,f1,f2\ng1,0.5,1.5\ng2,-1.0,2.0\n")
    g = load_edges(gm, gd, md, feature_paths={GENE: feat})
    assert np.allclose(g.features[GENE], [[0.5, 1.5], [-1.0, 2.0]])
    # no file: identity one-hot
    assert np.array_equal(g.features[MICROBE], np.eye(1))
    assert np.array_equal(g.features[DISEASE], np.eye(1))


def test_partial_feature_file_gets_onehot_columns(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\ng2\tm1\ng3\tm1\n")
    feat = write(tmp_path / "genes.csv", "id,f1\ng1,7.0\n")
    g = load_edges(gm, gd, md, feature_paths={GENE: feat})
    x = g.features[GENE]
    assert x.shape == (3, 3)  # 1 supplied column + 2 indicator columns
    assert x[0, 0] == 7.0 and x[1, 1] == 1.0 and x[2, 2] == 1.0


def test_feature_rows_for_unknown_ids_ignored_with_warning(tmp_path, caplog):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\n")
    feat = write(tmp_path / "genes.csv", "id,f1\ng1,1.0\nghost,2.0\n")
    with caplog.at_level(logging.WARNING):
        g = load_edges(gm, gd, md, feature_paths={GENE: feat})
    assert "ignored 1" in caplog.text
    assert g.features[GENE].shape == (1, 1)


def test_inconsistent_feature_width_rejected(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\n")
    feat = write(tmp_path / "genes.csv", "id,f1,f2\ng1,1.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_edges(gm, gd, md, feature_paths={GENE: feat})


@pytest.mark.parametrize("text", ["id\ng1\ng2\n", "id\n", "id\r\ng1\r\n"],
                         ids=["rows", "header-only", "crlf"])
def test_feature_file_without_feature_columns_rejected_at_its_header(tmp_path, text):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\ng2\tm1\n")
    feat = tmp_path / "genes.csv"
    feat.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match=r"genes\.csv:1: the header names no feature column"):
        load_edges(gm, gd, md, feature_paths={GENE: str(feat)})


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_feature_value_rejected_with_line(tmp_path, value):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\ng2\tm1\n")
    feat = write(tmp_path / "genes.csv", f"id,f1,f2\ng1,0.5,1.5\ng2,-1.0,{value}\n")
    with pytest.raises(ValueError, match=r"genes\.csv:3: non-finite feature value"):
        load_edges(gm, gd, md, feature_paths={GENE: feat})


@pytest.mark.parametrize("absent", [False, True], ids=["in-graph", "absent-from-edges"])
def test_repeated_feature_id_rejected_with_both_lines(tmp_path, absent):
    gm, gd, md = write_dataset(tmp_path, gm="g0\tm1\ng2\tm1\n")
    node = "g9" if absent else "g0"
    feat = write(tmp_path / "genes.csv", f"id,f1\n{node},1.0\ng2,0.5\n{node},2.0\n")
    with pytest.raises(ValueError,
                       match=rf"genes\.csv:4: id '{node}' repeats the row of line 2"):
        load_edges(gm, gd, md, feature_paths={GENE: feat})


def test_non_numeric_feature_value_rejected_with_line(tmp_path):
    gm, gd, md = write_dataset(tmp_path, gm="g1\tm1\n")
    feat = write(tmp_path / "genes.csv", "id,f1\ng1,abc\n")
    with pytest.raises(ValueError, match=r"genes\.csv:2: could not convert .*'abc'"):
        load_edges(gm, gd, md, feature_paths={GENE: feat})


def test_single_triangle():
    g = HetGraph({GENE: ["g1"], MICROBE: ["m1"], DISEASE: ["d1"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    assert derive_positive_triplets(g).tolist() == [[0, 0, 0]]


def test_open_path_is_not_a_triangle():
    g = HetGraph({GENE: ["g1"], MICROBE: ["m1"], DISEASE: ["d1"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    pos = derive_positive_triplets(g)
    assert pos.shape == (0, 3) and pos.dtype == np.int64


def brute_force_triangles(g):
    gm, gd, md = (edge_set(g, kind) for kind in PAIR_KINDS)
    out = []
    for gi in range(g.num_nodes(GENE)):
        for mi in range(g.num_nodes(MICROBE)):
            for di in range(g.num_nodes(DISEASE)):
                if (gi, mi) in gm and (gi, di) in gd and (mi, di) in md:
                    out.append((gi, mi, di))
    return out


def test_triangles_match_brute_force_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_graph(rng, 20, 15, 18, p=0.25)
        rows = derive_positive_triplets(g)
        assert rows.dtype == np.int64 and rows.shape[1] == 3
        got = list(map(tuple, rows.tolist()))
        assert got == brute_force_triangles(g)
        assert got == sorted(got)


def test_negative_slots_cycle_evenly():
    g = toy_graph()
    pos = derive_positive_triplets(g)
    big = HetGraph({GENE: [f"g{i}" for i in range(20)],
                    MICROBE: [f"m{i}" for i in range(20)],
                    DISEASE: [f"d{i}" for i in range(20)]},
                   {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                    (MICROBE, DISEASE): [(0, 0)]},
                   {t: np.eye(20) for t in (GENE, MICROBE, DISEASE)})
    pos = derive_positive_triplets(big)
    negs = sample_negatives(pos, 30, rng_seed=0, sizes=big.sizes)
    assert negs.shape == (30, 3) and negs.dtype == np.int64
    diff = negs != pos[0]
    assert (diff.sum(axis=1) == 1).all()  # exactly one corrupted slot
    assert diff.sum(axis=0).tolist() == [10, 10, 10]


def test_forced_negative_outcome():
    g = HetGraph({GENE: ["g0", "g1"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {GENE: np.eye(2), MICROBE: np.eye(1), DISEASE: np.eye(1)})
    pos = derive_positive_triplets(g)
    for seed in range(5):
        negs = sample_negatives(pos, 1, rng_seed=seed, sizes=g.sizes)
        assert negs.tolist() == [[1, 0, 0]]


def test_negatives_never_positive_and_never_duplicated():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 12, 10, 10, p=0.35)
    pos = derive_positive_triplets(g)
    keys = set(map(tuple, pos.tolist()))
    for seed in (0, 1, 2):
        negs = sample_negatives(pos, 7, rng_seed=seed, sizes=g.sizes)
        assert negs.shape == (7 * len(pos), 3)
        for i in range(len(pos)):
            mine = list(map(tuple, negs[i * 7:(i + 1) * 7].tolist()))
            assert len(set(mine)) == 7
            assert not keys.intersection(mine)


def test_negative_sampling_exhaustion_names_positive():
    g = HetGraph({GENE: ["g0"], MICROBE: ["m0", "m1"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0), (0, 1)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0), (1, 0)]},
                 {GENE: np.eye(1), MICROBE: np.eye(2), DISEASE: np.eye(1)})
    pos = derive_positive_triplets(g)
    assert len(pos) == 2  # universe is exactly the positive set plus nothing
    with pytest.raises(ValueError, match="universe"):
        sample_negatives(pos, 1, rng_seed=0, sizes=g.sizes)


def test_negative_draws_running_out_name_the_positive():
    # one triangle; its only gene-slot corruption is itself, so slot 0 never succeeds
    g = HetGraph({GENE: ["g0"], MICROBE: ["m0", "m1"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {GENE: np.eye(1), MICROBE: np.eye(2), DISEASE: np.eye(1)})
    pos = derive_positive_triplets(g)
    assert pos.tolist() == [[0, 0, 0]] and np.prod(g.sizes) == 2
    with pytest.raises(RuntimeError, match=r"sample_negatives: .*positive \(0,0,0\)"):
        sample_negatives(pos, 1, rng_seed=0, sizes=g.sizes)
    with pytest.raises(RuntimeError,
                       match=r"sample_training_negatives: .*positive \(0,0,0\)"):
        sample_training_negatives(pos, 0, g.sizes)


def test_training_negatives_balance_slots_globally():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 15, 12, 12, p=0.3)
    pos = derive_positive_triplets(g)
    negs = sample_training_negatives(pos, 4, g.sizes)
    assert negs.shape == pos.shape and negs.dtype == np.int64
    diff = negs != pos
    assert (diff.sum(axis=1) == 1).all()
    slots = diff.sum(axis=0)
    assert max(slots) - min(slots) <= 1


def test_positives_by_id_keys_each_positive_by_its_id_in_order(tiny_graph):
    by_id = positives_by_id(tiny_graph)
    pos = derive_positive_triplets(tiny_graph)
    assert list(by_id.values()) == list(map(tuple, pos.tolist()))
    assert list(by_id) == tiny_graph.triplet_id(pos)
    assert list(by_id)[0] == "g0|m0|d0"


def test_split_arithmetic_and_determinism():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 120, 110, 115, p=0.0)
    ids = g.triplet_id(np.repeat(np.arange(100), 3).reshape(100, 3))
    plan = make_split(ids, rng_seed=9)
    assert len(plan.test) == 10
    assert [len(f) for f in plan.folds] == [18, 18, 18, 18, 18]
    assert plan == make_split(ids, rng_seed=9)
    assert plan != make_split(ids, rng_seed=10)


def test_split_is_partition():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 40, 40, 40, p=0.0)
    i = np.arange(37)
    ids = g.triplet_id(np.stack([i, (i * 7) % 40, (i * 3) % 40], axis=1))
    plan = make_split(ids, rng_seed=4)
    buckets = [plan.test] + plan.folds
    flat = [tid for b in buckets for tid in b]
    assert len(flat) == len(set(flat)) == 37
    assert set(flat) == set(ids)


def test_split_requires_enough_positives(tiny_graph):
    ids = list(positives_by_id(tiny_graph))
    with pytest.raises(ValueError):
        make_split(ids[:3], folds=5, rng_seed=0)


def test_split_checks_fold_sizes_after_the_test_slice():
    ids = [f"g{i}|m{i}|d{i}" for i in range(10)]
    # 5 positives hold 5 folds, but not once half of them go to the test slice
    with pytest.raises(ValueError, match="cannot fill 5 folds"):
        make_split(ids[:5], test_fraction=0.5, folds=5, rng_seed=0)
    plan = make_split(ids, test_fraction=0.5, folds=5, rng_seed=0)
    assert [len(f) for f in plan.folds] == [1, 1, 1, 1, 1]


def test_split_plan_file_round_trip(tmp_path):
    plan = SplitPlan(test=["a|b|c"], folds=[["d|e|f"], ["g|h|i"]], seed=3)
    path = tmp_path / "split.json"
    path.write_text(plan.to_json(), encoding="utf-8")
    assert SplitPlan.load(path) == plan


@pytest.mark.parametrize("doc, message", [
    ({"folds": []}, "has no 'test'"),
    ({"test": [], "seed": 0}, "has no 'folds'"),
    ({"test": [], "folds": [["a|b|c"]]}, "has no 'seed'"),
    ({"test": "a|b|c", "folds": [["d|e|f"]], "seed": 0}, "'test' must be a list"),
    ({"test": [], "folds": ["d|e|f"], "seed": 0}, "'folds' must be a list of lists"),
    ({"test": [], "folds": [[1, 2]], "seed": 0}, "'folds' must be a list of lists"),
    ({"test": [], "folds": [["d|e|f"]], "seed": "0"}, "'seed' must be an integer"),
    ({"test": [], "folds": [["d|e|f"]], "seed": True}, "'seed' must be an integer"),
    ([["a|b|c"]], "is a JSON object"),
], ids=["no-test", "no-folds", "no-seed", "test-str", "folds-flat", "fold-ints",
        "seed-str", "seed-bool", "not-object"])
def test_split_file_with_missing_or_mistyped_key_rejected(tmp_path, doc, message):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message) as err:
        SplitPlan.load(path)
    assert str(path) in str(err.value)


def test_split_file_that_is_not_json_names_the_file(tmp_path):
    path = write(tmp_path / "split.json", '{"test": [')
    with pytest.raises(ValueError, match="not valid JSON") as err:
        SplitPlan.load(path)
    assert path in str(err.value)


def test_feature_rows_must_match_node_count():
    feats = {GENE: np.eye(3), MICROBE: np.eye(1), DISEASE: np.eye(1)}
    with pytest.raises(ValueError, match="gene features have 3 rows for 2 nodes"):
        HetGraph({GENE: ["g0", "g1"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)]}, feats)


def test_triangle_degrees_average_two():
    g = HetGraph({GENE: ["g1"], MICROBE: ["m1"], DISEASE: ["d1"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {t: np.eye(1) for t in (GENE, MICROBE, DISEASE)})
    assert avg_node_degree(g, derive_positive_triplets(g)).tolist() == [2.0]


def test_isolated_node_contributes_zero_degree():
    g = HetGraph({GENE: ["g0", "g_iso"], MICROBE: ["m0"], DISEASE: ["d0"]},
                 {(GENE, MICROBE): [(0, 0)], (GENE, DISEASE): [(0, 0)],
                  (MICROBE, DISEASE): [(0, 0)]},
                 {GENE: np.eye(2), MICROBE: np.eye(1), DISEASE: np.eye(1)})
    neg = np.array([[1, 0, 0]])
    assert avg_node_degree(g, neg).tolist() == pytest.approx([(0 + 2 + 2) / 3])


def degree(g, t, v):
    """Distinct cross-type neighbours of node v of type t, one relation's edge rows at a
    time: the per-node walk that `HetGraph.degrees` replaces, kept as its oracle."""
    total = 0
    for rel in RELATIONS:
        if rel[0] is t:
            heads = g.edge_rows[rel][:, 0]
            total += heads.searchsorted(v + 1) - heads.searchsorted(v)
    return total


def test_degrees_of_nodes_without_edges_are_zero():
    g = HetGraph({GENE: ["g0", "g_iso"], MICROBE: ["m0", "m1"], DISEASE: ["d0", "d_iso"]},
                 {(GENE, MICROBE): [(0, 1), (0, 0)], (GENE, DISEASE): [],
                  (MICROBE, DISEASE): [(1, 0)]},
                 {GENE: np.eye(2), MICROBE: np.eye(2), DISEASE: np.eye(2)})
    assert {t: g.degrees[t].tolist() for t in EntityType} == {
        GENE: [2, 0], MICROBE: [1, 2], DISEASE: [1, 0]}
    for t in EntityType:
        assert g.degrees[t].dtype == np.int64
        assert g.degrees[t].tolist() == [degree(g, t, v) for v in range(g.num_nodes(t))]


def test_degrees_match_the_per_node_walk_on_random_graphs():
    rng = np.random.default_rng(8)
    isolated = 0
    for _ in range(12):
        g = random_graph(rng, *rng.integers(1, 25, size=3), p=rng.uniform(0.02, 0.3))
        for t in EntityType:
            assert g.degrees[t].shape == (g.num_nodes(t),)
            assert g.degrees[t].tolist() == [degree(g, t, v) for v in range(g.num_nodes(t))]
            isolated += int((g.degrees[t] == 0).sum())
    assert isolated > 0   # the sparse graphs leave nodes without edges


def test_avg_node_degree_of_no_rows_is_empty(tiny_graph):
    got = avg_node_degree(tiny_graph, np.zeros((0, 3), dtype=np.int64))
    assert got.shape == (0,) and got.dtype == np.float64


def test_degree_matches_adjacency_recount():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 14, 11, 9, p=0.3)
    rows = derive_positive_triplets(g)[:20]
    want = []
    for p in rows.tolist():
        expected = 0
        for t, v in zip(EntityType, p):
            seen = set()
            for a, b in RELATIONS:
                if a is t:
                    seen.update((b, w) for u, w in edge_set(g, (a, b)) if u == v)
            expected += len(seen)
        want.append(expected / 3)
    assert avg_node_degree(g, rows).tolist() == pytest.approx(want)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bidirectionality_exact_transposes(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 6, 5, 4, p=0.4)
    for a, b in RELATIONS:
        fwd = edge_set(g, (a, b))
        rev = {(v, u) for u, v in edge_set(g, (b, a))}
        assert fwd == rev
