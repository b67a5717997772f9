import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import load_embeddings
from hcmgnn import cli, training
from hcmgnn.cli import build_graph, build_split, load_config, main
from hcmgnn.config import block_doc
from hcmgnn.graph import (GENE, MICROBE, DISEASE, HetGraph, derive_positive_triplets,
                          load_edges)

SMALL_MODEL = {"proj_dim": 4, "heads": 2, "fusion_dim": 5, "mlp_hidden": 6}
DROP = object()   # an override that leaves the key out of the config


def write_config(tmp_path, out_name="run", **overrides):
    doc = {
        "seed": 5,
        "out": str(tmp_path / out_name),
        "synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                      "latent_dim": 4, "edge_density": 0.2, "rng_seed": 3},
        "model": SMALL_MODEL,
        "train": {"max_epochs": 3, "patience": 50},
    }
    doc.update(overrides)
    doc = {key: value for key, value in doc.items() if value is not DROP}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), doc["out"]


def read_json(*parts):
    return json.loads(Path(*parts).read_text(encoding="utf-8"))


def test_synth_writes_files_and_manifest(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["synth", "--config", cfg]) == 0
    data = os.path.join(out, "data")
    names = sorted(os.listdir(data))
    assert "manifest.json" in names
    assert len([n for n in names if n.startswith("edges_")]) == 3
    assert len([n for n in names if n.startswith("features_")]) == 3

    manifest = read_json(data, "manifest.json")
    g = load_edges(os.path.join(data, "edges_gene_microbe.tsv"),
                   os.path.join(data, "edges_gene_disease.tsv"),
                   os.path.join(data, "edges_microbe_disease.tsv"))
    assert manifest["triangles"] == len(derive_positive_triplets(g))
    assert abs(manifest["realized_density"] - 0.2) <= 0.02


def test_synth_same_seed_identical_manifest(tmp_path):
    cfg1, out1 = write_config(tmp_path, out_name="a")
    main(["synth", "--config", cfg1])
    cfg2, out2 = write_config(tmp_path, out_name="b")
    main(["synth", "--config", cfg2])

    def digest(out):
        return hashlib.sha256(
            Path(out, "data", "manifest.json").read_bytes()).hexdigest()

    assert digest(out1) == digest(out2)


def test_cv_emits_five_folds_plus_mean_and_reruns_identically(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["cv", "--config", cfg]) == 0
    path = os.path.join(out, "metrics", "cv.json")
    first = Path(path).read_bytes()
    doc = json.loads(first)
    assert len(doc["folds"]) == 5
    assert doc["mean"]["fold"] == "mean"
    for rec in doc["folds"]:
        for key in ("hit1", "hit3", "hit5", "ndcg1", "ndcg3", "ndcg5", "mrr",
                    "epochs", "best_epoch"):
            assert key in rec
    for k in range(5):
        assert os.path.exists(os.path.join(out, "checkpoints", f"fold{k}.json"))

    assert main(["cv", "--config", cfg]) == 0
    assert Path(path).read_bytes() == first


def test_cv_threads_env_does_not_change_results(tmp_path):
    cfg, out = write_config(tmp_path, out_name="serial")
    main(["cv", "--config", cfg])
    serial = Path(out, "metrics", "cv.json").read_bytes()
    cfg2, out2 = write_config(tmp_path, out_name="parallel")
    os.environ["HCMGNN_THREADS"] = "3"
    try:
        main(["cv", "--config", cfg2])
    finally:
        del os.environ["HCMGNN_THREADS"]
    parallel = Path(out2, "metrics", "cv.json").read_bytes()
    assert serial == parallel


@pytest.mark.parametrize("command, value", [("cv", "abc"), ("cv", "0"), ("cv", "-2"),
                                            ("ablate", "1.5")])
def test_bad_threads_env_rejected_naming_it(tmp_path, monkeypatch, capsys, command, value):
    cfg, out = write_config(tmp_path)
    monkeypatch.setenv("HCMGNN_THREADS", value)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"HCMGNN_THREADS must be a positive integer, got {value!r}" in err, err
    # rejected before training: no metric or checkpoint file is written
    assert [f for sub in ("metrics", "checkpoints")
            for _, _, files in os.walk(os.path.join(out, sub)) for f in files] == []


def test_test_command_outputs(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["test", "--config", cfg]) == 0
    doc = read_json(out, "metrics", "test.json")
    assert set(doc["metrics"]) == {"hit1", "hit3", "hit5",
                                   "ndcg1", "ndcg3", "ndcg5", "mrr"}
    assert -1.0 <= doc["silhouette"] <= 1.0
    n_test = len(doc["ranks"])
    assert n_test > 0
    assert os.path.exists(os.path.join(out, "checkpoints", "test.json"))
    ids, labels, vecs = load_embeddings(os.path.join(out, "exports",
                                                     "test_embeddings.tsv"))
    assert len(ids) == n_test * 31
    assert vecs.shape[1] == 3 * SMALL_MODEL["heads"] * SMALL_MODEL["proj_dim"]
    assert labels.sum() == n_test


def test_ablate_emits_seven_rows_sharing_split(tmp_path):
    cfg, out = write_config(tmp_path, train={"max_epochs": 2, "patience": 50})
    assert main(["ablate", "--config", cfg]) == 0
    doc = read_json(out, "metrics", "ablation.json")
    rows = doc["rows"]
    assert [r["variant"] for r in rows] == ["full", "woMP-i", "woMP-ii",
                                            "woMP-iii", "woTM", "woAF", "woBF"]
    assert len({r["split_hash"] for r in rows}) == 1
    assert all(r["error"] is None for r in rows)
    assert all("mrr" in r for r in rows)


def test_stratify_last_stratum_matches_global_hit1(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["test", "--config", cfg])
    assert main(["stratify", "--config", cfg]) == 0
    doc = read_json(out, "metrics", "test.json")
    lines = Path(out, "metrics", "strata.tsv").read_text(encoding="utf-8").strip().split("\n")
    rows = [line.split("\t") for line in lines]
    assert len(rows) == 12
    counts = [int(r[1]) for r in rows]
    assert counts == sorted(counts)
    assert counts[-1] == len(doc["ranks"])
    assert float(rows[-1][2]) == pytest.approx(doc["metrics"]["hit1"])


def test_stratify_requires_checkpoint(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["stratify", "--config", cfg]) == 1


def test_instances_dump(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["instances", "--config", cfg]) == 0
    lines = Path(out, "exports", "instances.tsv").read_text(encoding="utf-8").strip().split("\n")
    names = {line.split("\t")[0] for line in lines}
    assert names == {"G-M-D", "G-D-M", "D-M-G", "D-G-M", "M-D-G", "M-G-D"}


def test_variant_and_seed_overrides(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["cv", "--config", cfg, "--variant", "woAF", "--seed", "9"]) == 0
    run = read_json(out, "run.json")
    assert run["model"]["variant"] == "woAF"
    assert run["seed"] == 9


def test_config_must_pick_exactly_one_source(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "out": str(tmp_path / "o"),
                                "model": {}, "train": {}}), encoding="utf-8")
    assert main(["cv", "--config", str(path)]) == 1


def test_run_config_is_written_without_timestamps(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["synth", "--config", cfg])
    run1 = Path(out, "run.json").read_bytes()
    main(["synth", "--config", cfg])
    assert Path(out, "run.json").read_bytes() == run1


def tampered_split_config(tmp_path, tamper):
    """write_config's config, with a split_file holding its split after `tamper`."""
    cfg_path, _ = write_config(tmp_path)
    cfg = load_config(cfg_path)
    g = build_graph(cfg)
    plan = build_split(cfg, g).plan
    tamper(plan)
    split_path = str(tmp_path / "split.json")
    plan.save(split_path)
    cfg_path, _ = write_config(tmp_path, split_file=split_path)
    return load_config(cfg_path), g, plan, split_path


def test_valid_split_file_loads_unchanged(tmp_path):
    cfg, g, plan, _ = tampered_split_config(tmp_path, lambda plan: None)
    assert build_split(cfg, g).plan == plan


def merge_folds(plan):
    plan.folds[:] = [[tid for fold in plan.folds for tid in fold]]


@pytest.mark.parametrize("tamper, error, message", [
    (lambda plan: plan.folds[0].append("g0|m0|d999"), ValueError,
     "fold 0 id .* not a known positive"),
    (lambda plan: plan.folds[1].append(plan.test[0]), RuntimeError,
     "leakage: test ids .* appear in fold 1"),
    (lambda plan: plan.folds[2].append(plan.folds[3][0]), ValueError,
     "appears more than once"),
    (lambda plan: plan.folds[4].clear(), ValueError, "fold 4 is empty"),
    (merge_folds, ValueError, "a split needs at least 2 folds, got 1"),
], ids=["unknown-id", "test-in-fold", "fold-overlap", "empty-fold", "one-fold"])
def test_bad_split_file_rejected_at_load(tmp_path, tamper, error, message):
    cfg, g, _, split_path = tampered_split_config(tmp_path, tamper)
    with pytest.raises(error, match=message) as err:
        build_split(cfg, g)
    assert str(err.value).startswith(f"{split_path}: ")


@pytest.mark.parametrize("from_file", [False, True], ids=["generated", "split-file"])
def test_build_split_derives_each_positive_id_once(tmp_path, monkeypatch, from_file):
    cfg, g, _, _ = tampered_split_config(tmp_path, lambda plan: None)
    if not from_file:
        cfg = load_config(write_config(tmp_path)[0])
    calls = []
    triplet_id = HetGraph.triplet_id

    def counted(self, rows):
        calls.extend(map(tuple, rows.tolist()))
        return triplet_id(self, rows)

    monkeypatch.setattr(HetGraph, "triplet_id", counted)
    build_split(cfg, g)
    assert sorted(calls) == sorted(map(tuple, derive_positive_triplets(g).tolist()))


@pytest.mark.parametrize("command", ["cv", "test", "stratify", "ablate"])
def test_each_command_resolves_the_split_once(tmp_path, monkeypatch, command):
    cfg, _ = write_config(tmp_path, train={"max_epochs": 1, "patience": 50})
    if command == "stratify":
        assert main(["test", "--config", cfg]) == 0
    calls = []
    resolve = training.resolve_split

    def counted(*args, **kwargs):
        calls.append(args[2])
        return resolve(*args, **kwargs)

    monkeypatch.setattr(training, "resolve_split", counted)
    monkeypatch.setattr(cli, "resolve_split", counted)
    assert main([command, "--config", cfg]) == 0
    assert calls == ["generated split"]


@pytest.mark.parametrize("override, key", [
    ({"spilt": {"folds": 5}}, "'spilt'"),
    ({"model": {**SMALL_MODEL, "hedas": 2}}, "'model.hedas'"),
    ({"train": {"max_epochs": 3, "patiense": 5}}, "'train.patiense'"),
    ({"train": {"max_epochs": 3, "seed": 4}}, "'train.seed'"),
    ({"split": {"folds": 5, "test_frac": 0.2}}, "'split.test_frac'"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "density": 0.2}}, "'synthetic.density'"),
], ids=["top", "model", "train", "train-seed", "split", "synthetic"])
def test_unknown_config_key_rejected(tmp_path, override, key):
    cfg_path, _ = write_config(tmp_path, **override)
    with pytest.raises(ValueError, match=f"unknown config key {key}") as err:
        load_config(cfg_path)
    assert cfg_path in str(err.value)


@pytest.mark.parametrize("override, message", [
    ({"model": {**SMALL_MODEL, "heads": 0}}, "model: heads must be >= 1"),
    ({"model": {**SMALL_MODEL, "fusion_dim": 0}}, "model: fusion_dim must be >= 1"),
    ({"model": {**SMALL_MODEL, "heads": "4"}}, "model: heads must be int, got '4'"),
    ({"model": {**SMALL_MODEL, "heads": True}}, "model: heads must be int, got True"),
    ({"model": {**SMALL_MODEL, "mlp_hidden": 6.0}}, "model: mlp_hidden must be int"),
    ({"model": {**SMALL_MODEL, "leaky_slope": "x"}}, "model: leaky_slope must be float"),
    ({"model": {**SMALL_MODEL, "leaky_slope": float("nan")}},
     "model: leaky_slope must be finite, got nan"),
    ({"model": {**SMALL_MODEL, "leaky_slope": float("inf")}},
     "model: leaky_slope must be finite, got inf"),
    ({"model": {**SMALL_MODEL, "leaky_slope": float("-inf")}},
     "model: leaky_slope must be finite, got -inf"),
    ({"train": {"max_epochs": 3, "patience": "x"}}, "train: patience must be int"),
    ({"train": {"max_epochs": False}}, "train: max_epochs must be int, got False"),
    ({"train": {"max_epochs": 3, "gamma": 2}}, r"train: gamma must lie in \[0, 1\]"),
    ({"train": {"max_epochs": 3, "val_metric": "auc"}}, "train: val_metric must be one of"),
    ({"train": {"max_epochs": 0}}, "train: max_epochs must be >= 1"),
    ({"train": {"max_epochs": -3}}, "train: max_epochs must be >= 1"),
    ({"train": {"max_epochs": 3, "lr": -1.0}}, "train: lr must be finite and > 0, got -1.0"),
    ({"train": {"max_epochs": 3, "lr": float("nan")}}, "train: lr must be finite and > 0"),
    ({"seed": 1.9}, "seed must be int, got 1.9"),
    ({"seed": "5"}, "seed must be int, got '5'"),
    ({"seed": True}, "seed must be int, got True"),
    ({"model": None}, "'model' must be a JSON object"),
    ({"train": None}, "'train' must be a JSON object"),
    ({"dataset": {"gene_microbe": "gm.tsv", "gene_disease": "gd.tsv",
                  "microbe_disease": "md.tsv"}},
     "config must contain exactly one of 'synthetic' or 'dataset'"),
    ({"out": 5}, "out must be str, got 5"),
    ({"out": ""}, "out must not be empty"),
    ({"split_file": ["s.json"]}, r"split_file must be str, got \['s.json'\]"),
    ({"synthetic": {"n_genes": "20", "n_microbes": 16, "n_diseases": 16}},
     "synthetic: n_genes must be int, got '20'"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16.0, "n_diseases": 16}},
     "synthetic: n_microbes must be int, got 16.0"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": True}},
     "synthetic: n_diseases must be int, got True"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "latent_dim": "4"}}, "synthetic: latent_dim must be int, got '4'"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "rng_seed": 3.5}}, "synthetic: rng_seed must be int, got 3.5"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "rng_seed": -1}}, "synthetic: rng_seed must be >= 0, got -1"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "edge_density": "0.2"}},
     "synthetic: edge_density must be float, got '0.2'"),
    ({"split": {"test_fraction": "0.1"}}, "split: test_fraction must be float, got '0.1'"),
    ({"split": {"folds": "5"}}, "split: folds must be int, got '5'"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16}},
     "missing config key 'synthetic.n_diseases'"),
    ({"synthetic": DROP, "dataset": {"gene_microbe": "gm.tsv", "microbe_disease": "md.tsv"}},
     "missing config key 'dataset.gene_disease'"),
    ({"split": {"folds": 0}}, "split: folds must be >= 2, got 0"),
    ({"split": {"folds": -2}}, "split: folds must be >= 2, got -2"),
    ({"split": {"folds": 1}}, "split: folds must be >= 2, got 1"),
    ({"split": {"test_fraction": -0.5}}, r"split: test_fraction must lie in \[0, 1\), got -0.5"),
    ({"split": {"test_fraction": 1}}, r"split: test_fraction must lie in \[0, 1\), got 1"),
    ({"synthetic": {"n_genes": 1, "n_microbes": 16, "n_diseases": 16}},
     "synthetic: n_genes must be >= 2, got 1"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 0, "n_diseases": 16}},
     "synthetic: n_microbes must be >= 2, got 0"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": -3}},
     "synthetic: n_diseases must be >= 2, got -3"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16, "latent_dim": 0}},
     "synthetic: latent_dim must be >= 1, got 0"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16, "latent_dim": -2}},
     "synthetic: latent_dim must be >= 1, got -2"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "edge_density": 1.5}},
     r"synthetic: edge_density must lie in \(0, 1\), got 1.5"),
    ({"synthetic": {"n_genes": 20, "n_microbes": 16, "n_diseases": 16,
                    "edge_density": 0}},
     r"synthetic: edge_density must lie in \(0, 1\), got 0"),
], ids=["heads-0", "fusion-0", "heads-str", "heads-bool", "hidden-float", "slope-str",
        "slope-nan", "slope-inf", "slope-minus-inf", "patience-str", "epochs-bool",
        "gamma-2", "metric-unknown", "epochs-0", "epochs-negative", "lr-negative", "lr-nan",
        "seed-float", "seed-str", "seed-bool", "model-null", "train-null",
        "synthetic-and-dataset", "out-int", "out-empty", "split-file-list", "n-genes-str",
        "n-microbes-float", "n-diseases-bool", "latent-dim-str", "rng-seed-float",
        "rng-seed-negative", "density-str", "test-fraction-str", "folds-str",
        "n-diseases-missing", "gene-disease-missing", "folds-0", "folds-negative", "folds-1",
        "test-fraction-negative", "test-fraction-1", "n-genes-1", "n-microbes-0",
        "n-diseases-negative", "latent-dim-0", "latent-dim-negative", "density-1.5",
        "density-0"])
def test_bad_config_value_names_the_file(tmp_path, capsys, override, message):
    cfg_path, _ = write_config(tmp_path, **override)
    with pytest.raises(ValueError, match=message) as err:
        load_config(cfg_path)
    assert str(err.value).startswith(f"{cfg_path}: ")
    assert main(["cv", "--config", cfg_path]) == 1
    assert f"error: {cfg_path}: " in capsys.readouterr().err


def test_unknown_dataset_key_rejected(tmp_path):
    doc = {"seed": 1, "out": str(tmp_path / "o"),
           "dataset": {"gene_microbe": "gm.tsv", "gene_disease": "gd.tsv",
                       "microbe_disease": "md.tsv", "features": {"gnee": "f.csv"}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'dataset.features.gnee'"):
        load_config(str(path))
    doc["dataset"]["feature"] = doc["dataset"].pop("features")
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'dataset.feature'"):
        load_config(str(path))


DATASET = {"gene_microbe": "gm.tsv", "gene_disease": "gd.tsv", "microbe_disease": "md.tsv"}


@pytest.mark.parametrize("value", [99, True, ["gm.tsv"]], ids=["int", "bool", "list"])
@pytest.mark.parametrize("key", ["gene_microbe", "gene_disease", "microbe_disease",
                                 "features.gene", "features.microbe", "features.disease"])
def test_dataset_path_must_be_a_string(tmp_path, key, value):
    # load_config only: a path that is no string once reached open() as a descriptor
    block, _, name = key.rpartition(".")
    dataset = {**DATASET, "features": {name: value}} if block else {**DATASET, name: value}
    cfg_path, _ = write_config(tmp_path, synthetic=DROP, dataset=dataset)
    with pytest.raises(ValueError) as err:
        load_config(cfg_path)
    where = "dataset.features" if block else "dataset"
    assert str(err.value) == f"{cfg_path}: {where}: {name} must be str, got {value!r}"


COMMANDS = ("synth", "cv", "test", "ablate", "stratify", "instances")


@pytest.mark.parametrize("command", COMMANDS)
def test_run_json_loads_back_to_the_same_config(tmp_path, command):
    cfg, out = write_config(tmp_path, train={"max_epochs": 1, "patience": 50})
    if command == "stratify":
        assert main(["test", "--config", cfg]) == 0
    assert main([command, "--config", cfg, "--seed", "9", "--variant", "woAF"]) == 0
    assert (load_config(os.path.join(out, "run.json"))
            == load_config(cfg, seed_override=9, variant_override="woAF"))


def test_dataset_run_json_loads_back_to_the_same_config(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["synth", "--config", cfg]) == 0
    data = os.path.join(out, "data")
    dataset = {key: os.path.join(data, f"edges_{key}.tsv") for key in DATASET}
    dataset["features"] = {"gene": os.path.join(data, "features_gene.csv")}
    cfg, out = write_config(tmp_path, out_name="real", synthetic=DROP, dataset=dataset,
                            split_file=str(tmp_path / "split.json"))
    assert main(["instances", "--config", cfg]) == 0
    # run.json writes the default split block beside the split file, and that reloads
    assert read_json(out, "run.json")["split"] == {"test_fraction": 0.1, "folds": 5}
    assert load_config(os.path.join(out, "run.json")) == load_config(cfg)


@pytest.mark.parametrize("split", [{"folds": 3, "test_fraction": 0.5}, {"folds": 3},
                                   {"test_fraction": 0.2}],
                         ids=["folds-and-fraction", "folds", "fraction"])
def test_split_block_beside_a_split_file_rejected_at_load(tmp_path, split):
    cfg, g, plan, split_path = tampered_split_config(tmp_path, lambda plan: None)
    assert len(plan.folds) == 5
    cfg_path, _ = write_config(tmp_path, split=split, split_file=split_path)
    with pytest.raises(ValueError) as err:
        load_config(cfg_path)
    assert str(err.value) == (f"{cfg_path}: 'split' must be left out beside 'split_file': "
                              f"the split file {split_path} fixes the test slice and the folds")


def test_default_split_block_beside_a_split_file_loads(tmp_path):
    _, g, plan, split_path = tampered_split_config(tmp_path, lambda plan: None)
    cfg_path, _ = write_config(tmp_path, split={"folds": 5, "test_fraction": 0.1},
                               split_file=split_path)
    assert build_split(load_config(cfg_path), g).plan == plan


def test_cv_from_run_json_writes_the_same_metrics(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["cv", "--config", cfg]) == 0
    rerun = str(tmp_path / "rerun")
    assert main(["cv", "--config", os.path.join(out, "run.json"), "--out", rerun]) == 0
    cv_json = [Path(d, "metrics", "cv.json").read_bytes() for d in (out, rerun)]
    assert cv_json[0] == cv_json[1]


def within(part, whole) -> bool:
    """Every key of `part` is in `whole` with the same value, in nested objects too."""
    return all(within(v, whole.get(k, {})) if isinstance(v, dict) else whole.get(k) == v
               for k, v in part.items())


def test_readme_example_configs_load(tmp_path):
    """README's example config, and that config with its `dataset` block, load as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    example = next(json.loads(b) for b in blocks if '"synthetic"' in b)
    dataset = next(json.loads("{" + b + "}") for b in blocks
                   if b.lstrip().startswith('"dataset"'))
    real = {**{k: v for k, v in example.items() if k != "synthetic"}, **dataset}
    for name, doc in (("example", example), ("real", real)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert within(doc, block_doc(load_config(str(path))))


def test_config_that_is_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"seed": }', encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON") as err:
        load_config(str(path))
    assert str(path) in str(err.value)
    assert main(["cv", "--config", str(path)]) == 1
    assert str(path) in capsys.readouterr().err
