"""Command-line entry point: synth / cv / test / ablate / stratify / instances.

One JSON config drives every command; a single top-level seed fans out to
all randomized stages through sha256, so rerunning a command reproduces
its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .evaluation import (default_thresholds, export_embeddings, rank_metrics,
                         silhouette, stratify_by_degree)
from .graph import (DISEASE, GENE, MICROBE, HetGraph, SplitPlan, avg_node_degree,
                    derive_positive_triplets, load_edges, load_json, make_split,
                    positives_by_id)
from .metapath import causal_metapaths, dump_instances
from .model import (VARIANTS, ModelCache, ModelConfig, ModelParams, check_type,
                    config_block)
from .seeding import derive_seed
from .synthetic import generate_synthetic
from .training import (Split, TrainConfig, resolve_split, run_cv, run_test, thread_map,
                       train_for_test)

_FEATURE_KEYS = {"gene": GENE, "microbe": MICROBE, "disease": DISEASE}

_TOP_KEYS = {"seed", "out", "synthetic", "dataset", "model", "train", "split",
             "split_file"}
# the keys each config block accepts; the top-level seed sets the train seed
_BLOCK_KEYS = {
    "synthetic": {"n_genes", "n_microbes", "n_diseases", "latent_dim", "edge_density",
                  "rng_seed"},
    "dataset": {"gene_microbe", "gene_disease", "microbe_disease", "features"},
    "model": {f.name for f in fields(ModelConfig)},
    "train": {f.name for f in fields(TrainConfig)} - {"seed"},
    "split": {"test_fraction", "folds"},
}
_REQUIRED_KEYS = {"synthetic": ("n_genes", "n_microbes", "n_diseases"),
                  "dataset": ("gene_microbe", "gene_disease", "microbe_disease")}
# the type of each value load_config checks itself; model and train check theirs
_VALUE_TYPES = {
    "": {"out": "str", "split_file": "str"},
    "synthetic.": {"n_genes": "int", "n_microbes": "int", "n_diseases": "int",
                   "latent_dim": "int", "edge_density": "float", "rng_seed": "int"},
    "split.": {"test_fraction": "float", "folds": "int"},
}
# the least value of each count load_config checks itself
_MINIMA = {
    "synthetic.": {"n_genes": 2, "n_microbes": 2, "n_diseases": 2, "latent_dim": 1},
    "split.": {"folds": 2},
}


@dataclass
class RunConfig:
    seed: int
    out: str
    model: ModelConfig
    train: TrainConfig
    synthetic: dict | None = None
    dataset: dict | None = None
    split: dict | None = None
    split_file: str | None = None

    def resolved(self) -> dict:
        doc = {"seed": self.seed, "out": self.out,
               "model": asdict(self.model), "train": asdict(self.train),
               "split": self.split or {"test_fraction": 0.1, "folds": 5}}
        if self.synthetic is not None:
            doc["synthetic"] = self.synthetic
        if self.dataset is not None:
            doc["dataset"] = self.dataset
        if self.split_file:
            doc["split_file"] = self.split_file
        return doc


def _check_keys(path, where: str, block, allowed: set[str], required=()):
    """Reject a key that `block` does not accept or lacks, naming the file and the key."""
    if not isinstance(block, dict):
        raise ValueError(f"{path}: '{where.rstrip('.') or 'config'}' must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ValueError(f"{path}: unknown config key '{where}{key}'")
    for key in required:
        if key not in block:
            raise ValueError(f"{path}: missing config key '{where}{key}'")


def load_config(path, seed_override=None, out_override=None,
                variant_override=None) -> RunConfig:
    doc = load_json(path)
    _check_keys(path, "", doc, _TOP_KEYS)
    for name, allowed in _BLOCK_KEYS.items():
        if name in doc:
            _check_keys(path, f"{name}.", doc[name], allowed, _REQUIRED_KEYS.get(name, ()))
    features = doc.get("dataset", {}).get("features")
    if features is not None:
        _check_keys(path, "dataset.features.", features, set(_FEATURE_KEYS))
    if ("synthetic" in doc) == ("dataset" in doc):
        raise ValueError(f"{path}: config must contain exactly one of "
                         f"'synthetic' or 'dataset'")
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    try:
        check_type("seed", seed, "int")
        for where, types in _VALUE_TYPES.items():
            block = doc.get(where.rstrip("."), {}) if where else doc
            for key, type_name in types.items():
                if key in block:
                    check_type(f"{where}{key}", block[key], type_name)
        for where, minima in _MINIMA.items():
            block = doc.get(where.rstrip("."), {})
            for key, least in minima.items():
                if block.get(key, least) < least:
                    raise ValueError(f"{where}{key} must be >= {least}, got {block[key]!r}")
        split = doc.get("split", {})
        if not 0 <= split.get("test_fraction", 0) < 1:
            raise ValueError(f"split.test_fraction must lie in [0, 1), "
                             f"got {split['test_fraction']!r}")
        synthetic = doc.get("synthetic", {})
        if not 0 < synthetic.get("edge_density", 0.5) < 1:
            raise ValueError(f"synthetic.edge_density must lie in (0, 1), "
                             f"got {synthetic['edge_density']!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    model_doc = dict(doc.get("model", {}))
    if variant_override is not None:
        model_doc["variant"] = variant_override
    train_doc = dict(doc.get("train", {}))
    train_doc["seed"] = seed
    out = out_override or doc.get("out") or "runs/out"
    return RunConfig(seed=seed, out=out,
                     model=config_block(ModelConfig, model_doc, f"{path}: model"),
                     train=config_block(TrainConfig, train_doc, f"{path}: train"),
                     synthetic=doc.get("synthetic"), dataset=doc.get("dataset"),
                     split=doc.get("split"), split_file=doc.get("split_file"))


def _synthesize(cfg: RunConfig, out_dir):
    """The planted dataset of the config's synthetic block, and its seed."""
    block = cfg.synthetic
    gen_seed = block.get("rng_seed", derive_seed(cfg.seed, "synthetic"))
    return gen_seed, generate_synthetic(
        block["n_genes"], block["n_microbes"], block["n_diseases"],
        block.get("latent_dim", 8), block.get("edge_density", 0.15),
        gen_seed, out_dir=out_dir)


def build_graph(cfg: RunConfig) -> HetGraph:
    if cfg.synthetic is not None:
        return _synthesize(cfg, None)[1].graph
    ds = cfg.dataset
    features = {}
    for key, t in _FEATURE_KEYS.items():
        path = (ds.get("features") or {}).get(key)
        if path:
            features[t] = path
    return load_edges(ds["gene_microbe"], ds["gene_disease"], ds["microbe_disease"],
                      feature_paths=features or None)


def build_split(cfg: RunConfig, g: HetGraph) -> Split:
    """The config's split file or generated split, checked against `g` and resolved.

    Every command that needs a split calls this once and hands the result on.
    """
    by_id = positives_by_id(g)
    if cfg.split_file:
        return resolve_split(g, SplitPlan.load(cfg.split_file), cfg.split_file, by_id)
    opts = cfg.split or {}
    plan = make_split(list(by_id),
                      test_fraction=opts.get("test_fraction", 0.1),
                      folds=opts.get("folds", 5),
                      rng_seed=derive_seed(cfg.seed, "split"))
    return resolve_split(g, plan, "generated split", by_id)


def split_hash(split: Split) -> str:
    return hashlib.sha256(split.plan.to_json().encode("utf-8")).hexdigest()[:16]


def _ensure_dirs(out):
    for sub in ("metrics", "checkpoints", "exports"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_file(cfg: RunConfig):
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "run.json"), cfg.resolved())


def _threads() -> int:
    value = os.environ.get("HCMGNN_THREADS", "1")
    if not (value.isdigit() and int(value) >= 1):
        raise ValueError(f"HCMGNN_THREADS must be a positive integer, got {value!r}")
    return int(value)


def cmd_synth(cfg: RunConfig) -> str:
    if cfg.synthetic is None:
        raise ValueError("synth needs a 'synthetic' block in the config")
    _write_run_file(cfg)
    data_dir = os.path.join(cfg.out, "data")
    gen_seed, result = _synthesize(cfg, data_dir)
    triangles = len(derive_positive_triplets(result.graph))
    manifest = {
        "seed": gen_seed,
        "sizes": {"genes": result.graph.num_nodes(GENE),
                  "microbes": result.graph.num_nodes(MICROBE),
                  "diseases": result.graph.num_nodes(DISEASE)},
        "realized_density": result.realized_density,
        "bias": result.bias,
        "triangles": triangles,
        "files": sorted(result.files),
    }
    path = os.path.join(data_dir, "manifest.json")
    _write_json(path, manifest)
    print(f"wrote {len(result.files)} dataset files + manifest to {data_dir} "
          f"(density {result.realized_density:.4f}, {triangles} positive triplets)")
    return path


def cmd_cv(cfg: RunConfig) -> str:
    _write_run_file(cfg)
    _ensure_dirs(cfg.out)
    g = build_graph(cfg)
    split = build_split(cfg, g)
    result = run_cv(g, split, cfg.model, cfg.train, max_workers=_threads())
    doc = {"split_hash": split_hash(split), "seed": cfg.seed,
           "variant": cfg.model.variant,
           "folds": result.records, "mean": result.mean}
    path = os.path.join(cfg.out, "metrics", "cv.json")
    _write_json(path, doc)
    for fold in result.folds:
        fold.params.save(os.path.join(cfg.out, "checkpoints", f"fold{fold.fold}.json"))
    for rec in result.all_records():
        print("fold {fold}: hit1={hit1:.4f} hit3={hit3:.4f} hit5={hit5:.4f} "
              "mrr={mrr:.4f}".format(**rec))
    return path


def cmd_test(cfg: RunConfig) -> str:
    _write_run_file(cfg)
    _ensure_dirs(cfg.out)
    g = build_graph(cfg)
    split = build_split(cfg, g)
    params, report, cache = train_for_test(g, split, cfg.model, cfg.train)
    ranks, test_set, embeddings = run_test(g, split, cache, params, cfg.seed)
    metrics = rank_metrics(ranks)
    params.save(os.path.join(cfg.out, "checkpoints", "test.json"))

    # embed every ranked candidate, each pool's positive first, for projection tools
    ids = [cid for pool in test_set.candidate_ids for cid in pool]
    labels = [int(j == 0) for pool in test_set.candidate_ids for j in range(len(pool))]
    tables = [embeddings[t].data for t in (GENE, MICROBE, DISEASE)]
    export_embeddings(os.path.join(cfg.out, "exports", "test_embeddings.tsv"),
                      ids, labels, tables, test_set.index)
    vecs = np.concatenate([tab[rows] for tab, rows in zip(tables, test_set.index)], axis=1)

    doc = {"split_hash": split_hash(split), "seed": cfg.seed,
           "variant": cfg.model.variant, "metrics": metrics,
           "silhouette": silhouette(vecs, np.array(labels)),
           "best_epoch": report.best_epoch, "epochs": report.epochs_run,
           "ranks": [{"id": ids[0], "rank": rank, "avg_degree": avg_node_degree(g, pos)}
                     for ids, rank, pos in zip(test_set.candidate_ids, ranks.tolist(),
                                               split.test_positives)]}
    path = os.path.join(cfg.out, "metrics", "test.json")
    _write_json(path, doc)
    print("test: " + " ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items())))
    return path


def cmd_ablate(cfg: RunConfig) -> str:
    _write_run_file(cfg)
    _ensure_dirs(cfg.out)
    g = build_graph(cfg)
    split = build_split(cfg, g)
    shash = split_hash(split)

    def run_variant(variant: str) -> dict:
        row = {"variant": variant, "split_hash": shash, "error": None}
        try:
            params, report, cache = train_for_test(
                g, split, replace(cfg.model, variant=variant), cfg.train)
            row.update(rank_metrics(run_test(g, split, cache, params, cfg.seed)[0]))
            row["best_epoch"] = report.best_epoch
            row["epochs"] = report.epochs_run
        except Exception as exc:  # a broken variant must not sink the others
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    rows = thread_map(run_variant, VARIANTS, _threads())

    path = os.path.join(cfg.out, "metrics", "ablation.json")
    _write_json(path, {"split_hash": shash, "seed": cfg.seed, "rows": rows})
    for row in rows:
        if row["error"]:
            print(f"{row['variant']:>9}: ERROR {row['error']}")
        else:
            print(f"{row['variant']:>9}: hit1={row['hit1']:.4f} mrr={row['mrr']:.4f}")
    return path


def cmd_stratify(cfg: RunConfig, checkpoint_path=None) -> str:
    _write_run_file(cfg)
    _ensure_dirs(cfg.out)
    checkpoint_path = checkpoint_path or os.path.join(cfg.out, "checkpoints", "test.json")
    if not os.path.exists(checkpoint_path):
        raise FileNotFoundError(f"checkpoint not found: {checkpoint_path}")
    params = ModelParams.load(checkpoint_path)
    g = build_graph(cfg)
    split = build_split(cfg, g)
    cache = ModelCache(g, params.config.variant)
    ranks = run_test(g, split, cache, params, cfg.seed)[0]
    degrees = [avg_node_degree(g, pos) for pos in split.test_positives]
    reports = stratify_by_degree(degrees, ranks, default_thresholds(degrees, k=12))
    path = os.path.join(cfg.out, "metrics", "strata.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            hit = "null" if r.hit1 is None else repr(r.hit1)
            fh.write(f"{r.threshold!r}\t{r.count}\t{hit}\n")
    print(f"wrote {len(reports)} strata to {path}")
    return path


def cmd_instances(cfg: RunConfig) -> str:
    _write_run_file(cfg)
    _ensure_dirs(cfg.out)
    g = build_graph(cfg)
    path = os.path.join(cfg.out, "exports", "instances.tsv")
    dump_instances(path, g, causal_metapaths())
    print(f"wrote instance dump to {path}")
    return path


def main(argv=None) -> int:
    commands = {"synth": cmd_synth, "cv": cmd_cv, "test": cmd_test, "ablate": cmd_ablate,
                "stratify": lambda cfg: cmd_stratify(cfg, checkpoint_path=args.checkpoint),
                "instances": cmd_instances}
    parser = argparse.ArgumentParser(prog="hcmgnn",
                                     description="causal-metapath triplet ranking")
    parser.add_argument("command", choices=list(commands))
    parser.add_argument("--config", required=True, help="run config JSON")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--variant", default=None, choices=list(VARIANTS),
                        help="model variant override")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint path (stratify)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out, variant_override=args.variant)
        commands[args.command](cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
