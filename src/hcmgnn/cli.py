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
from dataclasses import dataclass, field, replace

import numpy as np

from .config import block_doc, check_field_types, config_block
from .evaluation import (default_thresholds, export_embeddings, rank_metrics,
                         silhouette, stratify_by_degree)
from .graph import (DISEASE, GENE, MICROBE, EntityType, HetGraph, SplitConfig, SplitPlan,
                    avg_node_degree, derive_positive_triplets, load_edges, load_json,
                    make_split, positives_by_id)
from .metapath import causal_metapaths, dump_instances
from .model import VARIANTS, ModelCache, ModelConfig, ModelParams
from .seeding import derive_seed
from .synthetic import SyntheticConfig, generate_synthetic
from .training import (Split, TrainConfig, resolve_split, run_cv, run_test, thread_map,
                       train_for_test)


@dataclass(frozen=True)
class FeaturesConfig:
    """A feature CSV per entity type; a type without one gets one-hot identity features."""
    gene: str | None = None
    microbe: str | None = None
    disease: str | None = None

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class DatasetConfig:
    """A run config's `dataset` block: the three edge files and the feature files."""
    gene_microbe: str
    gene_disease: str
    microbe_disease: str
    features: FeaturesConfig = field(default_factory=FeaturesConfig)

    def __post_init__(self):
        check_field_types(self)


@dataclass
class RunConfig:
    """A whole run config: the top-level keys, and a checked dataclass per block."""
    seed: int = 0
    out: str = "runs/out"
    synthetic: SyntheticConfig | None = None
    dataset: DatasetConfig | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    split_file: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if not self.out:
            raise ValueError("out must not be empty")
        if (self.synthetic is None) == (self.dataset is None):
            raise ValueError("config must contain exactly one of 'synthetic' or 'dataset'")
        if self.split_file is not None and self.split != SplitConfig():
            raise ValueError(f"'split' must be left out beside 'split_file': the split "
                             f"file {self.split_file} fixes the test slice and the folds")
        self.train = replace(self.train, seed=self.seed)  # the top-level seed sets it


def load_config(path, seed_override=None, out_override=None,
                variant_override=None) -> RunConfig:
    cfg = config_block(RunConfig, load_json(path), path)
    model = replace(cfg.model, variant=variant_override or cfg.model.variant)
    return replace(cfg, model=model, out=out_override or cfg.out,
                   seed=cfg.seed if seed_override is None else seed_override)


def _synthesize(cfg: RunConfig, out_dir):
    """The planted dataset of the config's synthetic block, and its seed."""
    s = cfg.synthetic
    gen_seed = derive_seed(cfg.seed, "synthetic") if s.rng_seed is None else s.rng_seed
    return gen_seed, generate_synthetic(s.n_genes, s.n_microbes, s.n_diseases,
                                        s.latent_dim, s.edge_density, gen_seed,
                                        out_dir=out_dir)


def build_graph(cfg: RunConfig) -> HetGraph:
    if cfg.synthetic is not None:
        return _synthesize(cfg, None)[1].graph
    ds = cfg.dataset
    features = {t: path for t in EntityType if (path := getattr(ds.features, t.name.lower()))}
    return load_edges(ds.gene_microbe, ds.gene_disease, ds.microbe_disease,
                      feature_paths=features or None)


def build_split(cfg: RunConfig, g: HetGraph) -> Split:
    """The config's split file or generated split, checked against `g` and resolved.

    Every command that needs a split calls this once and hands the result on.
    """
    by_id = positives_by_id(g)
    if cfg.split_file:
        return resolve_split(g, SplitPlan.load(cfg.split_file), cfg.split_file, by_id)
    plan = make_split(list(by_id), cfg.split.test_fraction, cfg.split.folds,
                      rng_seed=derive_seed(cfg.seed, "split"))
    return resolve_split(g, plan, "generated split", by_id)


def split_hash(split: Split) -> str:
    return hashlib.sha256(split.plan.to_json().encode("utf-8")).hexdigest()[:16]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _start_run(cfg: RunConfig):
    """Write `run.json`, the config as `load_config` reads it back, and the output dirs."""
    for sub in ("metrics", "checkpoints", "exports"):
        os.makedirs(os.path.join(cfg.out, sub), exist_ok=True)
    _write_json(os.path.join(cfg.out, "run.json"), block_doc(cfg))


def _threads() -> int:
    value = os.environ.get("HCMGNN_THREADS", "1")
    if not (value.isdigit() and int(value) >= 1):
        raise ValueError(f"HCMGNN_THREADS must be a positive integer, got {value!r}")
    return int(value)


def cmd_synth(cfg: RunConfig) -> str:
    if cfg.synthetic is None:
        raise ValueError("synth needs a 'synthetic' block in the config")
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
    degrees = avg_node_degree(g, split.test_positives).tolist()

    doc = {"split_hash": split_hash(split), "seed": cfg.seed,
           "variant": cfg.model.variant, "metrics": metrics,
           "silhouette": silhouette(vecs, np.array(labels)),
           "best_epoch": report.best_epoch, "epochs": report.epochs_run,
           "ranks": [{"id": ids[0], "rank": rank, "avg_degree": degree}
                     for ids, rank, degree in zip(test_set.candidate_ids, ranks.tolist(),
                                                  degrees)]}
    path = os.path.join(cfg.out, "metrics", "test.json")
    _write_json(path, doc)
    print("test: " + " ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items())))
    return path


def cmd_ablate(cfg: RunConfig) -> str:
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
    checkpoint_path = checkpoint_path or os.path.join(cfg.out, "checkpoints", "test.json")
    if not os.path.exists(checkpoint_path):
        raise FileNotFoundError(f"checkpoint not found: {checkpoint_path}")
    params = ModelParams.load(checkpoint_path)
    g = build_graph(cfg)
    split = build_split(cfg, g)
    cache = ModelCache(g, params.config.variant)
    ranks = run_test(g, split, cache, params, cfg.seed)[0]
    degrees = avg_node_degree(g, split.test_positives)
    reports = stratify_by_degree(degrees, ranks, default_thresholds(degrees, k=12))
    path = os.path.join(cfg.out, "metrics", "strata.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            hit = "null" if r.hit1 is None else repr(r.hit1)
            fh.write(f"{r.threshold!r}\t{r.count}\t{hit}\n")
    print(f"wrote {len(reports)} strata to {path}")
    return path


def cmd_instances(cfg: RunConfig) -> str:
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
        _start_run(cfg)
        commands[args.command](cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
