"""Planted synthetic datasets for desk-scale verification.

Nodes draw latent vectors from a two-component Gaussian mixture; edges
appear with probability sigmoid(<u, v> + b), so same-component pairs
connect far more often.  Node features are the latents plus noise, which
keeps the edge process learnable from the feature files alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import DISEASE, GENE, MICROBE, PAIR_KINDS, EntityType, HetGraph

FEATURE_NOISE_STD = 0.1
# The mixture is spread-dominant, so the edge process tracks the continuous
# latent inner product rather than bare component identity, and corrupted
# triplets stay separable from node features; the slope sharpens that.
MIXTURE_SCALE = 0.5
MIXTURE_SPREAD = 2.0
EDGE_SLOPE = 4.0
_PREFIX = {GENE: "g", MICROBE: "m", DISEASE: "d"}


class CalibrationError(RuntimeError):
    """Bisection could not land within 10% of the target density."""


@dataclass
class SyntheticDataset:
    graph: HetGraph
    files: dict[str, str] | None
    realized_density: float
    bias: float
    latents: dict[EntityType, np.ndarray]


def _edge_prob(scores: np.ndarray, bias: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(scores + bias, -700.0, 700.0)))


def _density(scores: dict, uniforms: dict, bias: float) -> float:
    hits = 0
    total = 0
    for kind in PAIR_KINDS:
        hits += int((uniforms[kind] < _edge_prob(scores[kind], bias)).sum())
        total += scores[kind].size
    return hits / total


def generate_synthetic(n_genes: int, n_microbes: int, n_diseases: int,
                       latent_dim: int, edge_density_target: float,
                       rng_seed: int, out_dir: str | None = None,
                       bias: float | None = None) -> SyntheticDataset:
    """Sample a planted graph and optionally write its edge/feature files.

    Output files are a pure function of the arguments, byte for byte.
    Passing `bias` skips density calibration.
    """
    sizes = {GENE: n_genes, MICROBE: n_microbes, DISEASE: n_diseases}
    for t, n in sizes.items():
        if n < 2:
            raise ValueError(f"generate_synthetic: need at least 2 {t.name.lower()}s")
    if latent_dim < 1:
        raise ValueError("generate_synthetic: latent_dim must be >= 1")
    if not (0.0 < edge_density_target < 1.0) and bias is None:
        raise ValueError("generate_synthetic: density must lie in (0, 1)")

    rng = np.random.default_rng(rng_seed)
    center = (MIXTURE_SCALE / np.sqrt(latent_dim)) * np.ones(latent_dim)
    latents = {}
    for t in EntityType:
        comp = rng.integers(0, 2, size=sizes[t])
        noise = rng.normal(0.0, MIXTURE_SPREAD / np.sqrt(latent_dim),
                           size=(sizes[t], latent_dim))
        latents[t] = np.where(comp[:, None] == 0, center, -center) + noise

    scores = {}
    uniforms = {}
    for a, b_t in PAIR_KINDS:
        scores[(a, b_t)] = EDGE_SLOPE * (latents[a] @ latents[b_t].T)
        uniforms[(a, b_t)] = rng.uniform(size=scores[(a, b_t)].shape)

    if bias is None:
        lo, hi = -40.0, 40.0
        tol = 0.1 * edge_density_target
        achieved = None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            achieved = _density(scores, uniforms, mid)
            if abs(achieved - edge_density_target) <= tol:
                bias = mid
                break
            if achieved < edge_density_target:
                lo = mid
            else:
                hi = mid
        if bias is None:
            raise CalibrationError(
                f"could not reach density {edge_density_target} in 60 bisection "
                f"steps; achieved {achieved}")

    undirected = {}
    for kind in PAIR_KINDS:
        p = _edge_prob(scores[kind], bias)
        undirected[kind] = np.argwhere(uniforms[kind] < p)
    realized = _density(scores, uniforms, bias)

    features = {t: latents[t] + rng.normal(0.0, FEATURE_NOISE_STD,
                                           size=latents[t].shape)
                for t in EntityType}
    node_ids = {t: [f"{_PREFIX[t]}{i}" for i in range(sizes[t])] for t in EntityType}
    graph = HetGraph(node_ids, undirected, features)

    files = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        files = {}
        edge_names = {(GENE, MICROBE): "edges_gene_microbe.tsv",
                      (GENE, DISEASE): "edges_gene_disease.tsv",
                      (MICROBE, DISEASE): "edges_microbe_disease.tsv"}
        for kind, fname in edge_names.items():
            path = os.path.join(out_dir, fname)
            a, b_t = kind
            with open(path, "w", encoding="utf-8") as fh:
                for u, v in graph.edge_rows[kind].tolist():
                    fh.write(f"{node_ids[a][u]}\t{node_ids[b_t][v]}\n")
            files[fname] = path
        for t in EntityType:
            fname = f"features_{t.name.lower()}.csv"
            path = os.path.join(out_dir, fname)
            with open(path, "w", encoding="utf-8") as fh:
                header = "id," + ",".join(f"f{j + 1}" for j in range(latent_dim))
                fh.write(header + "\n")
                for i, nid in enumerate(node_ids[t]):
                    vals = ",".join(repr(float(x)) for x in features[t][i])
                    fh.write(f"{nid},{vals}\n")
            files[fname] = path

    return SyntheticDataset(graph=graph, files=files, realized_density=realized,
                            bias=float(bias), latents=latents)
