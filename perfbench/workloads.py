"""The benchmark's workloads: one planted graph and one hcmgnn command each.

Every workload trains the `full` model at proj 16, 4 heads, fusion 32 and
MLP 128 for a fixed number of epochs; patience lies above the epoch count,
so early stopping never fires and every run does the same amount of work.

The planted graph is pinned to generator seed 7 (the 100/75/75 graph and the
40/30/30 acceptance graph), so its size, and with it the work per epoch,
is the same on every workload seed.  The workload seed becomes the run's
top-level `seed`: it picks the split, the sampled negatives and the
parameter initialisation, so each seed ranks different triplets.
"""

from __future__ import annotations

from dataclasses import dataclass

GRAPH_SEED = 7
MODEL = {"proj_dim": 16, "heads": 4, "fusion_dim": 32, "mlp_hidden": 128,
         "variant": "full"}
SPLIT = {"test_fraction": 0.1, "folds": 5}
BLAS_THREADS = 1  # OpenBLAS is pinned to one thread in every child process


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # the hcmgnn CLI command: "test" or "cv"
    sizes: tuple[int, int, int]
    density: float
    epochs: int               # fixed epochs per training run
    threads: int              # HCMGNN_THREADS

    def config(self, seed: int, out: str, epochs: int | None = None) -> dict:
        epochs = self.epochs if epochs is None else epochs
        n_g, n_m, n_d = self.sizes
        return {
            "seed": seed,
            "out": out,
            "synthetic": {"n_genes": n_g, "n_microbes": n_m, "n_diseases": n_d,
                          "latent_dim": 8, "edge_density": self.density,
                          "rng_seed": GRAPH_SEED},
            "model": dict(MODEL),
            "train": {"max_epochs": epochs, "patience": epochs + 1},
            "split": dict(SPLIT),
        }

    @property
    def compute_threads(self) -> int:
        return self.threads * BLAS_THREADS


WORKLOADS = {w.name: w for w in (
    Workload("test-large", "test", (100, 75, 75), 0.08, epochs=12, threads=1),
    Workload("cv-2t", "cv", (40, 30, 30), 0.15, epochs=20, threads=2),
)}
