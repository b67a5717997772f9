"""Heterogeneous causal-metapath network for gene-microbe-disease ranking."""

from .graph import (DISEASE, GENE, MICROBE, EntityType, HetGraph, SplitPlan,
                    avg_node_degree, derive_positive_triplets, load_edges, make_split,
                    positives_by_id, sample_negatives)
from .metapath import (Metapath, ablation_metapaths, causal_metapaths,
                       enumerate_instance_rows)
from .model import (ModelCache, ModelConfig, ModelParams, ForwardOutput,
                    forward, init_params)
from .optim import Adam
from .synthetic import generate_synthetic
from .tensor import Tape, Tensor
from .training import (Split, TrainConfig, TrainReport, loss_fn, resolve_split, run_cv,
                       run_test, train)
from .evaluation import rank_metrics, silhouette, stratify_by_degree

__version__ = "0.1.0"
