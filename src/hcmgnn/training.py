"""Loss, the epoch loop with early stopping, and the CV/test protocol."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_at_least, check_field_types
from .evaluation import METRIC_KEYS, rank_metrics, rank_pools
from .graph import (EntityType, HetGraph, SplitPlan, positives_by_id, sample_negatives,
                    sample_training_negatives)
from .model import (ModelCache, ModelConfig, ModelParams, forward, init_params,
                    score_triplets)
from .optim import Adam
from .seeding import derive_seed
from .tensor import ShapeError, Tape, Tensor

logger = logging.getLogger(__name__)

# Negatives sampled into each validation and test pool, beside its positive.
RANK_NEGATIVES = 30


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.7
    lr: float = 0.005
    max_epochs: int = 1000
    patience: int = 50
    val_metric: str = "mrr"

    def __post_init__(self):
        check_field_types(self)
        if self.val_metric not in METRIC_KEYS:
            raise ValueError(f"val_metric must be one of {METRIC_KEYS}, got {self.val_metric!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        check_at_least(self, 1, "patience", "max_epochs")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


def loss_fn(scores: Tensor, labels, gamma: float) -> Tensor:
    """Class-balanced squared error: (1-g)*sum_pos + g*sum_neg, sums not means."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    if scores.shape != y.shape:
        raise ShapeError(f"loss: {scores.shape[0]} scores vs {y.shape[0]} labels")
    diff = T.add(T.constant(y), T.smul(scores, -1.0))
    pos = T.sum_sq(T.hadamard(diff, T.constant((y == 1.0).astype(np.float64))))
    neg = T.sum_sq(T.hadamard(diff, T.constant((y == 0.0).astype(np.float64))))
    return T.add(T.smul(pos, 1.0 - gamma), T.smul(neg, gamma))


@dataclass
class RankingSet:
    """Each positive paired with its fixed pool of sampled negatives.

    `negatives` is pools x negatives x 3 triplet rows.  The pools' index
    (the 3 x candidates gene, microbe and disease rows that `forward`
    scores), candidate ids (positive first) and the pools x candidates
    `before` mask, true where a candidate's id sorts before its positive's,
    are built once, so scoring an epoch does no set-up.
    """
    negatives: np.ndarray
    index: np.ndarray
    candidate_ids: list[list[str]]
    before: np.ndarray


def build_ranking_set(g: HetGraph, positives: np.ndarray, n_negatives: int, seed: int,
                      known_positives) -> RankingSet:
    negatives = sample_negatives(positives, n_negatives, seed, g.sizes,
                                 known_positives=known_positives
                                 ).reshape(len(positives), n_negatives, 3)
    width = n_negatives + 1
    rows = np.concatenate([positives[:, None], negatives], axis=1).reshape(-1, 3)
    flat_ids = g.triplet_id(rows)
    ids = [flat_ids[i:i + width] for i in range(0, len(flat_ids), width)]
    before = np.array([[cid < pool[0] for cid in pool] for pool in ids], dtype=bool)
    return RankingSet(negatives=negatives, index=rows.T.copy(), candidate_ids=ids,
                      before=before.reshape(len(ids), width))


def score_ranking_set(g: HetGraph, cache: ModelCache, params: ModelParams,
                      rset: RankingSet, embeddings: dict[EntityType, Tensor] | None = None
                      ) -> tuple[np.ndarray, dict[EntityType, Tensor]]:
    """Score every candidate pool, then rank every pool at once.

    `embeddings`, when given, are `forward`'s per-type outputs at `params`;
    otherwise one `forward` computes them.  The MLP head scores the pools
    from them.  Returns each pool's 1-based rank of its positive, in pool
    order, and the embeddings they were scored from.
    """
    if embeddings is None:
        embeddings = forward(cache, params).embeddings
    scores = score_triplets(embeddings, params, rset.index).data.reshape(rset.before.shape)
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        pool = int(np.argmin(finite))
        raise ValueError("score_ranking_set: non-finite score among the candidates of "
                         f"{rset.candidate_ids[pool][0]}")
    return rank_pools(scores, rset.before), embeddings


@dataclass
class TrainReport:
    train_losses: list[float]
    val_trace: list[float]
    best_epoch: int
    best_metric: float
    best_ranks: np.ndarray   # the validation pools' ranks at the best state
    epochs_run: int


def train(g: HetGraph, cache: ModelCache, params: ModelParams,
          train_index: np.ndarray, labels: np.ndarray,
          val_set: RankingSet, cfg: TrainConfig) -> TrainReport:
    """Full-batch epochs with early stopping on the validation ranking metric.

    Training stops once `patience` validations in a row bring no strict
    improvement on the best metric, so a tie or a NaN never becomes the best.
    `train_index` is the training triplets' 3 x N (genes, microbes,
    diseases) rows and `labels` their 0/1 labels.  Each epoch's step is
    validated, and the best-validated state is kept.  On return `params`
    holds that checkpoint.

    One graph pass serves each parameter state: the taped pass of epoch
    e runs at the state epoch e-1's step produced, so its embeddings also
    score the validation pools for epoch e-1.  Each epoch runs the
    backward, then that validation, then the step, which updates the
    parameters in place.  Validating after the backward keeps it off the
    tape's peak: the sweep has freed the tape, and the backward changes
    neither the embeddings nor the parameter data.  Only the last state
    needs a pass of its own.
    """
    if labels.size == 0:
        raise ValueError("train: empty training set")
    opt = Adam(params.tensors, lr=cfg.lr)

    losses: list[float] = []
    val_trace: list[float] = []
    best_metric, best_epoch = -np.inf, 0
    best_state = params.state()
    best_ranks = np.zeros(0, dtype=np.int64)

    def validate(embeddings=None) -> bool:
        """Record the metric of the current state; True iff training should stop."""
        nonlocal best_metric, best_epoch, best_state, best_ranks
        ranks, _ = score_ranking_set(g, cache, params, val_set, embeddings=embeddings)
        metric = rank_metrics(ranks)[cfg.val_metric]
        val_trace.append(metric)
        if metric > best_metric:
            best_metric, best_epoch = metric, len(val_trace)
            best_state, best_ranks = params.state(), ranks
        return len(val_trace) - best_epoch >= cfg.patience

    for epoch in range(1, cfg.max_epochs + 1):
        params.zero_grad()
        with Tape() as tape:
            embeddings = forward(cache, params).embeddings
            loss = loss_fn(score_triplets(embeddings, params, train_index), labels, cfg.gamma)
        tape.backward(loss)
        if epoch > 1 and validate(embeddings):
            break
        value = loss.item()
        if not np.isfinite(value):
            raise RuntimeError(f"train: non-finite loss at epoch {epoch}")
        opt.step()
        losses.append(value)
    else:  # no early stop: the last step's state is not validated yet
        validate()

    params.load_state(best_state)
    return TrainReport(train_losses=losses, val_trace=val_trace,
                       best_epoch=best_epoch, best_metric=float(best_metric),
                       best_ranks=best_ranks, epochs_run=len(losses))


def thread_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], on `workers` threads when that is more than one."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True, eq=False)   # its arrays have no single truth value
class Split:
    """A split plan checked against a graph, each of its ids resolved to a positive.

    `known` holds every positive of the graph as a (g, m, d) tuple, which
    no sampled negative may be.  The test slice and each fold are (n, 3)
    triplet rows in plan order.
    """
    plan: SplitPlan
    known: set[tuple[int, int, int]]
    test_positives: np.ndarray
    fold_positives: list[np.ndarray]

    @property
    def test(self) -> list[str]:
        """The test ids, as the plan lists them; `perfbench/child.py` reads these."""
        return self.plan.test


def resolve_split(g: HetGraph, plan: SplitPlan, where: str,
                  by_id: dict[str, tuple[int, int, int]] | None = None) -> Split:
    """Check `plan` against `g` and resolve every id in it, before any training.

    Rejects fewer than 2 folds, a test id inside a fold (the leakage
    audit), an empty fold, an id that is not a positive of `g` and an id
    listed twice; each error names `where`.  `by_id` is `positives_by_id(g)`,
    when the caller has built it already.
    """
    if len(plan.folds) < 2:
        raise ValueError(f"{where}: a split needs at least 2 folds, got {len(plan.folds)}")
    audit_no_leakage(plan, where)
    if by_id is None:
        by_id = positives_by_id(g)
    seen = set()
    resolved = []
    for name, ids in [("test", plan.test)] + [
            (f"fold {k}", fold) for k, fold in enumerate(plan.folds)]:
        if not ids and name != "test":
            raise ValueError(f"{where}: {name} is empty")
        for tid in ids:
            if tid not in by_id:
                raise ValueError(f"{where}: {name} id {tid!r} is not a known positive")
            if tid in seen:
                raise ValueError(f"{where}: id {tid!r} appears more than once "
                                 "across test and folds")
            seen.add(tid)
        resolved.append(np.array([by_id[tid] for tid in ids], dtype=np.int64).reshape(-1, 3))
    return Split(plan=plan, known=set(by_id.values()),
                 test_positives=resolved[0], fold_positives=resolved[1:])


def audit_no_leakage(plan: SplitPlan, where: str = "split"):
    """Reject a plan with a test id in a fold, which trains the others."""
    test = set(plan.test)
    for k, fold in enumerate(plan.folds):
        leaked = test.intersection(fold)
        if leaked:
            raise RuntimeError(f"{where}: leakage: test ids {sorted(leaked)[:3]}... "
                               f"appear in fold {k}")


@dataclass
class FoldResult:
    fold: int
    metrics: dict[str, float]
    report: TrainReport
    params: ModelParams
    n_train_pos: int
    n_train_neg: int


@dataclass
class CVResult:
    folds: list[FoldResult]
    records: list[dict]
    mean: dict


def _mean_record(records: list[dict]) -> dict:
    keys = [k for k in records[0] if k != "fold"]
    mean = {"fold": "mean"}
    for k in keys:
        mean[k] = float(np.mean([r[k] for r in records]))
    return mean


def _fit(g: HetGraph, cache: ModelCache, split: Split, k: int, label: str,
         model_cfg: ModelConfig, train_cfg: TrainConfig, seed: int):
    """Train on every fold but k plus equal negatives, early-stopping on fold k.

    `label` ("fold{k}" or "test-model") names the run in its seed labels.
    """
    train_pos = np.concatenate([fold for i, fold in enumerate(split.fold_positives) if i != k])
    train_neg = sample_training_negatives(
        train_pos, derive_seed(seed, f"train-neg/{label}"), g.sizes,
        known_positives=split.known)
    val_set = build_ranking_set(g, split.fold_positives[k], RANK_NEGATIVES,
                                derive_seed(seed, f"val-neg/{label}"), split.known)
    params = init_params(cache, model_cfg, derive_seed(seed, f"params/{label}"))
    report = train(g, cache, params, np.concatenate([train_pos, train_neg]).T.copy(),
                   np.repeat([1.0, 0.0], [len(train_pos), len(train_neg)]), val_set, train_cfg)
    return params, report, len(train_pos), len(train_neg)


def run_cv(g: HetGraph, split: Split, model_cfg: ModelConfig,
           train_cfg: TrainConfig, seed: int, max_workers: int = 1) -> CVResult:
    """5-fold CV: train on 4 folds plus equal negatives, rank the held-out fold."""
    cache = ModelCache(g, model_cfg)

    def run_fold(k: int) -> FoldResult:
        params, report, n_pos, n_neg = _fit(g, cache, split, k, f"fold{k}",
                                            model_cfg, train_cfg, seed)
        return FoldResult(fold=k, metrics=rank_metrics(report.best_ranks),
                          report=report, params=params,
                          n_train_pos=n_pos, n_train_neg=n_neg)

    results = thread_map(run_fold, range(len(split.fold_positives)), max_workers)

    records = []
    for r in results:
        rec = {"fold": r.fold, **{k: r.metrics[k] for k in sorted(r.metrics)},
               "epochs": r.report.epochs_run, "best_epoch": r.report.best_epoch}
        records.append(rec)
    return CVResult(folds=results, records=records, mean=_mean_record(records))


def train_for_test(g: HetGraph, split: Split, model_cfg: ModelConfig, train_cfg: TrainConfig,
                   seed: int) -> tuple[ModelParams, TrainReport, ModelCache]:
    """Fit the model used against the independent test set.

    Fold 0 serves as the early-stopping validation set; the remaining
    folds plus equal sampled negatives form the training set.  Test
    positives are never visible here (audited).
    """
    _require_test_positives(split, "train_for_test")
    cache = ModelCache(g, model_cfg)
    params, report, _, _ = _fit(g, cache, split, 0, "test-model", model_cfg, train_cfg, seed)
    return params, report, cache


def _require_test_positives(split: Split, where: str):
    """Reject a split whose test slice is empty, before any training or sampling."""
    if not len(split.test_positives):
        raise ValueError(f"{where}: the split holds no test positives")


def run_test(g: HetGraph, split: Split, cache: ModelCache, params: ModelParams,
             seed: int) -> tuple[np.ndarray, RankingSet, dict[EntityType, Tensor]]:
    """Rank each test positive against its freshly sampled pool of negatives.

    Returns the ranks in test-positive order, the test set and the
    embeddings it was scored from.
    """
    _require_test_positives(split, "run_test")
    test_set = build_ranking_set(g, split.test_positives, RANK_NEGATIVES,
                                 derive_seed(seed, "test-neg"), split.known)
    ranks, embeddings = score_ranking_set(g, cache, params, test_set)
    return ranks, test_set, embeddings
