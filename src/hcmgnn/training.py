"""Loss, the epoch loop with early stopping, and the CV/test protocol."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .evaluation import METRIC_KEYS, RankedCase, make_case, rank_metrics
from .graph import (EntityType, HetGraph, LabeledTriplet, SplitPlan,
                    avg_node_degree, derive_positive_triplets, sample_negatives,
                    sample_training_negatives)
from .model import (ModelCache, ModelConfig, ModelParams, check_field_types,
                    forward, init_params, score_triplets)
from .optim import Adam
from .seeding import derive_seed
from .tensor import ShapeError, Tape, Tensor

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    gamma: float = 0.7
    lr: float = 0.005
    max_epochs: int = 1000
    patience: int = 50
    val_metric: str = "mrr"
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.val_metric not in METRIC_KEYS:
            raise ValueError(f"val_metric must be one of {METRIC_KEYS}, got {self.val_metric!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
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

    The pools' flat index arrays, candidate ids (positive first) and average
    degrees are built once, so scoring an epoch does no set-up.
    """
    negatives: list[list[LabeledTriplet]]
    index: tuple[np.ndarray, np.ndarray, np.ndarray]
    candidate_ids: list[list[str]]
    avg_degrees: list[float]


def triplet_index(triplets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (genes, microbes, diseases) int64 index arrays that `forward` scores."""
    return tuple(np.array([getattr(t, slot) for t in triplets], dtype=np.int64)
                 for slot in ("gene", "microbe", "disease"))


def build_ranking_set(g: HetGraph, positives, n_negatives: int, seed: int,
                      known_positives) -> RankingSet:
    flat = sample_negatives(positives, n_negatives, seed, g.sizes,
                            known_positives=known_positives)
    grouped = [flat[i * n_negatives:(i + 1) * n_negatives]
               for i in range(len(positives))]
    pools = [[pos] + negs for pos, negs in zip(positives, grouped)]
    return RankingSet(negatives=grouped,
                      index=triplet_index([t for pool in pools for t in pool]),
                      candidate_ids=[[g.triplet_id(t) for t in pool] for pool in pools],
                      avg_degrees=[avg_node_degree(g, pos) for pos in positives])


def score_ranking_set(g: HetGraph, cache: ModelCache, params: ModelParams,
                      rset: RankingSet, embeddings: dict[EntityType, Tensor] | None = None
                      ) -> tuple[list[RankedCase], dict[EntityType, Tensor]]:
    """Score every candidate pool in one batch, then rank.

    `embeddings`, when given, are `forward`'s per-type outputs at `params`,
    and only the MLP head runs on them; otherwise one `forward` computes
    them.  Returns the ranked cases and the embeddings they were scored from.
    """
    if embeddings is None:
        out = forward(cache, params, rset.index)
        embeddings, scores = out.embeddings, out.scores
    else:
        scores = score_triplets(embeddings, params, rset.index)
    scores = scores.data[:, 0]
    cases = []
    off = 0
    for ids, degree in zip(rset.candidate_ids, rset.avg_degrees):
        cases.append(make_case(ids[0], ids[1:], scores[off:off + len(ids)],
                               avg_degree=degree))
        off += len(ids)
    return cases, embeddings


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.bad = 0
        self.epoch = 0

    def update(self, metric: float) -> bool:
        """Record one epoch's metric; True iff it improved on the best."""
        self.epoch += 1
        if metric > self.best:
            self.best = metric
            self.best_epoch = self.epoch
            self.bad = 0
            return True
        self.bad += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad >= self.patience


@dataclass
class TrainReport:
    train_losses: list[float]
    val_trace: list[float]
    best_epoch: int
    best_metric: float
    best_state: dict
    best_cases: list[RankedCase]   # the validation pools ranked at best_state
    epochs_run: int


def train(g: HetGraph, cache: ModelCache, params: ModelParams,
          train_index: tuple[np.ndarray, np.ndarray, np.ndarray], labels: np.ndarray,
          val_set: RankingSet, cfg: TrainConfig) -> TrainReport:
    """Full-batch epochs with early stopping on the validation ranking metric.

    `train_index` is the training triplets' (genes, microbes, diseases)
    index triple and `labels` their 0/1 labels.  Each epoch's step is
    validated, and the best-validated state is kept.  On return `params`
    holds that checkpoint, which is also in `report.best_state`.

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
    stopper = EarlyStopper(cfg.patience)
    best_state = params.state()
    best_cases: list[RankedCase] = []

    def validate(embeddings=None) -> bool:
        """Record the metric of the current state; True iff training should stop."""
        nonlocal best_state, best_cases
        cases, _ = score_ranking_set(g, cache, params, val_set, embeddings=embeddings)
        metric = rank_metrics(cases)[cfg.val_metric]
        val_trace.append(metric)
        if stopper.update(metric):
            best_state, best_cases = params.state(), cases
        return stopper.should_stop

    for epoch in range(1, cfg.max_epochs + 1):
        params.zero_grad()
        with Tape() as tape:
            out = forward(cache, params, train_index)
            loss = loss_fn(out.scores, labels, cfg.gamma)
        tape.backward(loss)
        if epoch > 1 and validate(out.embeddings):
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
                       best_epoch=stopper.best_epoch, best_metric=float(stopper.best),
                       best_state=best_state, best_cases=best_cases,
                       epochs_run=len(losses))


def thread_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], on `workers` threads when that is more than one."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class Split:
    """A split plan checked against a graph, each of its ids resolved to a positive.

    `known` holds the key of every positive of the graph, which no sampled
    negative may be.
    """
    plan: SplitPlan
    known: set[tuple[int, int, int]]
    test_positives: list[LabeledTriplet]
    fold_positives: list[list[LabeledTriplet]]

    @property
    def test(self) -> list[str]:
        """The test ids, as the plan lists them; `perfbench/child.py` reads these."""
        return self.plan.test


def resolve_split(g: HetGraph, plan: SplitPlan, where: str,
                  positives: list[LabeledTriplet] | None = None) -> Split:
    """Check `plan` against `g` and resolve every id in it, before any training.

    Rejects fewer than 2 folds, a test id inside a fold (the leakage
    audit), an empty fold, an id that is not a positive of `g` and an id
    listed twice; each error names `where`.  `positives` are `g`'s
    positive triplets, when the caller has derived them already.
    """
    if len(plan.folds) < 2:
        raise ValueError(f"{where}: a split needs at least 2 folds, got {len(plan.folds)}")
    audit_no_leakage(plan, where)
    if positives is None:
        positives = derive_positive_triplets(g)
    by_id = {g.triplet_id(p): p for p in positives}
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
        resolved.append([by_id[tid] for tid in ids])
    return Split(plan=plan, known={p.key() for p in positives},
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

    def all_records(self) -> list[dict]:
        return self.records + [self.mean]


def _mean_record(records: list[dict]) -> dict:
    keys = [k for k in records[0] if k != "fold"]
    mean = {"fold": "mean"}
    for k in keys:
        mean[k] = float(np.mean([r[k] for r in records]))
    return mean


def _fit(g: HetGraph, cache: ModelCache, split: Split, k: int, label: str,
         model_cfg: ModelConfig, train_cfg: TrainConfig, n_rank_negatives: int):
    """Train on every fold but k plus equal negatives, early-stopping on fold k.

    `label` ("fold{k}" or "test-model") names the run in its seed labels.
    """
    seed = train_cfg.seed
    train_pos = [p for i, fold in enumerate(split.fold_positives) if i != k for p in fold]
    train_neg = sample_training_negatives(
        train_pos, derive_seed(seed, f"train-neg/{label}"), g.sizes,
        known_positives=split.known)
    val_set = build_ranking_set(g, split.fold_positives[k], n_rank_negatives,
                                derive_seed(seed, f"val-neg/{label}"), split.known)
    params = init_params(cache, model_cfg, derive_seed(seed, f"params/{label}"))
    samples = train_pos + train_neg
    report = train(g, cache, params, triplet_index(samples),
                   np.array([t.label for t in samples], dtype=np.float64), val_set, train_cfg)
    return params, report, len(train_pos), len(train_neg)


def run_cv(g: HetGraph, split: Split, model_cfg: ModelConfig,
           train_cfg: TrainConfig, n_rank_negatives: int = 30,
           max_workers: int = 1) -> CVResult:
    """5-fold CV: train on 4 folds plus equal negatives, rank the held-out fold."""
    cache = ModelCache(g, model_cfg.variant)

    def run_fold(k: int) -> FoldResult:
        params, report, n_pos, n_neg = _fit(
            g, cache, split, k, f"fold{k}", model_cfg, train_cfg, n_rank_negatives)
        return FoldResult(fold=k, metrics=rank_metrics(report.best_cases),
                          report=report, params=params,
                          n_train_pos=n_pos, n_train_neg=n_neg)

    results = thread_map(run_fold, range(len(split.fold_positives)), max_workers)

    records = []
    for r in results:
        rec = {"fold": r.fold, **{k: r.metrics[k] for k in sorted(r.metrics)},
               "epochs": r.report.epochs_run, "best_epoch": r.report.best_epoch}
        records.append(rec)
    return CVResult(folds=results, records=records, mean=_mean_record(records))


def train_for_test(g: HetGraph, split: Split, model_cfg: ModelConfig,
                   train_cfg: TrainConfig) -> tuple[ModelParams, TrainReport, ModelCache]:
    """Fit the model used against the independent test set.

    Fold 0 serves as the early-stopping validation set; the remaining
    folds plus equal sampled negatives form the training set.  Test
    positives are never visible here (audited).
    """
    if not split.test_positives:
        raise ValueError("train_for_test: the split holds no test positives")
    cache = ModelCache(g, model_cfg.variant)
    params, report, _, _ = _fit(g, cache, split, 0, "test-model",
                                model_cfg, train_cfg, 30)
    return params, report, cache


def build_test_set(g: HetGraph, split: Split, seed: int,
                   n_rank_negatives: int) -> RankingSet:
    """Each test positive with its freshly sampled pool of negatives."""
    return build_ranking_set(g, split.test_positives, n_rank_negatives,
                             derive_seed(seed, "test-neg"), split.known)


def run_test(g: HetGraph, split: Split, cache: ModelCache, params: ModelParams,
             seed: int, n_rank_negatives: int = 30):
    """Rank each test positive against freshly sampled negatives."""
    cases, _ = score_ranking_set(g, cache, params,
                                 build_test_set(g, split, seed, n_rank_negatives))
    return rank_metrics(cases), cases
