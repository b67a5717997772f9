import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import forward_scores, index_of, resolve_rank, toy_graph
from gradcheck import grad_check
from hcmgnn.evaluation import rank_metrics
from hcmgnn import evaluation, training
from hcmgnn import tensor as T
from hcmgnn.graph import (GENE, MICROBE, DISEASE, HetGraph, SplitPlan,
                          derive_positive_triplets, make_split, positives_by_id,
                          sample_negatives, sample_training_negatives)
from hcmgnn.model import (SCORE_BLOCK, ModelCache, ModelConfig, forward, init_params,
                          score_triplets)
from hcmgnn.optim import Adam
from hcmgnn.synthetic import SyntheticConfig, generate_synthetic
from hcmgnn.tensor import ShapeError, Tape, Tensor
from hcmgnn.training import (TrainConfig, audit_no_leakage,
                             build_ranking_set, loss_fn, resolve_split, run_cv,
                             run_test, score_ranking_set, train, train_for_test)

SMALL_MODEL = dict(proj_dim=4, heads=2, fusion_dim=5, mlp_hidden=6)


def keys(rows):
    """(N, 3) triplet rows as the set of (g, m, d) tuples that `known_positives` takes."""
    return set(map(tuple, rows.tolist()))


def small_planted(seed=3):
    # sized so every positive admits 30 slot-cycled distinct negatives
    ds = generate_synthetic(SyntheticConfig(20, 16, 16, 4, 0.2), seed)
    return ds.graph


# ---- loss ----

def test_loss_zero_when_exact():
    scores = Tensor([[1.0], [0.0]])
    assert loss_fn(scores, [1, 0], 0.7).item() == 0.0


def test_loss_worked_example():
    scores = Tensor([[0.5], [0.5]])
    assert loss_fn(scores, [1, 0], 0.7).item() == pytest.approx(0.25)
    # 0.3 * 0.25 + 0.7 * 0.25


def test_loss_gamma_half_is_plain_squared_error():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=12)
    s = rng.uniform(0.01, 0.99, size=(12, 1))
    got = loss_fn(Tensor(s), y, 0.5).item()
    assert got == pytest.approx(0.5 * ((y.reshape(-1, 1) - s) ** 2).sum())


def test_loss_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        loss_fn(Tensor([[0.5], [0.5]]), [1], 0.7)


def test_loss_gradient_formula():
    y = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([[0.9], [0.2], [0.4], [0.7]])
    gamma = 0.7
    scores = Tensor(s.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(loss_fn(scores, y, gamma))
    diff = y.reshape(-1, 1) - s
    expect = np.where(y.reshape(-1, 1) == 1.0,
                      -2 * (1 - gamma) * diff, -2 * gamma * diff)
    assert np.allclose(scores.grad, expect)
    # and against finite differences
    rep = grad_check(lambda t: loss_fn(t, y, gamma), Tensor(s.copy()), h=1e-6)
    assert rep.passed


# ---- train loop ----

def fold_fixture(g, seed=0):
    pos = derive_positive_triplets(g)
    plan = make_split(g.triplet_id(pos), rng_seed=seed)
    return pos, plan


def test_train_is_deterministic():
    g = small_planted()
    split = resolve_split(g, make_split(list(positives_by_id(g)), rng_seed=1), "split")
    mc = ModelConfig(**SMALL_MODEL)
    tc = TrainConfig(max_epochs=8, patience=50)
    reports = [train_for_test(g, split, mc, tc, 5)[1] for _ in range(2)]
    assert reports[0].train_losses == reports[1].train_losses
    assert reports[0].val_trace == reports[1].val_trace
    assert reports[0].best_epoch == reports[1].best_epoch


def test_train_rejects_empty_training_set():
    g = small_planted()
    pos = derive_positive_triplets(g)
    mc = ModelConfig(**SMALL_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 0)
    val = build_ranking_set(g, pos[:3], 5, 0, keys(pos))
    with pytest.raises(ValueError, match="empty"):
        train(g, cache, params, index_of([]), np.array([]), val, TrainConfig())


def test_train_returns_best_checkpoint():
    g = small_planted()
    split = resolve_split(g, make_split(list(positives_by_id(g)), rng_seed=1), "split")
    mc = ModelConfig(**SMALL_MODEL)
    tc = TrainConfig(max_epochs=10, patience=50)
    params, report, cache = train_for_test(g, split, mc, tc, 5)
    assert report.best_metric == max(report.val_trace)
    assert report.val_trace[report.best_epoch - 1] == report.best_metric
    # the best epoch's state: a run stopped there ends in it
    rerun, _, _ = train_for_test(g, split, mc, replace(tc, max_epochs=report.best_epoch), 5)
    for name, arr in rerun.state().items():
        assert np.array_equal(params.tensors[name].data, arr)
    assert report.epochs_run - report.best_epoch <= tc.patience


def test_loss_trace_on_planted_dataset_decreases():
    ds = generate_synthetic(SyntheticConfig(40, 30, 30, 8, 0.15), 7)
    g = ds.graph
    split = resolve_split(g, make_split(list(positives_by_id(g)), rng_seed=101), "split")
    mc = ModelConfig(proj_dim=8, heads=2, fusion_dim=16, mlp_hidden=32)
    tc = TrainConfig(max_epochs=10, patience=50)
    _, report, _ = train_for_test(g, split, mc, tc, 11)
    losses = report.train_losses
    assert len(losses) == 10
    assert all(np.isfinite(losses))
    assert losses[9] < losses[0]


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement.

    The stopper `train` ran before it read its stop from the validation
    trace, kept as the oracle loop's stopper.
    """

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


def two_pass_train(g, cache, params, train_index, labels, val_set, cfg):
    """The epoch loop before validation reused the training pass, kept as the oracle.

    Each epoch runs a taped forward and the step, then a second, untaped
    forward at the stepped parameters to validate.  Returns the losses,
    the trace, the best epoch, the best state and the best state's ranks.
    """
    opt = Adam(params.tensors, lr=cfg.lr)

    losses = []
    val_trace = []
    stopper = EarlyStopper(cfg.patience)
    best_state = params.state()
    for epoch in range(1, cfg.max_epochs + 1):
        params.zero_grad()
        with Tape() as tape:
            _, scores = forward_scores(cache, params, train_index)
            loss = loss_fn(scores, labels, cfg.gamma)
            value = loss.item()
            if not np.isfinite(value):
                raise RuntimeError(f"train: non-finite loss at epoch {epoch}")
            tape.backward(loss)
        opt.step()
        losses.append(value)

        ranks, _ = score_ranking_set(g, cache, params, val_set)
        metric = rank_metrics(ranks)[cfg.val_metric]
        val_trace.append(metric)
        if stopper.update(metric):
            best_state = params.state()
        elif stopper.should_stop:
            break

    params.load_state(best_state)
    ranks, _ = score_ranking_set(g, cache, params, val_set)
    return losses, val_trace, stopper.best_epoch, best_state, ranks


def train_inputs(variant):
    """A cache, a training index with labels and a validation set on the planted graph."""
    g = small_planted()
    pos = derive_positive_triplets(g)
    known = keys(pos)
    val_set = build_ranking_set(g, pos[:8], 30, 1, known)
    train_pos = pos[8:]
    train_neg = sample_training_negatives(train_pos, 2, g.sizes, known_positives=known)
    labels = np.repeat([1.0, 0.0], [len(train_pos), len(train_neg)])
    return (g, ModelCache(g, ModelConfig(variant=variant)), index_of(np.concatenate([train_pos, train_neg])),
            labels, val_set)


@pytest.mark.parametrize("variant", ["full", "woTM"])
@pytest.mark.parametrize("max_epochs, patience, stops", [(6, 50, False), (40, 1, True),
                                                         (1, 50, False)],
                         ids=["no-stop", "patience-1", "one-epoch"])
def test_train_matches_the_two_pass_loop(monkeypatch, variant, max_epochs, patience,
                                         stops):
    g, cache, index, labels, val_set = train_inputs(variant)
    mc = ModelConfig(**SMALL_MODEL, variant=variant)
    tc = TrainConfig(lr=0.05, max_epochs=max_epochs, patience=patience)
    losses, val_trace, best_epoch, best_state, ranks = two_pass_train(
        g, cache, init_params(cache, mc, 4), index, labels, val_set, tc)

    calls = []
    counted = training.forward
    monkeypatch.setattr(training, "forward", lambda *a: calls.append(1) or counted(*a))
    params = init_params(cache, mc, 4)
    report = train(g, cache, params, index, labels, val_set, tc)

    assert (report.epochs_run < max_epochs) == stops
    assert np.array_equal(report.train_losses, losses)
    assert np.array_equal(report.val_trace, val_trace)
    assert report.best_epoch == best_epoch
    assert report.epochs_run == len(losses)
    state = params.state()
    assert sorted(state) == sorted(best_state)
    for name, arr in best_state.items():
        assert np.array_equal(state[name], arr)
    assert np.array_equal(report.best_ranks, ranks)
    # one graph pass per parameter state: the taped pass of each epoch, plus the last
    assert len(calls) == report.epochs_run + 1


@pytest.mark.parametrize("patience, trace, best_epoch", [
    (1, [0.5, 0.4], 1),
    (2, [0.1, 0.05, 0.2, 0.15, 0.1], 3),
    (1, [0.3, 0.3], 1),
    (3, [0.2, 0.5, 0.5, 0.1, 0.5], 2),
    (2, [0.3, np.nan, 0.2], 1),
], ids=["patience-1-worsening", "improvement-resets-patience", "tie-is-no-improvement",
        "best-is-the-first-maximum", "nan-is-never-best"])
def test_early_stopping_reads_the_validation_trace(monkeypatch, patience, trace, best_epoch):
    """Each validation's metric comes from `trace`; train stops `patience` after the best."""
    g, cache, index, labels, val_set = train_inputs("full")
    metrics = iter(trace)
    monkeypatch.setattr(training, "rank_metrics", lambda ranks: {"mrr": next(metrics)})
    params = init_params(cache, ModelConfig(**SMALL_MODEL), 4)
    report = train(g, cache, params, index, labels, val_set,
                   TrainConfig(lr=0.05, max_epochs=50, patience=patience))
    assert np.array_equal(report.val_trace, trace, equal_nan=True)
    assert report.best_epoch == best_epoch
    assert report.best_metric == trace[best_epoch - 1]
    # validation v runs before epoch v + 1's step, so the stop leaves one step per entry
    assert report.epochs_run == len(trace)
    # the oracle stopper, fed the same trace, stops at its last entry with the same best
    stopper = EarlyStopper(patience)
    stops = []
    for metric in trace:
        stopper.update(metric)
        stops.append(stopper.should_stop)
    assert stops == [False] * (len(trace) - 1) + [True]
    assert stopper.best_epoch == best_epoch


def test_backward_frees_the_tape_of_a_training_epoch():
    """After the sweep only leaf grads and the forward's outputs stay live, not the tape."""
    _, cache, index, labels, _ = train_inputs("full")
    params = init_params(cache, ModelConfig(**SMALL_MODEL), 4)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out, scores = forward_scores(cache, params, index)
            loss = loss_fn(scores, labels, 0.7)
        after_forward = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        after_backward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_backward < after_forward / 2
    assert scores.grad is None
    assert all(p.grad is not None for p in params.tensors.values())


def test_train_stops_at_a_non_finite_loss_without_stepping(monkeypatch):
    g, cache, index, labels, val_set = train_inputs("full")
    params = init_params(cache, ModelConfig(**SMALL_MODEL), 4)
    seen = []

    def nan_at_epoch_3(scores, labels, gamma):
        seen.append(params.state())
        loss = loss_fn(scores, labels, gamma)
        return T.smul(loss, np.nan) if len(seen) == 3 else loss

    monkeypatch.setattr(training, "loss_fn", nan_at_epoch_3)
    with pytest.raises(RuntimeError, match=r"^train: non-finite loss at epoch 3$"):
        train(g, cache, params, index, labels, val_set,
              TrainConfig(lr=0.05, max_epochs=5, patience=50))
    assert len(seen) == 3
    assert any(not np.array_equal(seen[1][name], arr) for name, arr in seen[2].items())
    for name, arr in seen[2].items():
        assert params.tensors[name].data.tobytes() == arr.tobytes()


# ---- CV protocol ----

def test_run_cv_protocol_counts():
    g = small_planted()
    pos, plan = fold_fixture(g, seed=2)
    mc = ModelConfig(**SMALL_MODEL)
    tc = TrainConfig(max_epochs=4, patience=50)
    result = run_cv(g, resolve_split(g, plan, "split"), mc, tc, 9)
    assert len(result.records) == 5
    assert result.mean["fold"] == "mean"
    for k, fold in enumerate(result.folds):
        assert fold.n_train_neg == fold.n_train_pos
        assert fold.n_train_pos == sum(len(f) for i, f in enumerate(plan.folds) if i != k)
        assert fold.report.best_ranks.shape == (len(plan.folds[k]),)
    for key in ("hit1", "hit3", "hit5", "ndcg1", "ndcg3", "ndcg5", "mrr"):
        assert result.mean[key] == pytest.approx(
            np.mean([r[key] for r in result.records]))


def test_run_cv_scores_each_fold_from_its_training_passes(monkeypatch):
    g = small_planted()
    _, plan = fold_fixture(g, seed=2)
    calls = []
    counted = training.forward
    monkeypatch.setattr(training, "forward", lambda *a: calls.append(1) or counted(*a))
    result = run_cv(g, resolve_split(g, plan, "split"), ModelConfig(**SMALL_MODEL),
                    TrainConfig(max_epochs=3, patience=50), 9)
    assert len(calls) == sum(fold.report.epochs_run + 1 for fold in result.folds)
    for fold in result.folds:
        assert fold.metrics == rank_metrics(fold.report.best_ranks)


def test_run_cv_mean_is_fold_order_invariant():
    g = small_planted()
    _, plan = fold_fixture(g, seed=2)
    mc = ModelConfig(**SMALL_MODEL)
    tc = TrainConfig(max_epochs=3, patience=50)
    result = run_cv(g, resolve_split(g, plan, "split"), mc, tc, 9)
    shuffled = list(reversed(result.records))
    for key in ("hit1", "mrr"):
        assert np.mean([r[key] for r in shuffled]) == pytest.approx(result.mean[key])


def test_run_cv_is_deterministic():
    g = small_planted()
    _, plan = fold_fixture(g, seed=2)
    mc = ModelConfig(**SMALL_MODEL)
    tc = TrainConfig(max_epochs=3, patience=50)
    split = resolve_split(g, plan, "split")
    r1 = run_cv(g, split, mc, tc, 9)
    r2 = run_cv(g, split, mc, tc, 9)
    assert r1.records == r2.records


def test_resolve_split_resolves_each_id_to_its_positive():
    g = small_planted()
    pos, plan = fold_fixture(g, seed=2)
    split = resolve_split(g, plan, "split", positives_by_id(g))
    again = resolve_split(g, plan, "split")
    assert (split.plan, split.known) == (again.plan, again.known)
    for a, b in zip([split.test_positives] + split.fold_positives,
                    [again.test_positives] + again.fold_positives, strict=True):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert split.known == keys(pos)
    assert g.triplet_id(split.test_positives) == plan.test == split.test
    assert [g.triplet_id(fold) for fold in split.fold_positives] == plan.folds


def test_leakage_audit_fires_on_tampered_plan():
    g = small_planted()
    _, plan = fold_fixture(g, seed=2)
    bad = SplitPlan(test=plan.test, folds=[list(f) for f in plan.folds],
                    seed=plan.seed)
    bad.folds[1].append(bad.test[0])
    with pytest.raises(RuntimeError, match="leakage"):
        audit_no_leakage(bad)
    mc = ModelConfig(**SMALL_MODEL)
    with pytest.raises(RuntimeError, match="leakage"):
        run_cv(g, resolve_split(g, bad, "split"), mc, TrainConfig(max_epochs=2), 0)


def test_unknown_test_id_fails_before_any_training(monkeypatch):
    g = small_planted()
    _, plan = fold_fixture(g, seed=2)
    bad = SplitPlan(test=plan.test + ["g0|m0|nowhere"], folds=plan.folds,
                    seed=plan.seed)
    monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ValueError,
                       match=re.escape("split: test id 'g0|m0|nowhere' is not a known")):
        train_for_test(g, resolve_split(g, bad, "split"), ModelConfig(**SMALL_MODEL),
                       TrainConfig(), 0)


def test_empty_test_set_fails_before_any_training(monkeypatch):
    g = small_planted()
    _, plan = fold_fixture(g, seed=2)
    monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ValueError, match="no test positives"):
        train_for_test(g, resolve_split(g, SplitPlan(test=[], folds=plan.folds,
                                                     seed=plan.seed), "split"),
                       ModelConfig(**SMALL_MODEL), TrainConfig(), 0)


def test_ranking_set_ids_built_once_and_reused(monkeypatch):
    g = small_planted()
    pos = derive_positive_triplets(g)
    rset = build_ranking_set(g, pos[:4], 5, 3, keys(pos))
    assert rset.negatives.shape == (4, 5, 3) and rset.negatives.dtype == np.int64
    assert np.array_equal(rset.negatives.reshape(-1, 3),
                          sample_negatives(pos[:4], 5, 3, g.sizes, known_positives=keys(pos)))
    # a reference built one candidate at a time, each id from a single row
    pools = [[p] + list(negs) for p, negs in zip(pos[:4], rset.negatives)]
    ids = [[g.triplet_id(row[None])[0] for row in pool] for pool in pools]
    assert rset.candidate_ids == ids
    assert rset.before.dtype == bool
    assert rset.before.tolist() == [[cid < pool[0] for cid in pool] for pool in ids]
    flat = [row.tolist() for pool in pools for row in pool]
    assert rset.index.dtype == np.int64
    assert [a.tolist() for a in rset.index] == [list(col) for col in zip(*flat)]

    def no_ids(self, rows):
        raise AssertionError("scoring rebuilt a triplet id")

    monkeypatch.setattr(HetGraph, "triplet_id", no_ids)
    mc = ModelConfig(**SMALL_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 0)
    ranks, _ = score_ranking_set(g, cache, params, rset)
    scores = forward_scores(cache, params, rset.index)[1].data.reshape(4, 6)
    assert ranks.tolist() == [resolve_rank(s, ids) for s, ids in zip(scores, rset.candidate_ids)]


def test_score_ranking_set_ranks_without_a_per_pool_call(monkeypatch):
    g = small_planted()
    pos = derive_positive_triplets(g)
    rset = build_ranking_set(g, pos[:6], 30, 2, keys(pos))

    def per_pool(*args, **kwargs):
        raise AssertionError("score_ranking_set ranked one pool at a time")

    for module in (evaluation, training):
        monkeypatch.setattr(module, "make_case", per_pool, raising=False)
    mc = ModelConfig(**SMALL_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 1)
    ranks, _ = score_ranking_set(g, cache, params, rset)
    assert ranks.shape == (6,)
    assert rset.before.shape == (6, 31)


HEAD_MODEL = dict(proj_dim=16, heads=4, fusion_dim=32, mlp_hidden=128)


@pytest.mark.parametrize("n", [100, 2 * SCORE_BLOCK, 3 * SCORE_BLOCK - 68],
                         ids=["below-a-block", "two-blocks", "remainder"])
def test_blocked_scores_bit_identical_to_one_call(n):
    """Untaped, the head reads out `SCORE_BLOCK` triplets at a time; taped, all at once."""
    g = small_planted()
    mc = ModelConfig(**HEAD_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 5)
    embeddings = forward(cache, params).embeddings
    rng = np.random.default_rng(n)
    index = np.stack([rng.integers(0, size, n) for size in g.sizes])
    with Tape():
        one_call = score_triplets(embeddings, params, index).data[:, 0]
    blocked = score_triplets(embeddings, params, index).data[:, 0]
    assert blocked.shape == (n,)
    assert blocked.tobytes() == one_call.tobytes()


def test_score_ranking_set_scores_bit_identical_to_one_call(monkeypatch):
    g = small_planted()
    pos = derive_positive_triplets(g)
    rset = build_ranking_set(g, pos[:10], 30, 3, keys(pos))   # 310 candidates: 2 blocks
    mc = ModelConfig(**HEAD_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 6)
    seen = []
    ranked = training.rank_pools
    monkeypatch.setattr(training, "rank_pools", lambda s, b: seen.append(s) or ranked(s, b))
    _, embeddings = score_ranking_set(g, cache, params, rset)
    with Tape():
        one_call = score_triplets(embeddings, params, rset.index).data.reshape(10, 31)
    assert seen[0].tobytes() == one_call.tobytes()


def test_score_ranking_set_names_the_positive_of_a_non_finite_pool():
    g = small_planted()
    pos = derive_positive_triplets(g)
    rset = build_ranking_set(g, pos[:3], 5, 0, keys(pos))
    mc = ModelConfig(**SMALL_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 0)
    params.tensors["mlp_b2"].data[:] = np.nan
    with pytest.raises(ValueError, match=re.escape(
            f"non-finite score among the candidates of {rset.candidate_ids[0][0]}")):
        score_ranking_set(g, cache, params, rset)


# ---- independent test ----

def test_run_test_with_uniform_scores_follows_tie_rule():
    g = small_planted()
    _, plan = fold_fixture(g, seed=4)
    mc = ModelConfig(**SMALL_MODEL)
    cache = ModelCache(g, mc)
    params = init_params(cache, mc, 0)
    for name in ("mlp_W1", "mlp_b1", "mlp_W2", "mlp_b2"):
        params.tensors[name].data[:] = 0.0
    ranks, test_set, _ = run_test(g, resolve_split(g, plan, "split"), cache, params, seed=77)
    assert len(ranks) == len(plan.test)
    assert np.allclose(forward_scores(cache, params, test_set.index)[1].data, 0.5)
    for rank, ids in zip(ranks, test_set.candidate_ids):
        # rank equals the positive's position in ascending id order
        assert rank == 1 + sum(1 for cid in ids[1:] if cid < ids[0])
    assert all(0.0 <= v <= 1.0 for v in rank_metrics(ranks).values())


def test_run_test_rank_list_matches_test_size():
    g = small_planted()
    _, plan = fold_fixture(g, seed=4)
    mc = ModelConfig(**SMALL_MODEL)
    tc = TrainConfig(max_epochs=3, patience=50)
    split = resolve_split(g, plan, "split")
    params, _, cache = train_for_test(g, split, mc, tc, 1)
    ranks, test_set, _ = run_test(g, split, cache, params, seed=1)
    assert [ids[0] for ids in test_set.candidate_ids] == plan.test
    assert ranks.shape == (len(plan.test),)
    assert all(1 <= r <= 31 for r in ranks)
