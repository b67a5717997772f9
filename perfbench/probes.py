"""Probes installed around hcmgnn's functions from outside the package.

Nothing under `src/` changes: each probe replaces a module attribute or a
class method with a wrapper, and also every `from .x import f` alias of
it in the other hcmgnn modules, so calls made through any name pass
through the wrapper.

`Probes` hooks only what the end-to-end metrics need, a handful of calls
per epoch:
- the entry to `training.train` (end of set-up, and per-fold train time),
- every `Adam.step` return (epochs are the gaps between returns of one
  optimizer, so each thread and each fold is timed on its own),
- `training.score_ranking_set` (candidates ranked and time spent).

`Tracer` adds a span around every public function of the layers named in
`TRACED`.  A span is (id, name, start, end, parent id, thread id); spans
are kept in memory and summarised once the command has returned.  A span
opened on a worker thread with nothing open on it takes as parent the
innermost span open on the main thread, which is the call that handed it
the work.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

perf = time.perf_counter


def patch(owner, name: str, make):
    """Replace `owner.name` by `make(original)`, including its hcmgnn aliases.

    `owner` is a module or a class; for a class only the class attribute
    changes, which every instance sees.
    """
    original = getattr(owner, name)
    wrapped = make(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapped)
        return
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").split(".")[0] == "hcmgnn"
                and getattr(module, name, None) is original):
            setattr(module, name, wrapped)


class Probes:
    """Set-up end, epoch gaps and ranking throughput, for the untraced run."""

    def __init__(self):
        self.train_spans: list[tuple[float, float]] = []
        self.step_lists: list[list[float]] = []
        self.rank_calls: list[tuple[float, int]] = []   # (seconds, candidates)

    def install(self):
        from hcmgnn import optim, training

        def on_train(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.train_spans.append((t0, perf()))
            return wrapper

        def on_step(fn):
            @functools.wraps(fn)
            def wrapper(opt, *args, **kwargs):
                out = fn(opt, *args, **kwargs)
                returns = opt.__dict__.get("_perfbench_steps")
                if returns is None:
                    returns = opt._perfbench_steps = []
                    self.step_lists.append(returns)
                returns.append(perf())
                return out
            return wrapper

        def on_rank(fn):
            @functools.wraps(fn)
            def wrapper(g, cache, params, rset, *args, **kwargs):
                t0 = perf()
                out = fn(g, cache, params, rset, *args, **kwargs)
                seconds = perf() - t0
                self.rank_calls.append(
                    (seconds, sum(1 + len(negs) for negs in rset.negatives)))
                return out
            return wrapper

        patch(training, "train", on_train)
        patch(optim.Adam, "step", on_step)
        patch(training, "score_ranking_set", on_rank)

    def summary(self, t_entry: float) -> dict:
        gaps = [1000.0 * (b - a) for returns in self.step_lists
                for a, b in zip(returns, returns[1:])]
        first_train = min((s for s, _ in self.train_spans), default=None)
        return {
            "setup_s": None if first_train is None else first_train - t_entry,
            "epochs": sum(len(r) for r in self.step_lists),
            "epoch_gaps_ms": gaps,
            "train_spans": [[s - t_entry, e - t_entry] for s, e in self.train_spans],
            "rank_rates": [c / s for s, c in self.rank_calls],
            "rank_candidates": sum(c for _, c in self.rank_calls),
        }


# (module, attribute or "Class.method", span name, count(args, result) or None)
TRACED = [
    ("cli", "cmd_test", "cli.cmd_test", None),
    ("cli", "cmd_cv", "cli.cmd_cv", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "build_graph", "cli.build_graph", None),
    ("cli", "build_split", "cli.build_split", None),
    ("cli", "split_hash", "cli.split_hash", None),
    ("cli", "_write_json", "cli.write", None),
    ("synthetic", "generate_synthetic", "synthetic.generate", None),
    ("graph", "HetGraph.__init__", "graph.build", None),
    ("graph", "HetGraph.triplet_id", "graph.triplet_id", None),
    ("graph", "derive_positive_triplets", "graph.positives", None),
    ("graph", "sample_negatives", "graph.negatives", None),
    ("graph", "sample_training_negatives", "graph.negatives", None),
    ("graph", "make_split", "graph.split", None),
    ("graph", "avg_node_degree", "graph.avg_node_degree", None),
    ("metapath", "causal_metapaths", "metapath.causal_metapaths", None),
    ("metapath", "enumerate_instance_rows", "metapath.enumerate",
     lambda a, out: {"metapath.instances": out.shape[0]}),
    ("model", "ModelCache.__init__", "model.cache_build",
     lambda a, out: {"model.pairs": sum(n.size for n, _ in a[0].pairs.values())}),
    ("model", "init_params", "model.init_params", None),
    ("model", "feature_transform", "model.projection", None),
    ("model", "encode_instance", "model.encode", None),
    ("model", "encode_walk", "model.encode", None),
    ("model", "encode_pair", "model.encode", None),
    ("model", "instance_attention", "model.attention", None),
    ("model", "multi_head_aggregate", "model.multi_head_aggregate", None),
    ("model", "fuse_subgraphs", "model.fusion", None),
    ("model", "predict", "model.mlp", None),
    ("model", "ModelParams.save", "model.save", None),
    ("model", "ModelParams.state", "model.state", None),
    ("model", "ModelParams.load_state", "model.load_state", None),
    ("model", "ModelParams.zero_grad", "model.zero_grad", None),
    ("optim", "Adam.__init__", "optim.init", None),
    ("optim", "Adam.step", "optim.step", None),
    ("training", "loss_fn", "training.loss", None),
    ("training", "build_ranking_set", "training.build_ranking_set", None),
    ("training", "score_ranking_set", "training.rank",
     lambda a, out: {"training.rank_candidates":
                     sum(1 + len(negs) for negs in a[3].negatives)}),
    ("training", "train", "training.train", None),
    ("training", "audit_no_leakage", "training.audit", None),
    ("training", "run_cv", "training.run_cv", None),
    ("training", "train_for_test", "training.train_for_test", None),
    ("training", "run_test", "training.run_test", None),
    ("evaluation", "make_case", "evaluation.make_case", None),
    ("evaluation", "rank_metrics", "evaluation.rank_metrics", None),
    ("evaluation", "silhouette", "evaluation.silhouette",
     lambda a, out: {"evaluation.silhouette_points": len(a[0])}),
    ("evaluation", "export_embeddings", "evaluation.export", None),
    ("tensor", "Tape.backward", "tensor.backward",
     lambda a, out: {"tensor.tape_records": len(a[0])}),
]

SEGMENT_OPS = ("segment_sum", "segment_mean", "segment_softmax")
TENSOR_OPS = ("tensor", "constant", "zeros", "ones", "matmul", "transpose", "add",
              "hadamard", "smul", "concat_cols", "concat_rows", "gather_rows",
              "segment_sum", "segment_mean", "mean_rows", "row_softmax",
              "segment_softmax", "leaky_relu", "elu", "tanh", "sigmoid", "sum_sq")


def _tensor_op(op: str):
    """Span name and counts of one tensor primitive."""
    if op in SEGMENT_OPS:
        return "tensor.segment", lambda a, out: {"tensor.calls": 1,
                                                 "tensor.segment.rows": a[0].shape[0]}
    if op == "gather_rows":
        return "tensor.gather", lambda a, out: {"tensor.calls": 1,
                                                "tensor.gather.rows": out.shape[0]}
    return f"tensor.{op}", lambda a, out: {"tensor.calls": 1}


class Tracer:
    """Spans around every function in `TRACED` and every tensor primitive."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, counts: dict):
        with self._lock:
            self.counts.update(counts)

    def wrap(self, name: str, fn, count=None):
        spans, main_stack = self.spans, self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if count is not None:
                self._count(count(args, out))
            return out
        return wrapper

    def install(self):
        import importlib

        from hcmgnn import tensor

        for mod_name, attr, span, count in TRACED:
            module = importlib.import_module(f"hcmgnn.{mod_name}")
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            patch(owner, attr, lambda fn, s=span, c=count: self.wrap(s, fn, c))
        for op in TENSOR_OPS:
            span, count = _tensor_op(op)
            patch(tensor, op, lambda fn, s=span, c=count: self.wrap(s, fn, c))

        # forward is split by whether a tape records it: training or ranking
        def split_forward(fn):
            on_tape = self.wrap("model.forward_train", fn)
            off_tape = self.wrap("model.forward_rank", fn)

            @functools.wraps(fn)
            def forward(*args, **kwargs):
                if tensor.active_tape() is not None:
                    return on_tape(*args, **kwargs)
                return off_tape(*args, **kwargs)
            return forward

        from hcmgnn import model
        patch(model, "forward", split_forward)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        names: dict[str, list] = {}
        for sid, name, t0, t1, _, _ in self.spans:
            row = names.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        return {"names": {n: {"calls": c, "total_s": tot, "self_s": slf}
                          for n, (c, tot, slf) in sorted(names.items())},
                "counts": dict(sorted(self.counts.items()))}

    def dump(self, path: str):
        """Write the raw spans once, as JSON with name indices."""
        import json
        index = {n: i for i, n in enumerate(sorted({s[1] for s in self.spans}))}
        threads = {t: i for i, t in enumerate(dict.fromkeys(s[5] for s in self.spans))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
                       "names": list(index),
                       "spans": [[s[0], index[s[1]], round(s[2], 7), round(s[3], 7),
                                  s[4], threads[s[5]]] for s in self.spans]}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
