"""hcmgnn's benchmark: drive the real CLI, check its outputs, report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the CLI runs in a fresh process (`child.py`), so peak
RSS is per invocation.  A run makes as many invocations as fit in
`--seconds`, rounded to the nearest, and at least two, so that their outputs
can be compared; the reported figures are medians over invocations, and
epoch percentiles over all epochs pooled.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics.  With `--trace 1` the run makes one untraced
invocation, for the tracing overhead, and then traced ones, and the JSON
holds the per-layer metrics.  The lines before it are the human report:
the environment record, every metric with its unit, the output checks and
the counts compared between invocations.

Scratch files and the record of earlier runs live in
`.bench_build/perfbench/` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BLAS_THREADS, WORKLOADS, Workload  # noqa: E402

WORK = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0          # a run ends well inside the 180 s it is allowed
MIN_INVOCATIONS = 2
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)
METRIC_KEYS = ("hit1", "hit3", "hit5", "ndcg1", "ndcg3", "ndcg5", "mrr")
LAYERS = ("cli", "synthetic", "graph", "metapath", "model", "tensor", "optim",
          "training", "evaluation")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "epoch_ms.p50": "ms",
    "epoch_ms.tail": "ms",
    "rank_candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTS = ("tensor.tape_records", "tensor.calls", "tensor.segment.rows",
          "tensor.gather.rows", "metapath.instances", "model.pairs",
          "training.rank_candidates", "graph.triplet_id_calls",
          "evaluation.silhouette_points", "cli.bytes_written")
# per epoch: the run's total divided by its epochs; per run: the run's total
PER_EPOCH_MS = {
    "tensor.backward_ms": ("tensor.backward",),
    "tensor.segment_ms": ("tensor.segment",),
    "tensor.gather_ms": ("tensor.gather",),
    "model.forward_train_ms": ("model.forward_train",),
    "model.forward_rank_ms": ("model.forward_rank",),
    "model.projection_ms": ("model.projection",),
    "model.encode_ms": ("model.encode",),
    "model.attention_ms": ("model.attention",),
    "model.fusion_ms": ("model.fusion",),
    "model.mlp_ms": ("model.mlp",),
    "optim.step_ms": ("optim.step",),
    "training.rank_ms": ("training.rank",),
    "graph.triplet_id_ms": ("graph.triplet_id",),
    "evaluation.make_case_ms": ("evaluation.make_case",),
}
PER_RUN_MS = {
    "model.cache_build_ms": ("model.cache_build",),
    "model.save_ms": ("model.save",),
    "graph.positives_ms": ("graph.positives",),
    "graph.negatives_ms": ("graph.negatives",),
    "graph.split_ms": ("graph.split",),
    "synthetic.generate_ms": ("synthetic.generate",),
    "evaluation.silhouette_ms": ("evaluation.silhouette",),
    "evaluation.export_ms": ("evaluation.export",),
    "cli.write_ms": ("cli.write",),
}
PER_LAYER = {
    **{name: "ms" for name in PER_EPOCH_MS},
    "model.forward_self_ms": "ms",
    **{name: "ms" for name in PER_RUN_MS},
    "training.fold_ms": "ms",
    "training.fold_overlap": "ratio",
    **{name: "count" for name in COUNTS},
    **{f"share.{layer}": "%" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_pct": "%",
}


class Failure(Exception):
    """An invocation's command failed or its outputs did not check out."""


# ---------------------------------------------------------------- statistics

def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least 10 samples above it, and its rank.

    Returns (value, percentile); with 10 samples or fewer it falls back to
    the maximum and reports percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    k = n - 10
    return ordered[k - 1], math.floor(100 * k / n)


# ---------------------------------------------------------------- checks

def _in_unit_range(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def _check_record(rec: dict, where: str):
    for key in METRIC_KEYS:
        if not _in_unit_range(rec.get(key)):
            raise Failure(f"{where}: {key}={rec.get(key)!r} is not a finite value in [0, 1]")
    if rec["hit1"] != rec["ndcg1"]:
        raise Failure(f"{where}: hit1={rec['hit1']!r} != ndcg1={rec['ndcg1']!r}")


def check_outputs(w: Workload, out: Path, child: dict) -> tuple[str, float]:
    """Check the metrics file; return its sha256 and the run's MRR."""
    name = "test.json" if w.command == "test" else "cv.json"
    path = out / "metrics" / name
    raw = path.read_bytes()
    doc = json.loads(raw)
    if w.command == "test":
        _check_record(doc["metrics"], name)
        ids = [r["id"] for r in doc["ranks"]]
        expected = child["test_ids"]
        if len(ids) != len(expected) or set(ids) != set(expected):
            raise Failure(f"{name}: {len(ids)} ranks for {len(expected)} test positives")
        if not (isinstance(doc["silhouette"], float)
                and -1.0 <= doc["silhouette"] <= 1.0):
            raise Failure(f"{name}: silhouette {doc['silhouette']!r} outside [-1, 1]")
        mrr = doc["metrics"]["mrr"]
    else:
        if len(doc["folds"]) != 5:
            raise Failure(f"{name}: {len(doc['folds'])} fold records, expected 5")
        for rec in doc["folds"]:
            _check_record(rec, f"{name} fold {rec.get('fold')}")
        _check_record(doc["mean"], f"{name} mean")
        mrr = doc["mean"]["mrr"]
    return hashlib.sha256(raw).hexdigest(), mrr


# ---------------------------------------------------------------- one invocation

def host_steal_s() -> float:
    """CPU-seconds, summed over this machine's CPUs, that the hypervisor gave to others."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def cpu_set(w: Workload, n: int) -> list[int]:
    """The CPUs of a run's n-th invocation: one per compute thread.

    A child pinned to its CPUs runs far steadier than one left free to
    migrate, but each CPU drifts in speed with what the host runs beside
    it, largely apart from the other CPU.  So the invocations of a run
    rotate through the CPUs, and every run samples each of them.
    """
    first = n * w.compute_threads
    return [CPUS[(first + j) % NPROC] for j in range(w.compute_threads)]


def invoke(w: Workload, seed: int, epochs: int, traced: bool, timeout: float,
           cpus: list[int]) -> dict:
    """Run the CLI once in a fresh process on `cpus`; return its timings and checks."""
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK / "runs"))
    try:
        out = run_dir / "out"
        config = run_dir / "config.json"
        config.write_text(json.dumps(w.config(seed, str(out), epochs)))
        result = run_dir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), w.command, str(config), str(result)]
        if traced:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            cmd += ["--trace", str(WORK / "traces" / f"{w.name}-seed{seed}.json")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                   OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS),
                   HCMGNN_THREADS=str(w.threads))
        os.sched_setaffinity(0, cpus)  # the child inherits it
        steal = host_steal_s()
        spawn_clock = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=run_dir, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
        steal = host_steal_s() - steal
        if proc.returncode != 0 or not result.exists():
            return {"ok": False, "error": f"child exited {proc.returncode}: "
                                          f"{proc.stderr.strip()[-400:]}"}
        child = json.loads(result.read_text())
        elapsed = time.monotonic() - spawn_clock
        # from spawn to the command's return; the child's own checks come after
        wall = child["exit_clock"] - spawn_clock
        if child["rc"] != 0:
            return {"ok": False, "error": f"hcmgnn {w.command} exited {child['rc']}: "
                                          f"{proc.stderr.strip()[-400:]}"}
        env_rec = child["env"]
        if env_rec["blas_threads"] not in (None, BLAS_THREADS):
            return {"ok": False, "error": f"OpenBLAS runs {env_rec['blas_threads']} "
                                          f"threads, pinned to {BLAS_THREADS}"}
        try:
            sha, mrr = check_outputs(w, out, child)
        except (Failure, KeyError, ValueError, OSError) as exc:
            return {"ok": False, "error": f"output check: {exc}"}
        return {"ok": True, "wall_s": wall, "elapsed_s": elapsed, "steal_s": steal,
                "sha256": sha, "mrr": mrr, "child": child}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------- metrics

def end_to_end(runs: list[dict]) -> tuple[dict, str]:
    gaps = [g for r in runs for g in r["child"]["probes"]["epoch_gaps_ms"]]
    tail_ms, pct = tail(gaps)
    rates = [x for r in runs for x in r["child"]["probes"]["rank_rates"]]
    rank_n = sum(r["child"]["probes"]["rank_candidates"] for r in runs)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["child"]["probes"]["setup_s"] for r in runs),
        "epoch_ms.p50": statistics.median(gaps),
        "epoch_ms.tail": tail_ms,
        "rank_candidates_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(r["child"]["peak_rss_mb"] for r in runs),
    }
    note = (f"epoch_ms.tail is p{pct} of {len(gaps)} epoch samples; "
            f"wall_s, setup_s and peak_rss_mb are medians of {len(runs)} invocations; "
            f"rank_candidates_per_s is the median of {len(rates)} ranking calls, "
            f"{rank_n} candidates in all")
    return metrics, note


def per_layer(run: dict, w: Workload, untraced_wall: float) -> dict:
    child = run["child"]
    names, counts = child["trace"]["names"], child["trace"]["counts"]
    epochs = child["probes"]["epochs"]

    def total_ms(spans):
        return 1000.0 * sum(names.get(s, {}).get("total_s", 0.0) for s in spans)

    trains = child["probes"]["train_spans"]
    train_total = sum(e - s for s, e in trains)
    train_phase = max(e for _, e in trains) - min(s for s, _ in trains)
    wall = run["wall_s"]
    m = {name: total_ms(spans) / epochs for name, spans in PER_EPOCH_MS.items()}
    m["model.forward_self_ms"] = 1000.0 * sum(
        names.get(s, {}).get("self_s", 0.0)
        for s in ("model.forward_train", "model.forward_rank")) / epochs
    m.update({name: total_ms(spans) for name, spans in PER_RUN_MS.items()})
    m["training.fold_ms"] = 1000.0 * train_total / len(trains)
    m["training.fold_overlap"] = train_total / (w.threads * train_phase)
    m.update({
        "tensor.tape_records": counts.get("tensor.tape_records", 0),
        "tensor.calls": counts.get("tensor.calls", 0),
        "tensor.segment.rows": counts.get("tensor.segment.rows", 0),
        "tensor.gather.rows": counts.get("tensor.gather.rows", 0),
        "metapath.instances": counts.get("metapath.instances", 0),
        "model.pairs": counts.get("model.pairs", 0),
        "training.rank_candidates": counts.get("training.rank_candidates", 0),
        "graph.triplet_id_calls": names.get("graph.triplet_id", {}).get("calls", 0),
        "evaluation.silhouette_points": counts.get("evaluation.silhouette_points", 0),
        "cli.bytes_written": child["out_bytes"],
    })
    for layer in LAYERS:
        self_s = sum(v["self_s"] for n, v in names.items() if n.split(".")[0] == layer)
        m[f"share.{layer}"] = 100.0 * self_s / wall
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.unaccounted_pct"] = 100.0 * (wall - names["cli.main"]["total_s"]) / wall
    return m


# ---------------------------------------------------------------- record of runs

def source_key(w: Workload, config: dict) -> str:
    """Identity of (program source, command, config): runs that share it must agree."""
    h = hashlib.sha256(json.dumps([w.command, w.threads,
                                   {k: v for k, v in config.items() if k != "out"}],
                                  sort_keys=True).encode())
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:24]


class Record:
    """What earlier runs of the same source and config produced."""

    def __init__(self, key: str):
        self.path = WORK / "record" / f"{key}.json"
        self.doc = json.loads(self.path.read_text()) if self.path.exists() else {}

    def agree(self, field: str, value) -> object:
        """The earlier value of `field`, storing `value` if there was none."""
        return self.doc.setdefault(field, value)

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------- one run

def run(w: Workload, seed: int, seconds: float, trace: bool,
        epochs: int | None = None) -> tuple[list[str], dict]:
    """Invoke the CLI repeatedly for `seconds`; return the report and result."""
    epochs = w.epochs if epochs is None else epochs
    start = time.perf_counter()
    lines = [f"perfbench {w.name} seed={seed} trace={int(trace)} epochs={epochs}"]
    invocations: list[dict] = []
    untraced_wall = None
    if trace:
        first = invoke(w, seed, epochs, False, DEADLINE_S, cpu_set(w, seed))
        first["traced"] = False
        invocations.append(first)
        untraced_wall = first.get("wall_s", 0.0)

    # Invocations run back to back while the next one, judged by the last,
    # ends less than half an invocation past `seconds`: as many as fit,
    # rounded to the nearest, and at least two, so that their outputs can be
    # compared.
    done = 0
    while True:
        spent = time.perf_counter() - start
        last = invocations[-1].get("elapsed_s", 0.0) if invocations else 0.0
        if done >= MIN_INVOCATIONS and spent + last / 2 > seconds:
            break
        if invocations and DEADLINE_S - spent < 1.5 * last:
            break
        r = invoke(w, seed, epochs, trace, DEADLINE_S - spent,
                   cpu_set(w, seed + len(invocations)))
        r["traced"] = trace
        invocations.append(r)
        done += 1
        if not r["ok"] and r["error"].startswith("timed out"):
            break

    # outputs must be identical between invocations and with earlier runs
    record = Record(source_key(w, w.config(seed, "", epochs)))
    errors = []
    reference = None
    for i, r in enumerate(invocations):
        if not r["ok"]:
            errors.append(f"invocation {i}: {r['error']}")
            continue
        reference = reference or record.agree("metrics_sha256", r["sha256"])
        if r["sha256"] != reference:
            r["ok"] = False
            errors.append(f"invocation {i}: metrics sha256 {r['sha256'][:16]} differs "
                          f"from {reference[:16]}")
    ok = [r for r in invocations if r["ok"]]
    measured = [r for r in ok if r["traced"] == trace]
    env = (ok or [{}])[0].get("child", {}).get("env", {})
    env["cpu_affinity"] = [r["child"]["env"]["cpu_affinity"] for r in ok]  # per invocation
    lines.append("env " + json.dumps({"nproc": NPROC, **env, "workload": w.name,
                                      "seed": seed, "epochs": epochs,
                                      "command": w.command}))

    metrics: dict = {}
    if measured and trace:
        layers = [per_layer(r, w, untraced_wall) for r in measured]
        want = record.agree("counts", {k: layers[0][k] for k in COUNTS})
        drifted = 0
        for i, m in enumerate(layers):
            drift = {k: (want[k], m[k]) for k in COUNTS if m[k] != want[k]}
            if drift:
                drifted += 1
                measured[i]["ok"] = False
                errors.append(f"traced invocation {i}: counts differ (was, now): {drift}")
        metrics = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER}
        epochs_run = measured[0]["child"]["probes"]["epochs"]
        lines.append(f"per-layer figures are medians of {len(layers)} traced invocations; "
                     f"{', '.join(PER_EPOCH_MS)} are per epoch ({epochs_run} epochs a run), "
                     f"the other _ms figures per run")
        lines.append(f"counts are exact; {drifted} of {len(layers)} traced invocations "
                     f"differ from each other or from earlier runs of this source")
        if w.command == "test":
            lines.append("training.fold_overlap: one training run on one thread, "
                         "so it reads ~1 by construction")
        shares = sum(metrics[f"share.{layer}"] for layer in LAYERS)
        lines.append(f"layer self times sum to {shares:.1f}% of traced wall "
                     f"(a threaded workload counts every thread); the other "
                     f"{metrics['trace.unaccounted_pct']:.1f}% lies outside cli.main "
                     f"(interpreter start, imports, probe set-up)")
    elif measured:
        metrics, note = end_to_end(measured)
        mrrs = {r["mrr"] for r in measured}
        lines.append(note)
        lines.append(f"mrr {statistics.median(mrrs)!r} (deterministic for a seed; "
                     f"{'test MRR' if w.command == 'test' else 'mean fold MRR'})")
    record.save()

    if ok:
        lines.append(f"host steal during the invocations: "
                     f"{sum(r['steal_s'] for r in ok):.2f} CPU-s over "
                     f"{sum(r['elapsed_s'] for r in ok):.1f} s (timings are unreliable "
                     f"when this is more than a few percent)")
    attempted = len(invocations)
    failed = sum(1 for r in invocations if not r["ok"])
    lines.append(f"error_rate {failed}/{attempted} = {failed / attempted:.3f}")
    lines.append(f"metrics sha256 {reference}")
    units = PER_LAYER if trace else END_TO_END
    lines.extend(f"{name} {metrics[name]!r} {units[name]}" for name in units if name in metrics)
    lines.extend(f"FAIL {e}" for e in errors)
    lines.append(f"{attempted} invocations in {time.perf_counter() - start:.1f} s")
    result = {"correct": not errors and bool(measured), "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hcmgnn" / "cli.py").is_file():
        print(f"perfbench: no hcmgnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if w.compute_threads > NPROC:
        print(f"perfbench: {w.name} needs {w.compute_threads} compute threads "
              f"({w.threads} hcmgnn x {BLAS_THREADS} OpenBLAS) but nproc is {NPROC}",
              file=sys.stderr)
        return 2

    lines, result = run(w, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
