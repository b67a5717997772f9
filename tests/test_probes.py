"""The benchmark's probes patch hcmgnn functions by name; every name must resolve,
and the bench's child process must run each command and count what it ranked."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcmgnn import cli
from test_cli import write_config

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
CHILD = PROBES.parent / "child.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved(names):
    """The (module, attribute) names that are not callables of hcmgnn."""
    missing = []
    for mod_name, attr in names:
        owner = importlib.import_module(f"hcmgnn.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    return missing


def test_every_traced_name_resolves(probes):
    assert unresolved((mod, attr) for mod, attr, _, _ in probes.TRACED) == []


def test_every_tensor_op_and_probe_hook_resolves(probes):
    names = [("tensor", op) for op in probes.TENSOR_OPS]
    # hooked outside TRACED: the untraced probes and the split of forward
    names += [("training", "train"), ("optim", "Adam.step"),
              ("training", "score_ranking_set"), ("model", "forward")]
    assert unresolved(names) == []


@pytest.mark.parametrize("command", ["test", "cv"])
def test_bench_child_runs_the_command_and_counts_its_work(tmp_path, command):
    config, out = write_config(tmp_path)   # 3 epochs, patience above that
    result_path = tmp_path / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", HCMGNN_THREADS="1")
    proc = subprocess.run([sys.executable, str(CHILD), command, config, str(result_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["rc"] == 0

    cfg = cli.load_config(config)
    split = cli.build_split(cfg, cli.build_graph(cfg))
    doc = json.loads(Path(out, "metrics", f"{command}.json").read_text(encoding="utf-8"))
    # each run validates once per epoch on its validation fold; test also ranks the test set
    if command == "test":
        runs = [(0, doc["epochs"])]
        ranked = len(split.test_positives)
        assert sorted(result["test_ids"]) == sorted(r["id"] for r in doc["ranks"])
    else:
        runs = [(rec["fold"], rec["epochs"]) for rec in doc["folds"]]
        ranked = 0
    assert [epochs for _, epochs in runs] == [3] * len(runs)
    ranked += sum(epochs * len(split.fold_positives[k]) for k, epochs in runs)
    assert result["probes"]["epochs"] == sum(epochs for _, epochs in runs)
    assert result["probes"]["rank_candidates"] == 31 * ranked
