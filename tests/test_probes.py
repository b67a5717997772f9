"""The benchmark's probes patch hcmgnn functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


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
