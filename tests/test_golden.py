"""Golden outputs: every file the CLI writes, byte for byte, for one config.

All six commands run on `test_cli.write_config`'s config at 3 epochs, and
the sha256 of every data, metrics, export and checkpoint file must equal
the value recorded here.  A change that alters any output, even in the
last bit of a float, fails this test; such a change must say why and
record the new hashes.  `run.json` is left out because it holds the
output path.
"""

import hashlib
import os

from hcmgnn.cli import main
from test_cli import write_config

COMMANDS = ("synth", "cv", "test", "ablate", "stratify", "instances")

GOLDEN = {
    # the checkpoints and the exported embeddings hold model floats, so their
    # last bits follow the summation order of the stacked pass (the logit
    # a1 . h + a2 . m, relation grads scattered by relation id, the fusion's
    # segment means); the metric files here do not move with those bits.
    # The checkpoints are in the v2 format: one 6 x F `rel` table and one
    # 2F x (P * H) `attn` table in place of the per-relation and per-(path,
    # head) tensors.  Their values are the old tensors stacked, bit for bit;
    # only the names and layout in the file changed, and with them the hashes.
    # The MLP's first layer runs per node row (each table times its column
    # block of W1, b1 added to the gene rows, then one gathered sum per
    # triplet), so the scores and the backward's sums into W1, b1 and the
    # embeddings run in a new order, and the last bits of the trained
    # tensors moved (by at most 2e-16 of a tensor's largest entry in
    # `checkpoints/test.json`); every metric and export file kept its hash.
    # Each instance's message is then built from per-node tables: position
    # j's row times the product of the relations after it, the L rows summed
    # per instance, then times 1/L.  That sums in another order than the
    # walk's fold, so the checkpoints and `exports/test_embeddings.tsv`
    # moved in their last bits; every metric file kept its hash.
    # The attention then weighs node rows, not messages: per position, one
    # bincount of the weights into a node table and one batched matmul, and
    # the message half of each logit as a sum of per-position node tables.
    # The sums run in another order again, so the checkpoints (by at most
    # 2.4e-14 of a tensor's largest entry, in `checkpoints/fold2.json`) and
    # the exported embeddings moved; every metric file kept its hash.
    "checkpoints/fold0.json":
        "b2bd3bece1644e73998da2dd83da54e50f468332e87cec1a37e9be6dc2bb9c34",
    "checkpoints/fold1.json":
        "514faee2d09ecbf344f3bba11bbac52397373354107f78a277f651195cc63092",
    "checkpoints/fold2.json":
        "a5ea7426d613a718b1de58d1f9510377a6199f974a46e4d76bbcecdff5722f81",
    "checkpoints/fold3.json":
        "a53dd609aeb0f512b5c1bc25af47d0ff601f1f1ac57d25232e58c93c65a7da44",
    "checkpoints/fold4.json":
        "c64ba57ef54efcc5a86d2ae56b2848556b46ee110f9fa541ce17f64008929c0d",
    "checkpoints/test.json":
        "b7ee11af9bf4cf2c46ba746a0fc0b5375f1a61b6042585c94e944d58effeb2bd",
    "data/edges_gene_disease.tsv":
        "f2890fc1c474d40975bd0849e4feb551883fba224d03ecbdbacea5d3084c2e52",
    "data/edges_gene_microbe.tsv":
        "ad01d325884d57757588416e8a92cb1037b0144e430ec481d26df6a21e294535",
    "data/edges_microbe_disease.tsv":
        "448e006a18f33e264afbe5434370b9b1e67d33fd0dcc4357301a349cc351d409",
    "data/features_disease.csv":
        "7f8748782dcb7f43882155f57700e5833af6edb1d31400c38ec80c1959774c5f",
    "data/features_gene.csv":
        "2b1ea5a55a9c788e7d363e35ff568a51f3726a61d8fc5753694d1902499f5fd3",
    "data/features_microbe.csv":
        "1a296f7d84d15a69bdf7cb7314d711a4d6746db5ea571aef0bb997c208262579",
    "data/manifest.json":
        "e03c67442fd8e7de815a2ab62f50b2eeea8d62a9f224e6cfbf969de37eeb3bfc",
    "exports/instances.tsv":
        "c6ee4379bfff415e0cb3da75a27f68da5fe6534b8db0ebb86a7f9318f2fa18ec",
    "exports/test_embeddings.tsv":
        "7a10895a8174257db66b0dea3f9eb8b91e0c52c3263cda402bdb80de56e27007",
    "metrics/ablation.json":
        "a87d86358f38fc7edc1a3f41aac74c34b4543315feb78888445f961f8f610272",
    "metrics/cv.json":
        "b12082327d09566a135d23d44b6d79a96e41defeb578e6d6ad311aede477c90c",
    "metrics/strata.tsv":
        "d2c3da3d0df4a23d24c31925460e8b3b911b80f6017855c4529bad32019b2a1f",
    # the silhouette in test.json sums Gram-form distances, within 1e-12 of
    # the exact form but not bit-equal to it
    "metrics/test.json":
        "3d7e06d52bf8cb0ef938fbdce8c14dfe25a28c7da723204c8f7d11dbee645d20",
}


def output_hashes(out) -> dict[str, str]:
    hashes = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            if rel != "run.json":
                with open(path, "rb") as fh:
                    hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def test_every_output_matches_its_golden_hash(tmp_path):
    cfg, out = write_config(tmp_path)
    for command in COMMANDS:
        assert main([command, "--config", cfg]) == 0, command
    assert output_hashes(out) == GOLDEN
