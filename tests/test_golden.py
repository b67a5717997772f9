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
    "checkpoints/fold0.json":
        "412dbffd203b317c174b77c52917fac1825e7a0641afa730417707c611c4342c",
    "checkpoints/fold1.json":
        "f46578c4a9f82e948d7f56ea7c7755cbd878a0d04ef2323ca59e81b6e58167b7",
    "checkpoints/fold2.json":
        "a6c50dba263bc04ad22531ba11443443a9d678691eb68facc443e12ddc2304b9",
    "checkpoints/fold3.json":
        "cdc14f026d8efec8285b03634f82d145823269f86bf8dfa6eb900b678fc1b80a",
    "checkpoints/fold4.json":
        "e109d8612340fafeb9af8c5fc63bb2d8d4b050eff8ecc6ffbf6ff0ec5ffb0116",
    "checkpoints/test.json":
        "3c178a59c42c457b435aae60acb0583241d92b2c81d7a361096ad44b6697c7ee",
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
        "5aebed3f67a2f213926b599f9af65580247a69fb0c7118586d3af42dab01bfe3",
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
