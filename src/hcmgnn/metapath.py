"""Metapath definitions and instance enumeration over the tri-partite graph.

A causal metapath is a length-3 type sequence visiting gene, microbe and
disease once each; its subgraph holds exactly the two relation edge sets
along the path.  Ablation families cover symmetric length-5 palindromes
and plain length-2 type pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (DISEASE, GENE, MICROBE, EntityType, HetGraph, InstanceExplosion,
                    join_rows)

MAX_INSTANCES = 10_000_000

_LETTER = {GENE: "G", MICROBE: "M", DISEASE: "D"}
_BY_LETTER = {v: k for k, v in _LETTER.items()}

CAUSAL_3 = "causal-3"
PAIRWISE_2 = "pairwise-2"
SYMMETRIC_5 = "symmetric-5"


@dataclass(frozen=True)
class Metapath:
    types: tuple[EntityType, ...]
    kind: str

    @property
    def relations(self) -> tuple[tuple[EntityType, EntityType], ...]:
        return tuple(zip(self.types[:-1], self.types[1:]))

    @property
    def name(self) -> str:
        return "-".join(_LETTER[t] for t in self.types)

    def reversed(self) -> "Metapath":
        return Metapath(tuple(reversed(self.types)), self.kind)

    def __repr__(self):
        return f"Metapath({self.name})"


def _path(letters: str, kind: str) -> Metapath:
    return Metapath(tuple(_BY_LETTER[c] for c in letters.split("-")), kind)


def causal_metapaths() -> list[Metapath]:
    """The six directed influence modes, in canonical order."""
    return [_path(s, CAUSAL_3)
            for s in ("G-M-D", "G-D-M", "D-M-G", "D-G-M", "M-D-G", "M-G-D")]


def ablation_metapaths(kind: str) -> list[Metapath]:
    if kind == SYMMETRIC_5:
        return [_path(s, SYMMETRIC_5)
                for s in ("G-M-D-M-G", "G-D-M-D-G", "M-G-D-G-M",
                          "M-D-G-D-M", "D-G-M-G-D", "D-M-G-M-D")]
    if kind == PAIRWISE_2:
        return [_path(s, PAIRWISE_2)
                for s in ("G-M", "M-G", "G-D", "D-G", "M-D", "D-M")]
    raise ValueError(f"unknown ablation metapath kind {kind!r}")


def _walks(g: HetGraph, types) -> np.ndarray:
    """Walks along `types`: the edge rows, or two half walks joined at the middle."""
    if len(types) == 2:
        return g.edge_rows[types]
    mid = len(types) // 2
    return join_rows(_walks(g, types[:mid + 1]), _walks(g, types[mid:]),
                     limit=MAX_INSTANCES)


def enumerate_instance_rows(g: HetGraph, p: Metapath) -> np.ndarray:
    """Instances of p as an (S, len(types)) array of per-type node indices.

    Rows come out in lexicographic order, so enumeration is deterministic.
    Causal-3 joins two edge sets, symmetric-5 two causal-3 halves and
    pairwise-2 is the edge set itself; node revisits are allowed.
    """
    if p.kind not in (CAUSAL_3, PAIRWISE_2, SYMMETRIC_5):
        raise ValueError(f"unknown metapath kind {p.kind!r}")
    try:
        return _walks(g, p.types)
    except InstanceExplosion as exc:
        raise InstanceExplosion(f"{p.name}: {exc}") from None


def dump_instances(path, g: HetGraph, metapaths: list[Metapath]):
    """Audit TSV: metapath name then the instance's node ids, one row each."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in metapaths:
            rows = enumerate_instance_rows(g, p)
            for row in rows:
                ids = [g.node_ids[t][int(n)] for t, n in zip(p.types, row)]
                fh.write(p.name + "\t" + "\t".join(ids) + "\n")
