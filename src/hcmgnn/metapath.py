"""Metapath definitions and instance enumeration over the tri-partite graph.

A metapath is its type sequence, named by the types' letters ("G-M-D").
A causal metapath is a length-3 sequence visiting gene, microbe and
disease once each; its subgraph holds exactly the two relation edge sets
along the path.  Ablation families cover symmetric length-5 palindromes
and plain length-2 type pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DISEASE, GENE, MICROBE, EntityType, HetGraph, join_rows

_LETTER = {GENE: "G", MICROBE: "M", DISEASE: "D"}
_BY_LETTER = {v: k for k, v in _LETTER.items()}

# the three families, each path by name; a family's paths share one length
CAUSAL_3 = ("G-M-D", "G-D-M", "D-M-G", "D-G-M", "M-D-G", "M-G-D")
SYMMETRIC_5 = ("G-M-D-M-G", "G-D-M-D-G", "M-G-D-G-M", "M-D-G-D-M", "D-G-M-G-D", "D-M-G-M-D")
PAIRWISE_2 = ("G-M", "M-G", "G-D", "D-G", "M-D", "D-M")


@dataclass(frozen=True)
class Metapath:
    types: tuple[EntityType, ...]

    def __post_init__(self):
        if len(self.types) < 2:
            raise ValueError(f"a metapath needs at least 2 types, got {len(self.types)}")

    @property
    def relations(self) -> tuple[tuple[EntityType, EntityType], ...]:
        return tuple(zip(self.types[:-1], self.types[1:]))

    @property
    def name(self) -> str:
        return "-".join(_LETTER[t] for t in self.types)

    def __repr__(self):
        return f"Metapath({self.name})"


def metapaths(names) -> list[Metapath]:
    """The metapaths of `names` such as "G-M-D", in order."""
    return [Metapath(tuple(_BY_LETTER[c] for c in name.split("-"))) for name in names]


def causal_metapaths() -> list[Metapath]:
    """The six directed influence modes, in canonical order."""
    return metapaths(CAUSAL_3)


def _walks(g: HetGraph, types) -> np.ndarray:
    """Walks along `types`: the edge rows, or two half walks joined at the middle."""
    if len(types) == 2:
        return g.edge_rows[types]
    mid = len(types) // 2
    return join_rows(_walks(g, types[:mid + 1]), _walks(g, types[mid:]))


def enumerate_instance_rows(g: HetGraph, p: Metapath) -> np.ndarray:
    """Instances of p as an (S, len(types)) array of per-type node indices.

    Rows come out in lexicographic order, so enumeration is deterministic.
    A length-2 path is the edge set itself, and a longer one joins its two
    halves at the middle type: length 3 joins two edge sets, length 5 two
    length-3 halves.  Node revisits are allowed.
    """
    return _walks(g, p.types)


def count_instances(g: HetGraph, p: Metapath) -> int:
    """How many instances p has, counted per end node along the path, building none."""
    walks = np.ones(g.num_nodes(p.types[0]))
    for rel in p.relations:
        rows = g.edge_rows[rel]
        walks = np.bincount(rows[:, 1], weights=walks[rows[:, 0]],
                            minlength=g.num_nodes(rel[1]))
    return int(walks.sum())


def dump_instances(path, g: HetGraph, metapaths: list[Metapath]):
    """Audit TSV: metapath name then the instance's node ids, one row each."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in metapaths:
            rows = enumerate_instance_rows(g, p)
            for row in rows:
                ids = [g.node_ids[t][int(n)] for t, n in zip(p.types, row)]
                fh.write(p.name + "\t" + "\t".join(ids) + "\n")
