"""Metapath definitions and instance enumeration over the tri-partite graph.

A causal metapath is a length-3 type sequence visiting gene, microbe and
disease once each; its subgraph holds exactly the two relation edge sets
along the path.  Ablation families cover symmetric length-5 palindromes
and plain length-2 type pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DISEASE, GENE, MICROBE, EntityType, HetGraph

MAX_INSTANCES = 10_000_000

_LETTER = {GENE: "G", MICROBE: "M", DISEASE: "D"}
_BY_LETTER = {v: k for k, v in _LETTER.items()}

CAUSAL_3 = "causal-3"
PAIRWISE_2 = "pairwise-2"
SYMMETRIC_5 = "symmetric-5"


class InstanceExplosion(RuntimeError):
    """Enumeration would exceed MAX_INSTANCES for one subgraph."""


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


def _lexsorted(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] <= 1:
        return rows
    order = np.lexsort(tuple(rows[:, c] for c in reversed(range(rows.shape[1]))))
    return rows[order]


def _join_3(g: HetGraph, types) -> np.ndarray:
    """All (h, e, t) with (h,e) and (e,t) edges, joined at the middle node."""
    t0, t1, t2 = types
    rev_r1 = (t1, t0)
    r2 = (t1, t2)
    total = 0
    blocks = []
    for e in range(g.num_nodes(t1)):
        heads = g.neighbors(rev_r1, e)
        tails = g.neighbors(r2, e)
        if heads.size == 0 or tails.size == 0:
            continue
        total += heads.size * tails.size
        if total > MAX_INSTANCES:
            raise InstanceExplosion(
                f"more than {MAX_INSTANCES} instances while joining "
                f"{_LETTER[t0]}-{_LETTER[t1]}-{_LETTER[t2]}")
        h = np.repeat(heads, tails.size)
        t = np.tile(tails, heads.size)
        e_col = np.full(h.size, e, dtype=np.int64)
        blocks.append(np.stack([h, e_col, t], axis=1))
    if not blocks:
        return np.empty((0, 3), dtype=np.int64)
    return _lexsorted(np.concatenate(blocks, axis=0))


def _join_5(g: HetGraph, types) -> np.ndarray:
    """Palindromic 4-edge walks; node revisits are allowed."""
    left = _join_3(g, types[:3])
    right = _join_3(g, types[2:])
    l_by_c: dict[int, np.ndarray] = {}
    for c in np.unique(left[:, 2]) if left.size else []:
        l_by_c[int(c)] = left[left[:, 2] == c]
    r_by_c: dict[int, np.ndarray] = {}
    for c in np.unique(right[:, 0]) if right.size else []:
        r_by_c[int(c)] = right[right[:, 0] == c]

    total = 0
    blocks = []
    for c, lrows in l_by_c.items():
        rrows = r_by_c.get(c)
        if rrows is None:
            continue
        total += lrows.shape[0] * rrows.shape[0]
        if total > MAX_INSTANCES:
            raise InstanceExplosion(
                f"more than {MAX_INSTANCES} instances while joining "
                + "-".join(_LETTER[t] for t in types))
        li = np.repeat(np.arange(lrows.shape[0]), rrows.shape[0])
        ri = np.tile(np.arange(rrows.shape[0]), lrows.shape[0])
        blocks.append(np.concatenate([lrows[li, :2],
                                      np.full((li.size, 1), c, dtype=np.int64),
                                      rrows[ri, 1:]], axis=1))
    if not blocks:
        return np.empty((0, 5), dtype=np.int64)
    return _lexsorted(np.concatenate(blocks, axis=0))


def enumerate_instance_rows(g: HetGraph, p: Metapath) -> np.ndarray:
    """Instances of p as an (S, len(types)) array of per-type node indices.

    Rows come out in lexicographic order, so enumeration is deterministic.
    """
    if p.kind == CAUSAL_3:
        return _join_3(g, p.types)
    if p.kind == PAIRWISE_2:
        pairs = sorted(g.edges[(p.types[0], p.types[1])])
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(pairs, dtype=np.int64)
    if p.kind == SYMMETRIC_5:
        return _join_5(g, p.types)
    raise ValueError(f"unknown metapath kind {p.kind!r}")


def dump_instances(path, g: HetGraph, metapaths: list[Metapath]):
    """Audit TSV: metapath name then the instance's node ids, one row each."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in metapaths:
            rows = enumerate_instance_rows(g, p)
            for row in rows:
                ids = [g.node_ids[t][int(n)] for t, n in zip(p.types, row)]
                fh.write(p.name + "\t" + "\t".join(ids) + "\n")
