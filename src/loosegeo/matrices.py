"""Matrices attached to loose-graph morphisms.

The global matrix of a morphism acts on the ambient coordinates (one per
completion vertex) and is the 0/1 indicator of the induced completion-vertex
map.  Kernels and rank criteria are taken over F_2, matching the base layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gfq
from .graphs import LooseMorphism
from .scheme import SchemeModel


def global_matrix(morphism: LooseMorphism):
    """The matrix P acting on ambient coordinates: rows indexed by target
    completion vertices, columns by source completion vertices."""
    cmap = morphism.completion_vertex_map()
    src_names = morphism.source.completion().names
    tgt_names = morphism.target.completion().names
    tgt_index = {v: i for i, v in enumerate(tgt_names)}
    mat = [[0] * len(src_names) for _ in tgt_names]
    for j, v in enumerate(src_names):
        mat[tgt_index[cmap[v]]][j] = 1
    return tuple(tuple(row) for row in mat)


def compose_check(g: LooseMorphism, f: LooseMorphism) -> bool:
    """P_{g o f} == P_g . P_f over F_2, for composable f: G1->G2, g: G2->G3."""
    F2 = gfq.get_field(2)
    composite = g.compose(f)
    lhs = global_matrix(composite)
    rhs = gfq.mat_mul(F2, global_matrix(g), global_matrix(f))
    return lhs == rhs


@dataclass(frozen=True)
class InjectivityReport:
    rank: int
    source_dim: int
    target_dim: int
    injective: bool


def injectivity_criterion(morphism: LooseMorphism) -> InjectivityReport:
    """P defines an injective linear map iff the target is at least as large
    and P has full column rank over F_2."""
    mat = global_matrix(morphism)
    m1 = len(mat[0])
    m2 = len(mat)
    rank = gfq.mat_rank(gfq.get_field(2), mat)
    return InjectivityReport(rank, m1, m2, m2 >= m1 and rank == m1)


def kernel_f1(morphism: LooseMorphism, q: int = 2) -> dict:
    """Scheme points of the source killed by the global matrix, and the open
    complement U on which the induced rational map is defined."""
    F = gfq.get_field(q)
    mat = global_matrix(morphism)
    source = SchemeModel(morphism.source, q)
    kernel = []
    domain = []
    for p in source.points:
        img = gfq.mat_vec(F, mat, p)
        if all(c == 0 for c in img):
            kernel.append(p)
        else:
            domain.append(p)
    return {"kernel": kernel, "domain": domain}
