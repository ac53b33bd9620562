"""The degenerate base layer: prime spectra of free "field with one element"
algebras and their Proj counterpart.

Points of Spec of the free algebra on n variables are in bijection with the
subsets of the variables (the ideal generated by the subset); specialization
is inclusion.  Closed points of the Proj counterpart on m+1 variables match
the F_2-rational points of PG(m, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .permgroup import PermGroup, block_automorphisms

MAX_SPEC_VARS = 20
MAX_TOPO_POINTS = 2**16


@dataclass(frozen=True)
class FiniteSpace:
    """A finite poset of points under specialization.

    Points are bitmasks over the variable indices; x <= y means x specializes
    from y ... concretely we order by subset inclusion (the generic point is
    the empty set).
    """

    n_vars: int
    points: tuple[int, ...]

    def leq(self, a: int, b: int) -> bool:
        """a is a generization of b (the ideal of a is contained in that of b)."""
        return a & b == a


def spec_points(n: int) -> FiniteSpace:
    """Spec of the free algebra on n variables: all 2**n 'variable subset' ideals."""
    if not 0 <= n <= MAX_SPEC_VARS:
        raise ValueError(f"n out of range: {n}")
    return FiniteSpace(n, tuple(range(2**n)))


def proj_c_closed_point_count(m: int) -> int:
    """Closed-point count of the Proj construction on m+1 variables.

    These correspond to the F_2-rational points of PG(m, 2).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return 2 ** (m + 1) - 1


def topo_aut_group(space: FiniteSpace) -> PermGroup:
    """Automorphisms of the specialization order, as a permutation group.

    The search is `permgroup.block_automorphisms` with the comparable pairs
    as blocks, seeded with (down-set size, up-set size): a strict relation
    a < b has the smaller down-set at a, so a map preserving comparability
    and these colours keeps the direction of the order.  The bound below is
    a hard safety stop.
    """
    pts = list(space.points)
    if len(pts) > MAX_TOPO_POINTS:
        raise ValueError("space too large for automorphism search")
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if space.leq(pts[i], pts[j]) or space.leq(pts[j], pts[i])]
    sizes = [
        (sum(space.leq(q, p) for q in pts), sum(space.leq(p, q) for q in pts))
        for p in pts
    ]
    group, _ = block_automorphisms(n, pairs, [0] * len(pairs), sizes)
    return group
