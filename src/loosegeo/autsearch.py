"""Collineation stabilizers and incidence-geometry automorphisms.

Two automorphism groups are attached to a point set X in PG(m-1, q):

* the projective group: collineations of the ambient space stabilizing X as
  a scheme, meaning over every extension field at once.  Membership in X is
  a support condition, so exact extension counts (scheme profiles) turn the
  scheme-theoretic condition into finitely many integer equalities.
* the combinatorial group: automorphisms of the incidence geometry whose
  points are the rational points of X and whose lines are the projective and
  complete-affine lines of X, preserved kind by kind.

Field automorphisms act coordinatewise and preserve supports, so every power
of Frobenius stabilizes X; the semilinear stabilizer is therefore the linear
one extended by the full Frobenius cycle, and only linear parts are searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import gfq
from .permgroup import PermGroup, block_automorphisms
from .scheme import SchemeModel, classify_lines, line_rational_points


@dataclass(frozen=True)
class Collineation:
    """A semilinear map x -> M . Frob^t(x), up to scalars."""

    matrix: tuple[tuple[int, ...], ...]
    frob: int = 0


def canonical_matrix(F: gfq.FField, M) -> tuple[tuple[int, ...], ...]:
    """Scale a matrix so its first nonzero entry is 1 (projective normal form)."""
    for row in M:
        for c in row:
            if c != 0:
                inv = F.inv(c)
                return tuple(tuple(F.mul(inv, x) for x in row) for row in M)
    raise ValueError("zero matrix")


def frobenius_vec(F: gfq.FField, v, t: int):
    if t % F.e == 0:
        return tuple(v)
    return tuple(F.frobenius(c, t) for c in v)


def apply_collineation(scheme: SchemeModel, g: Collineation, vec):
    F = scheme.F
    return gfq.normalize_point(F, gfq.mat_vec(F, g.matrix, frobenius_vec(F, vec, g.frob)))


def collineation_point_perm(scheme: SchemeModel, g: Collineation):
    """Permutation induced on the rational points, or None if some image
    leaves the point set."""
    perm = []
    for p in scheme.points:
        img = apply_collineation(scheme, g, p)
        i = scheme.point_index.get(img)
        if i is None:
            return None
        perm.append(i)
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm)


def _basis_vec(m: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(m))


def _piece_contained(scheme: SchemeModel, M, piece) -> bool:
    """Whether the image of one locally closed piece under M lies in X over
    every extension, checked with exact profile counts."""
    F, q, m = scheme.F, scheme.q, scheme.m
    bits = [i for i in range(m) if piece.support_mask >> i & 1]
    cols = {i: gfq.mat_vec(F, M, _basis_vec(m, i)) for i in bits}
    if piece.kind == "gm":
        prof = scheme.profile(tuple(cols.values()))
        excluded = sum(
            1 for i in bits
            if gfq.normalize_point(F, cols[i]) in scheme.point_index
        )
        return all(prof[r - 1] - excluded == q**r - 1 for r in range(1, m + 2))
    s = len(bits)
    prof_full = scheme.profile(tuple(cols[i] for i in bits))
    if s == 1:
        return all(c == 1 for c in prof_full)
    prof_hyp = scheme.profile(tuple(cols[i] for i in bits if i != piece.required_bit))
    return all(
        prof_full[r - 1] - prof_hyp[r - 1] == q ** (r * (s - 1))
        for r in range(1, m + 2)
    )


def _stabilizer_point_map(scheme: SchemeModel, M):
    """The permutation of the rational points induced by a linear
    collineation M if M stabilizes X, else None.

    X is the union of its pieces, so M stabilizes X iff the image of every
    piece under M and under M^{-1} is contained in X over all extensions.
    Mapping the rational points into X is checked first as a fast filter,
    and its point indices are the permutation; a point sent to zero shows
    that M is singular.
    """
    F = scheme.F
    perm = []
    for p in scheme.points:
        img = gfq.mat_vec(F, M, p)
        i = scheme.point_index.get(gfq.normalize_point(F, img)) if any(img) else None
        if i is None:
            return None
        perm.append(i)
    Minv = gfq.mat_inv(F, M)
    if Minv is None:
        return None
    for mat in (M, Minv):
        for piece in scheme.pieces:
            if not _piece_contained(scheme, mat, piece):
                return None
    return tuple(perm)


def collineation_stabilizes(scheme: SchemeModel, M) -> bool:
    """Exact scheme-stabilizer test for a linear collineation."""
    return _stabilizer_point_map(scheme, M) is not None


# -- projective stabilizer search -------------------------------------------


@dataclass
class ProjAut:
    """The semilinear stabilizer of a point set."""

    scheme: SchemeModel
    linear: list  # canonical matrices of the linear stabilizer
    frob_count: int  # number of field automorphism powers adjoined
    elements: list[Collineation]
    perms: list  # point permutations, aligned with elements
    perm_group: PermGroup

    @property
    def linear_order(self) -> int:
        return len(self.linear)

    @property
    def order(self) -> int:
        return len(self.elements)

    def faithful_witnesses(self) -> list[Collineation]:
        """Non-identity elements acting trivially on the rational points."""
        n = len(self.scheme.points)
        ident = tuple(range(n))
        out = []
        for g, perm in zip(self.elements, self.perms):
            if perm != ident:
                continue
            scalar = all(
                g.matrix[i][j] == (g.matrix[0][0] if i == j else 0)
                for i in range(self.scheme.m)
                for j in range(self.scheme.m)
            )
            if not (scalar and g.frob % self.scheme.F.e == 0):
                out.append(g)
        return out


def _frame_search(scheme: SchemeModel) -> dict:
    """All linear stabilizers via images of the coordinate frame.

    A linear collineation is determined by the images of the basis points
    and the unit point.  Candidate images are pruned by comparing scheme
    profiles of spans: profiles are collineation invariants, so the span of
    any subset of chosen images must match the profile of the corresponding
    coordinate span.

    The search keeps one candidate list per level: the points of PG(m-1, q)
    whose profile is that of basis point i, computed once.  Choosing the
    image p of basis point i filters the list of every deeper level k to the
    points x with profile(p, x) equal to the profile of the coordinate line
    (i, k), so each pair profile is computed once per prefix and a branch
    with an empty list is cut at once (forward checking).

    The unit point fixes the scales of the chosen images, and these are
    chosen one column at a time.  Once the scales of columns 0..c are fixed,
    the image of every rational point whose last nonzero coordinate is c is
    fixed too; a stabilizer maps X(F_q) onto itself, so a scale sending such
    a point outside X is dropped.  `_stabilizer_point_map` decides every
    complete matrix; the result maps each canonical matrix to its point
    permutation.
    """
    F, m = scheme.F, scheme.m
    basis = [_basis_vec(m, i) for i in range(m)]
    pair_ref = {
        (i, j): scheme.profile((basis[i], basis[j]))
        for i in range(m)
        for j in range(i + 1, m)
    }
    prefix_ref = [scheme.profile(tuple(basis[: k + 1])) for k in range(m)]
    by_profile: dict = {}
    for p in gfq.projective_points(F, m):
        by_profile.setdefault(scheme.profile((p,)), []).append(p)
    level_cands = [by_profile.get(scheme.profile((basis[i],)), []) for i in range(m)]
    by_last = [[] for _ in range(m)]
    for p in scheme.points:
        by_last[max(c for c in range(m) if p[c])].append(p)
    units = [c for c in F.elements() if c != 0]
    found: dict = {}
    chosen: list = []
    cols: list = []

    def scale_from(c: int) -> None:
        if c == m:
            M = tuple(zip(*cols))
            perm = _stabilizer_point_map(scheme, M)
            if perm is not None:
                found[canonical_matrix(F, M)] = perm
            return
        for lam in units if c else (1,):
            cols.append(gfq.vec_scale(F, lam, chosen[c]))
            partial = tuple(zip(*cols))
            if all(
                gfq.normalize_point(F, gfq.mat_vec(F, partial, p)) in scheme.point_index
                for p in by_last[c]
            ):
                scale_from(c + 1)
            cols.pop()

    def descend(i: int, cands: list) -> None:
        if i == m:
            scale_from(0)
            return
        for p in cands[i]:
            rows = gfq.echelon(F, chosen + [p])
            if len(rows) != i + 1 or scheme.profile(rows) != prefix_ref[i]:
                continue
            with_p: dict = {}
            deeper = cands[: i + 1]
            for k in range(i + 1, m):
                keep = []
                for x in cands[k]:
                    prof = with_p.get(x)
                    if prof is None:
                        prof = with_p[x] = scheme.profile((p, x))
                    if prof == pair_ref[(i, k)]:
                        keep.append(x)
                if not keep:
                    break
                deeper.append(keep)
            else:
                chosen.append(p)
                descend(i + 1, deeper)
                chosen.pop()

    descend(0, level_cands)
    return found


def proj_aut_group(scheme: SchemeModel) -> ProjAut:
    """The semilinear stabilizer, each element with its point permutation.

    The permutation of x -> M . Frob^t(x) is that of Frob^t followed by that
    of M: Frobenius fixes the leading 1 of a normalized point, so it maps
    normalized points to normalized points.
    """
    F, m = scheme.F, scheme.m
    found = _frame_search(scheme)
    linear = sorted(found)
    identity = tuple(_basis_vec(m, i) for i in range(m))

    def point_perm(g: Collineation):
        perm = collineation_point_perm(scheme, g)
        if perm is None:
            raise AssertionError("semilinear element left the point set")
        return perm

    frob_perms = [point_perm(Collineation(identity, t)) for t in range(F.e)]
    elements = []
    perms = []
    for M in linear:
        lin = found[M]
        for t, frob in enumerate(frob_perms):
            elements.append(Collineation(M, t))
            perms.append(tuple(lin[i] for i in frob))
    degree = len(scheme.points)
    group = PermGroup(perms, degree)
    return ProjAut(scheme, linear, F.e, elements, perms, group)


def exhaustive_stabilizer(scheme: SchemeModel) -> list:
    """Independent brute-force linear stabilizer, iterating every invertible
    matrix.  Only feasible for tiny parameters; used as an oracle."""
    F, m = scheme.F, scheme.m
    if F.q ** (m * m) > 10**6:
        raise ValueError("ambient matrix group too large for exhaustion")
    found = {}
    for entries in product(F.elements(), repeat=m * m):
        M = tuple(tuple(entries[r * m + c] for c in range(m)) for r in range(m))
        if gfq.mat_rank(F, M) != m:
            continue
        if collineation_stabilizes(scheme, M):
            found[canonical_matrix(F, M)] = True
    return sorted(found)


# -- distinguished subgroups -------------------------------------------------


def local_fixing_subgroup(proj: ProjAut, w: str) -> dict:
    """Elements fixing, pointwise, the local affine space at every inner
    vertex other than w, with the direction toward w removed at neighbours.

    The fixed sets are rational, so the filter is a finite point check.
    """
    scheme = proj.scheme
    graph = scheme.graph
    F, m = scheme.F, scheme.m
    if w not in graph.vertices:
        raise ValueError(f"unknown vertex {w!r}")
    targets = []
    for v in graph.inner_vertices():
        if v == w:
            continue
        dirs = [d for d in scheme.completion.neighbours(v) if d != w]
        vbit = scheme.index[v]
        dbits = [scheme.index[d] for d in dirs]
        for vals in product(F.elements(), repeat=len(dbits)):
            vec = [0] * m
            vec[vbit] = 1
            for i, c in zip(dbits, vals):
                vec[i] = c
            targets.append(gfq.normalize_point(F, tuple(vec)))
    keep = []
    keep_perms = []
    for g, perm in zip(proj.elements, proj.perms):
        if all(apply_collineation(scheme, g, p) == p for p in targets):
            keep.append(g)
            keep_perms.append(perm)
    group = PermGroup(keep_perms, len(scheme.points))
    return {
        "vertex": w,
        "elements": keep,
        "perms": keep_perms,
        "group": group,
        "order": len(keep),
        "fixed_points": targets,
    }


def plane_pointwise_stabilizer(proj: ProjAut, completion_vertices) -> dict:
    """Elements fixing, pointwise, the rational points of the coordinate
    subspace spanned by the given completion vertices."""
    scheme = proj.scheme
    F, m = scheme.F, scheme.m
    pts = gfq.span_points(F, [_basis_vec(m, scheme.index[v]) for v in completion_vertices])
    keep = [
        g
        for g in proj.elements
        if all(apply_collineation(scheme, g, p) == p for p in pts)
    ]
    return {"elements": keep, "order": len(keep), "fixed_points": pts}


# -- combinatorial automorphisms ---------------------------------------------


@dataclass
class CombAut:
    scheme: SchemeModel
    lines: list
    perms: list  # every automorphism, expanded from the chain
    perm_group: PermGroup
    nodes: int  # search nodes: point images the backtrack accepted

    @property
    def order(self) -> int:
        return len(self.perms)


def comb_aut_group(scheme: SchemeModel) -> CombAut:
    """The automorphisms of the point-line geometry preserving line kinds,
    found from generators by `permgroup.block_automorphisms` with the
    classified lines as blocks and one seed colour for every point."""
    lines = classify_lines(scheme)
    n = len(scheme.points)
    blocks = [[scheme.point_index[p] for p in L.points] for L in lines]
    group, nodes = block_automorphisms(n, blocks, [L.kind for L in lines], [0] * n)
    return CombAut(scheme, lines, group.elements(), group, nodes)


# -- embedded inner graph -----------------------------------------------------


def embedded_inner_graph(scheme: SchemeModel) -> dict:
    """Indices of the basis points of inner vertices, and the rational point
    sets of the lines spanned by inner edges."""
    graph = scheme.graph
    inner = set(graph.inner_vertices())
    vpts = {
        v: scheme.point_index[gfq.normalize_point(scheme.F, _basis_vec(scheme.m, scheme.index[v]))]
        for v in inner
    }
    elines = {}
    for e, (a, b) in graph.edges.items():
        if a in inner and b in inner:
            basis = (_basis_vec(scheme.m, scheme.index[a]), _basis_vec(scheme.m, scheme.index[b]))
            pts = frozenset(scheme.point_index[p] for p in line_rational_points(scheme.F, basis))
            elines[e] = pts
    return {"vertex_points": vpts, "edge_lines": elines}


def inner_graph_property(scheme: SchemeModel, perms) -> dict:
    """Whether every given point permutation stabilizes the embedded inner
    graph: the inner vertex points setwise and the inner edge lines setwise."""
    emb = embedded_inner_graph(scheme)
    vset = frozenset(emb["vertex_points"].values())
    lset = frozenset(emb["edge_lines"].values())
    for perm in perms:
        if frozenset(perm[i] for i in vset) != vset:
            return {"holds": False, "witness": perm, "reason": "vertex points moved"}
        if frozenset(frozenset(perm[i] for i in L) for L in lset) != lset:
            return {"holds": False, "witness": perm, "reason": "edge lines moved"}
    return {"holds": True, "witness": None, "reason": None}


# -- configurations in PG(3, q) ----------------------------------------------


def _pg_lines(F: gfq.FField, m: int):
    pts = list(gfq.projective_points(F, m))
    lines = {}
    for i, p in enumerate(pts):
        for p2 in pts[i + 1:]:
            key = gfq.echelon(F, (p, p2))
            if key not in lines:
                lines[key] = frozenset(line_rational_points(F, (p, p2)))
    return lines


def _pgl_generators(F: gfq.FField, m: int):
    alpha = None
    for c in range(2, F.q):
        seen, x = set(), c
        while x not in seen:
            seen.add(x)
            x = F.mul(x, c)
        if len(seen) == F.q - 1:
            alpha = c
            break
    if alpha is None:
        alpha = 1
    ident = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    cyc = tuple(tuple(1 if j == (i + 1) % m else 0 for j in range(m)) for i in range(m))
    trans = [row[:] for row in ident]
    trans[0][1] = 1
    diag = [row[:] for row in ident]
    diag[0][0] = alpha
    gens = [cyc, tuple(tuple(r) for r in trans)]
    if alpha != 1:
        gens.append(tuple(tuple(r) for r in diag))
    return gens


def _act_line(F: gfq.FField, M, line_key):
    rows = tuple(gfq.mat_vec(F, M, r) for r in line_key)
    return gfq.echelon(F, rows)


def enumerate_roots(q: int) -> dict:
    """All configurations (Y, x, xy, y, X) in PG(3, q): distinct points x, y,
    a line Y through x and a line X through y, both different from the line
    xy, with Y and X disjoint.  Reports the count and transitivity of the
    semilinear group on them."""
    F = gfq.get_field(q)
    m = 4
    lines = _pg_lines(F, m)
    pts = list(gfq.projective_points(F, m))
    through = {p: [k for k, s in lines.items() if p in s] for p in pts}
    roots = set()
    for x in pts:
        for y in pts:
            if x == y:
                continue
            xy = gfq.echelon(F, (x, y))
            for Y in through[x]:
                if Y == xy:
                    continue
                ys = lines[Y]
                for X in through[y]:
                    if X == xy or lines[X] & ys:
                        continue
                    roots.add((x, y, Y, X))
    return _orbit_report(F, m, roots, _act_root)


def _act_root(F, M, root):
    x, y, Y, X = root
    return (
        gfq.normalize_point(F, gfq.mat_vec(F, M, x)),
        gfq.normalize_point(F, gfq.mat_vec(F, M, y)),
        _act_line(F, M, Y),
        _act_line(F, M, X),
    )


def _frob_config(F, t, config):
    out = []
    for part in config:
        if isinstance(part[0], tuple):
            out.append(gfq.echelon(F, tuple(frobenius_vec(F, r, t) for r in part)))
        else:
            out.append(gfq.normalize_point(F, frobenius_vec(F, part, t)))
    return tuple(out)


def _orbit_report(F, m, configs, act) -> dict:
    gens = _pgl_generators(F, m)
    start = next(iter(configs))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cfg in frontier:
            images = [act(F, M, cfg) for M in gens]
            if F.e > 1:
                images.append(_frob_config(F, 1, cfg))
            for img in images:
                if img not in seen:
                    if img not in configs:
                        raise AssertionError("orbit left the configuration set")
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return {
        "count": len(configs),
        "orbit_size": len(seen),
        "transitive": len(seen) == len(configs),
    }


def enumerate_fundaments(q: int, ends: bool = False) -> dict:
    """All configurations (alpha, xy, beta) of three lines in PG(3, q) forming
    a path spanning the space: alpha meets xy exactly in a point x, beta meets
    xy exactly in a different point y, alpha and beta are disjoint, and the
    six points involved span PG(3, q).

    With `ends`, each configuration additionally carries one marked point on
    alpha away from x and one on beta away from y."""
    F = gfq.get_field(q)
    m = 4
    lines = _pg_lines(F, m)
    pts = list(gfq.projective_points(F, m))
    through = {p: [k for k, s in lines.items() if p in s] for p in pts}
    configs = set()
    for x in pts:
        for y in pts:
            if x == y:
                continue
            xy = gfq.echelon(F, (x, y))
            for A in through[x]:
                if A == xy:
                    continue
                for B in through[y]:
                    if B == xy or lines[A] & lines[B]:
                        continue
                    if gfq.span_dim(F, list(A) + list(B)) != m:
                        continue
                    if not ends:
                        configs.add((A, xy, B))
                        continue
                    for c in lines[A] - {x}:
                        for d in lines[B] - {y}:
                            configs.add((A, xy, B, c, d))
    return _orbit_report(F, m, configs, _act_fund)


def _act_fund(F, M, cfg):
    out = []
    for part in cfg:
        if isinstance(part[0], tuple):
            out.append(_act_line(F, M, part))
        else:
            out.append(gfq.normalize_point(F, gfq.mat_vec(F, M, part)))
    return tuple(out)
