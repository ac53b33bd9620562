"""Collineation stabilizers and incidence-geometry automorphisms.

Two automorphism groups are attached to a point set X in PG(m-1, q):

* the projective group: collineations of the ambient space stabilizing X as
  a scheme, meaning over every extension field at once.  Membership in X is
  a support condition, so exact extension counts (point polynomials) turn
  the scheme-theoretic condition into equalities of integer polynomials.
* the combinatorial group: automorphisms of the incidence geometry whose
  points are the rational points of X and whose lines are the projective and
  complete-affine lines of X, preserved kind by kind.

Both come from the one search `permgroup.block_automorphisms` over the
classified lines.  A stabilizing collineation preserves the lines and their
kinds, so on the points the projective group is the subgroup of the
combinatorial group whose elements lift to a stabilizing collineation; the
lift is linear algebra over GF(q), one small null space per Frobenius power,
and it is the search's leaf test.  No search runs over PG(m-1, q).  Each
group is held as its generators and chain, the projective one also as the
kernel of its action on the points; orders are read off them, the fixing
subgroups and the linear part by one method, `ProjAut.fixing`.  `elements`
and `linear` list the projective group on first read as products of its
generators' lifts, and only `perms` builds point permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product

from . import gfq
from .permgroup import (
    PermGroup,
    block_automorphisms,
    compose,
    identity_perm,
    is_identity,
    orbit_sizes,
    pointwise_stabilizer,
)
from .scheme import SchemeModel, add_monomial, classify_lines, support_points


@dataclass(frozen=True)
class Collineation:
    """A semilinear map x -> M . Frob^t(x), up to scalars."""

    matrix: tuple[tuple[int, ...], ...]
    frob: int = 0


def canonical_matrix(F: gfq.FField, M) -> tuple[tuple[int, ...], ...]:
    """Scale a matrix so its first nonzero entry is 1 (projective normal form)."""
    return _square(gfq.normalize_point(F, tuple(x for row in M for x in row)), len(M))


def _square(flat, m: int) -> tuple[tuple[int, ...], ...]:
    """The m x m matrix with the m^2 entries of flat, row by row."""
    return tuple(tuple(flat[a * m:(a + 1) * m]) for a in range(m))


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
    perm = tuple(scheme.point_index.get(apply_collineation(scheme, g, p)) for p in scheme.points)
    return perm if None not in perm and len(set(perm)) == len(perm) else None


def _basis_vec(m: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(m))


def _piece_contained(scheme: SchemeModel, M, piece) -> bool:
    """Whether the image of one locally closed piece under M lies in X over
    every extension, checked with exact point polynomials of the spans of
    the columns of M on the piece's support, each taken as its echelon basis
    so that equal spans share one cache entry."""
    F = scheme.F
    cols = {i: col for i, col in enumerate(zip(*M)) if piece.support_mask >> i & 1}
    full = scheme.point_polynomial(gfq.echelon(F, cols.values()))
    if piece.kind == "gm":
        hit = [gfq.normalize_point(F, c) in scheme.point_index for c in cols.values()]
        return full == (sum(hit) - 1, 1)
    if len(cols) == 1:
        return full == (1,)
    hyp = gfq.echelon(F, (col for i, col in cols.items() if i != piece.required_bit))
    return full == add_monomial(scheme.point_polynomial(hyp), len(cols) - 1)


def collineation_stabilizes(scheme: SchemeModel, M) -> bool:
    """Exact scheme-stabilizer test for a linear collineation: mapping the
    rational points into X is checked first as a fast filter (a point sent
    to zero shows that M is singular), then `maps_pieces_into`."""
    F = scheme.F
    images = (gfq.mat_vec(F, M, p) for p in scheme.points)
    return all(any(img) and gfq.normalize_point(F, img) in scheme.point_index
               for img in images) and maps_pieces_into(scheme, M)


def maps_pieces_into(scheme: SchemeModel, M) -> bool:
    """Whether M is invertible and maps X into itself: X is the union of its
    pieces, so it does iff the image of every piece lies in X over every
    extension; then M maps each finite X(F_{q^r}) injectively, so onto."""
    return gfq.mat_rank(scheme.F, M) == scheme.m and all(
        _piece_contained(scheme, M, piece) for piece in scheme.pieces)


# -- projective stabilizer ----------------------------------------------------


MAX_LIFT_CANDIDATES = 10**5


def _conditions(F: gfq.FField, u, y) -> tuple[tuple[int, ...], ...]:
    """The m - 1 linear conditions on the m^2 entries of M, row by row, for
    M u parallel to y (or zero), y normalized: with p the pivot of y
    (y_p = 1), (M u)_b - y_b (M u)_p = 0 for each b != p."""
    m, p = len(u), y.index(1)
    rows = []
    for b in range(m):
        if b != p:
            row = [0] * (m * m)
            row[b * m:(b + 1) * m] = u
            row[p * m:(p + 1) * m] = gfq.vec_scale(F, F.neg(y[b]), u)
            rows.append(tuple(row))
    return tuple(rows)


class _Lifter:
    """Lifts of point permutations to collineations stabilizing X.

    A lift of the permutation pi is a pair (M, t) with M . Frob^t(x_i)
    parallel to x_pi(i) for every rational point x_i; those M form the null
    space of the pairs' `_conditions`.  For pi = identity and t = 0 it holds
    the scalars, and its dimension `dim` is reached already on the
    `determining` points, whose conditions raise the rank of those before
    them, up to m^2 - 1 (the scalars).  Whenever pi has a lift (M0, t), its
    space is M0 times the Frobenius twist of the identity's, so it has
    dimension `dim` on the determining points as on all of them: a solution
    there of another dimension rules pi out at once, and otherwise each of
    its elements is checked on every point, then by `maps_pieces_into`.  All
    the identity's lifts are checked, so a space of more than
    MAX_LIFT_CANDIDATES is refused."""

    def __init__(self, scheme: SchemeModel):
        F, m = scheme.F, scheme.m
        self.scheme = scheme
        self.frob_points = [[frobenius_vec(F, p, t) for p in scheme.points] for t in range(F.e)]
        rows: tuple = ()
        self.determining = []
        for i, p in enumerate(scheme.points):
            if len(rows) == m * m - 1:
                break
            grown = gfq.echelon(F, _conditions(F, p, p), rows)
            if len(grown) > len(rows):
                self.determining.append(i)
                rows = grown
        self.dim = m * m - len(rows)
        candidates = gfq.pg_size(F.q, self.dim)
        if candidates > MAX_LIFT_CANDIDATES:
            raise ValueError(
                f"the lifts of the identity form a space of dimension {self.dim}: "
                f"{candidates} candidate matrices, more than the bound {MAX_LIFT_CANDIDATES}"
            )
        self._first: dict = {}

    def lifts(self, perm):
        """Every stabilizing lift (M, t) of the permutation, M up to scalars."""
        F, m, pts = self.scheme.F, self.scheme.m, self.scheme.points
        for t, src in enumerate(self.frob_points):
            rows = [row for i in self.determining for row in _conditions(F, src[i], pts[perm[i]])]
            basis = gfq.null_space(F, rows, m * m)
            if len(basis) != self.dim:
                continue
            for lam in gfq.projective_points(F, self.dim):
                M = _square(gfq.mat_mul(F, (lam,), basis)[0], m)
                images = (gfq.mat_vec(F, M, u) for u in src)
                if all(
                    any(img) and gfq.normalize_point(F, img) == pts[j]
                    for img, j in zip(images, perm)
                ) and maps_pieces_into(self.scheme, M):
                    yield Collineation(canonical_matrix(F, M), t)

    def lift(self, perm) -> Collineation | None:
        """One stabilizing lift of the permutation, or None."""
        if perm not in self._first:
            self._first[perm] = next(self.lifts(perm), None)
        return self._first[perm]


@dataclass
class ProjAut:
    """The semilinear stabilizer of a point set: its group on the rational
    points, the `kernel` of that action (the stabilizing lifts of the
    identity, by matrix, then Frobenius power) and the lifter.  The lifts of
    a permutation are any one of them times the kernel.  Its subgroups that
    fix coordinate subspaces, and its linear part, are read by `fixing`, the
    one reader of the Frobenius ids.  `elements` and `linear` list the group
    on first read and compose no permutation; `perms` builds them."""

    scheme: SchemeModel
    perm_group: PermGroup
    kernel: list[Collineation]
    lifter: _Lifter

    @property
    def frob_count(self) -> int:
        """Number of field automorphism powers adjoined."""
        return self.scheme.F.e

    @property
    def order(self) -> int:
        return self.perm_group.order() * len(self.kernel)

    @property
    def linear_order(self) -> int:
        return self._linear_part[1]

    def _action(self, outside) -> tuple[PermGroup, int]:
        """The group as permutations of ids: 0..n-1 the rational points,
        n..n+e-1 the Frobenius powers Z/e (a lift of power t adds t), then
        the orbit of the given projective points outside X, found breadth
        first, the given points first and in order.  It is generated by the
        lifts of `perm_group`'s generators and the kernel; also returns how
        many kernel elements act trivially on every id (power 0, fixing the
        orbit), so a subgroup's order is its order here times that count."""
        F, n = self.scheme.F, len(self.scheme.points)
        gens = [(self.lifter.lift(s), s) for s in self.perm_group.generators]
        gens += [(k, identity_perm(n)) for k in self.kernel]
        ids = {p: n + F.e + i for i, p in enumerate(outside)}
        rows: list[list[int]] = [[] for _ in gens]
        queue = list(outside)
        for p in queue:
            for (g, _), row in zip(gens, rows):
                img = apply_collineation(self.scheme, g, p)
                if img not in ids:
                    ids[img] = n + F.e + len(ids)
                    queue.append(img)
                row.append(ids[img])
        perms = [
            perm + tuple(n + (t + g.frob) % F.e for t in range(F.e)) + tuple(row)
            for (g, perm), row in zip(gens, rows)
        ]
        trivial = sum(1 for perm in perms[-len(self.kernel):] if is_identity(perm))
        return PermGroup(perms, n + F.e + len(ids)), trivial

    def fixing(self, spans=(), linear: bool = False) -> tuple[PermGroup, int]:
        """The elements fixing, pointwise, the rational points of the
        coordinate subspace spanned by each listed set of completion
        vertices, only those of Frobenius power 0 if `linear`: their group
        on the rational points and their number.  With every target in X
        and no Frobenius condition (always so over a prime field) they are
        the targets' pointwise stabilizer in `perm_group` times the kernel,
        and fixing nothing is `perm_group` itself; otherwise they are the
        pointwise stabilizer in `_action` of the targets' ids and, if
        `linear`, the Frobenius id of power 0."""
        scheme = self.scheme
        F, m, n = scheme.F, scheme.m, len(scheme.points)
        targets = {
            p
            for span in spans
            for p in gfq.span_points(F, [_basis_vec(m, scheme.index[v]) for v in span])
        }
        fixed = sorted(scheme.point_index[p] for p in targets if p in scheme.point_index)
        outside = sorted(p for p in targets if p not in scheme.point_index)
        frob_id = [n] if linear and F.e > 1 else []
        if not outside and not frob_id:
            group = pointwise_stabilizer(self.perm_group, fixed) if fixed else self.perm_group
            return group, group.order() * len(self.kernel)
        group, trivial = self._action(outside)
        stab = pointwise_stabilizer(group, fixed + frob_id + [n + F.e + i for i in range(len(outside))])
        return PermGroup([g[:n] for g in stab.generators], n), stab.order() * trivial

    @cached_property
    def _linear_part(self) -> tuple[PermGroup, int]:
        return self.fixing(linear=True)

    @property
    def linear_perm_group(self) -> PermGroup:
        """The permutations with a linear lift (Frobenius power 0)."""
        return self._linear_part[0]

    def faithful_witnesses(self) -> list[Collineation]:
        """Non-identity elements acting trivially on the rational points."""
        ident = Collineation(tuple(_basis_vec(self.scheme.m, i) for i in range(self.scheme.m)))
        return [k for k in self.kernel if k != ident]

    @cached_property
    def _transversals(self) -> list[list]:
        """Each nontrivial level of `perm_group`'s chain, deepest first, as its
        lifted coset representatives: the identity, then, walking the orbit
        under the level's generators s, (s(b), s, i, M, t) for s times the i-th
        one u, u(base point) = b, (M, t) = (M_s . Frob^{t_s}(M_u), t_s + t_u).
        Only generators are lifted (`lifter.lift`): a product of stabilizing
        lifts stabilizes and induces the product permutation."""
        F, m = self.scheme.F, self.scheme.m
        out = []
        for point, gens, _ in reversed(self.perm_group.levels()):
            lifts = [self.lifter.lift(s) for s in gens]
            reps, seen = [(point, None, 0, tuple(_basis_vec(m, i) for i in range(m)), 0)], {point}
            for i, (b, _, _, M, t) in enumerate(reps):  # grows as it is walked
                for s, g in zip(gens, lifts):
                    if s[b] not in seen:
                        seen.add(s[b])
                        N = gfq.mat_mul(F, g.matrix, [frobenius_vec(F, row, g.frob) for row in M])
                        reps.append((s[b], s, i, N, (g.frob + t) % F.e))
            out.append(reps)
        return out

    @cached_property
    def _walk(self) -> tuple[list, list[int]]:
        """Every element as (matrix, Frobenius power) in normal form, sorted,
        and its index in the walk: the kernel, then level by level each
        non-identity representative times every product so far.  Products are
        (t, columns c of M): (M', t')(M, t) has the columns M'.Frob^t'(c), each
        distinct c mapped once per representative.  The normal form divides by
        the first nonzero entry of row 0, each column scaled once per scale."""
        F = self.scheme.F
        products = [(k.frob, tuple(zip(*k.matrix))) for k in self.kernel]
        for reps in self._transversals:
            columns = {c for _, cols in products for c in cols}
            images = [(t, {c: gfq.mat_vec(F, M, frobenius_vec(F, c, t)) for c in columns})
                      for *_, M, t in reps[1:]]
            products += [((t + s) % F.e, tuple(map(image.__getitem__, cols)))
                         for t, image in images for s, cols in products]
        columns = {c for _, cols in products for c in cols}
        by_lead = {a: {c: gfq.vec_scale(F, F.inv(a), c) for c in columns} for a in range(1, F.q)}
        leads = (next(filter(None, (c[0] for c in cols))) for _, cols in products)
        keys = [(tuple(zip(*map(by_lead[a].__getitem__, cols))), s)
                for a, (s, cols) in zip(leads, products)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return [keys[i] for i in order], order

    @cached_property
    def elements(self) -> list[Collineation]:
        return [Collineation(M, t) for M, t in self._walk[0]]

    @cached_property
    def perms(self) -> list:
        """Point permutations, aligned with `elements`: the walk replayed on
        the points, where the kernel acts trivially."""
        walk = [identity_perm(self.perm_group.degree)]
        for reps in self._transversals:
            us = walk[:1]
            for _, s, i, _, _ in reps[1:]:
                us.append(compose(s, us[i]))
            walk += [compose(u, perm) for u in us[1:] for perm in walk]
        return [walk[i // len(self.kernel)] for i in self._walk[1]]

    @cached_property
    def linear(self) -> list:
        """Canonical matrices of the linear stabilizer."""
        return [M for M, t in self._walk[0] if t == 0]


def proj_aut_group(scheme: SchemeModel) -> ProjAut:
    """The semilinear stabilizer, found by the line search with the lift as
    leaf test (see the module docstring)."""
    n = len(scheme.points)
    lifter = _Lifter(scheme)
    _, group, _ = _line_automorphisms(scheme, lambda perm: lifter.lift(perm) is not None)
    kernel = sorted(lifter.lifts(identity_perm(n)), key=lambda g: (g.matrix, g.frob))
    return ProjAut(scheme, group, kernel, lifter)


def exhaustive_stabilizer(scheme: SchemeModel) -> list:
    """Independent brute-force linear stabilizer, iterating every matrix.
    Only feasible for tiny parameters; used as an oracle."""
    F, m = scheme.F, scheme.m
    if F.q ** (m * m) > 10**6:
        raise ValueError("ambient matrix group too large for exhaustion")
    found = {}
    for entries in product(F.elements(), repeat=m * m):
        M = _square(entries, m)
        if collineation_stabilizes(scheme, M):
            found[canonical_matrix(F, M)] = True
    return sorted(found)


# -- distinguished subgroups -------------------------------------------------


def local_spans(scheme: SchemeModel, w: str) -> list[list[str]]:
    """The completion vertices spanning the local affine space at every inner
    vertex other than w, without the direction toward w.  Fixing an affine
    space pointwise fixes its span: a line through two fixed affine points
    has one more point, at infinity, and it is fixed too."""
    graph = scheme.graph
    if w not in graph.vertices:
        raise ValueError(f"unknown vertex {w!r}")
    return [
        [v] + [d for d in scheme.completion.neighbours(v) if d != w]
        for v in graph.inner_vertices()
        if v != w
    ]


# -- combinatorial automorphisms ---------------------------------------------


@dataclass
class CombAut:
    scheme: SchemeModel
    lines: list
    perm_group: PermGroup
    nodes: int  # search nodes: point images the backtrack accepted

    @property
    def order(self) -> int:
        return self.perm_group.order()

    @cached_property
    def perms(self) -> list:
        """Every automorphism, expanded from the chain on first read."""
        return self.perm_group.elements()


def _line_automorphisms(scheme: SchemeModel, accept=None):
    """`permgroup.block_automorphisms` with the classified lines as blocks,
    their kinds kept, one seed colour for every point and the given leaf
    test; returns the lines, the group and the search nodes."""
    lines = classify_lines(scheme)
    n = len(scheme.points)
    blocks = [[scheme.point_index[p] for p in L.points] for L in lines]
    group, nodes = block_automorphisms(n, blocks, [L.kind for L in lines], [0] * n, accept)
    return lines, group, nodes


def comb_aut_group(scheme: SchemeModel) -> CombAut:
    """The automorphisms of the point-line geometry preserving line kinds,
    found from generators with no leaf test."""
    lines, group, nodes = _line_automorphisms(scheme)
    return CombAut(scheme, lines, group, nodes)


# -- embedded inner graph -----------------------------------------------------


def embedded_inner_graph(scheme: SchemeModel) -> dict:
    """Indices of the basis points of inner vertices, and the rational point
    sets of the lines spanned by inner edges: the points with supports {a},
    {b} and {a, b} for an edge ab."""
    inner = set(scheme.graph.inner_vertices())
    bit = {v: 1 << scheme.index[v] for v in inner}

    def ids(*masks):
        return [scheme.point_index[p] for p in support_points(scheme.F, scheme.m, masks)]

    vpts = {v: ids(bit[v])[0] for v in inner}
    elines = {
        e: frozenset(ids(bit[a], bit[b], bit[a] | bit[b]))
        for e, (a, b) in scheme.graph.edges.items()
        if a in inner and b in inner
    }
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


def _pgl_generators(F: gfq.FField, m: int):
    """Matrices generating PGL(m, q): the cyclic shift of the coordinates, a
    transvection and, for q > 2, diag(alpha, 1, ..., 1) with alpha primitive."""
    rows = [_basis_vec(m, i) for i in range(m)]
    gens = [tuple(rows[1:] + rows[:1]), ((1, 1) + rows[0][2:], *rows[1:])]
    for alpha in range(2, F.q):
        if len({F.pow(alpha, k) for k in range(F.q - 1)}) == F.q - 1:
            return gens + [((alpha,) + rows[0][1:], *rows[1:])]
    return gens


class _Space:
    """PG(3, q) numbered once: points 0..P-1 in `gfq.projective_points`
    order, lines P.. with their point ids in `lines`, the line of two points
    in `line_of` and the lines through each point in `through`.  `generators`
    maps each generator of PGammaL(4, q) to its permutation of all the ids;
    the points' part is `collineation_point_perm` with the space as scheme."""

    def __init__(self, q: int):
        F = self.F = gfq.get_field(q)
        self.points = list(gfq.projective_points(F, 4))
        self.point_index = {p: i for i, p in enumerate(self.points)}
        P = len(self.points)
        self.lines: dict[int, frozenset] = {}
        self.line_of: dict[tuple[int, int], int] = {}
        self.through: list[list[int]] = [[] for _ in range(P)]
        for x, y in combinations(range(P), 2):
            if (x, y) not in self.line_of:
                L = P + len(self.lines)
                line = gfq.span_points(F, (self.points[x], self.points[y]))
                pts = self.lines[L] = frozenset(self.point_index[p] for p in line)
                for a in pts:
                    self.through[a].append(L)
                    self.line_of.update(((a, b), L) for b in pts if b != a)
        line_id = {pts: L for L, pts in self.lines.items()}
        gens = [Collineation(M) for M in _pgl_generators(F, 4)]
        if F.e > 1:
            gens.append(Collineation(tuple(_basis_vec(4, i) for i in range(4)), 1))
        self.generators = {}
        for g in gens:
            perm = collineation_point_perm(self, g)
            self.generators[g] = perm + tuple(
                line_id[frozenset(perm[a] for a in pts)] for pts in self.lines.values()
            )


MAX_CONFIGURATION_WORK = 10**6


def _bound_configuration_work(q: int) -> None:
    """Refuse an enumeration of configurations in PG(3, q) whose loops would
    visit more than MAX_CONFIGURATION_WORK candidates: ordered pairs of
    distinct points and a line through each; marked ends are counted only."""
    points = q**3 + q**2 + q + 1
    work = points * (points - 1) * (q**2 + q + 1) ** 2
    if work > MAX_CONFIGURATION_WORK:
        raise ValueError(
            f"configurations in PG(3, {q}) need about {work} candidates, "
            f"more than the bound {MAX_CONFIGURATION_WORK}"
        )


def _skew_line_pairs(space: _Space):
    """Every (x, y, xy, A, B) in PG(3, q), as ids: distinct points x and y,
    their line xy, and disjoint lines A through x and B through y, both
    other than xy."""
    lines = space.lines
    for x, y in permutations(range(len(space.points)), 2):
        xy = space.line_of[x, y]
        for A in space.through[x]:
            if A == xy:
                continue
            for B in space.through[y]:
                if B != xy and lines[A].isdisjoint(lines[B]):
                    yield x, y, xy, A, B


def enumerate_roots(q: int) -> dict:
    """All configurations (Y, x, xy, y, X) in PG(3, q): distinct points x, y,
    a line Y through x and a line X through y, both different from the line
    xy, with Y and X disjoint.  Reports the count and transitivity of the
    semilinear group on them; each is one (x, y, Y, X), since x and y fix xy."""
    _bound_configuration_work(q)
    space = _Space(q)
    x, y, _, Y, X = next(_skew_line_pairs(space))
    count = sum(1 for _ in _skew_line_pairs(space))
    return _orbit_reports(space, (x, y, Y, X), [(count, 4)])[0]


def _orbit_reports(space: _Space, start, counts) -> list[dict]:
    """For each (count, k) of `counts`, the orbit of start[:k], a
    configuration as a tuple of ids, under PGammaL(4, q) against the `count`
    configurations, its size read off one stabilizer chain based at `start`
    by orbit-stabilizer.  The configurations are defined by incidence, so
    they are permuted by every generator that maps each line to the line of
    its points' images; the first line a generator breaks this on is
    reported as `stray` in every report, none of them transitive."""
    lines = space.lines
    stray = next((L for g in space.generators.values() for L, pts in lines.items()
                  if lines.get(g[L]) != frozenset(g[a] for a in pts)), None)
    if stray is not None:
        return [{"count": count, "transitive": False, "stray": stray} for count, _ in counts]
    group = PermGroup(space.generators.values(), len(space.points) + len(lines))
    sizes = orbit_sizes(group, start)
    return [{"count": count, "orbit_size": sizes[k], "transitive": sizes[k] == count}
            for count, k in counts]


def fundament_reports(q: int) -> tuple[dict, dict]:
    """`enumerate_fundaments(q)` and `enumerate_fundaments(q, ends=True)`:
    one space, one pass over `_skew_line_pairs` counting both, and one chain
    based at (alpha, xy, beta, a, b), whose first three transversal sizes
    give the plain orbit and all five the orbit with ends."""
    _bound_configuration_work(q)
    space = _Space(q)
    lines = space.lines
    start, count, with_ends = None, 0, 0
    for x, y, xy, A, B in _skew_line_pairs(space):
        if start is None:
            start = (A, xy, B, min(lines[A] - {x}), min(lines[B] - {y}))
        count += 1
        with_ends += (len(lines[A]) - 1) * (len(lines[B]) - 1)
    return tuple(_orbit_reports(space, start, [(count, 3), (with_ends, 5)]))


def enumerate_fundaments(q: int, ends: bool = False) -> dict:
    """All configurations (alpha, xy, beta) of three lines in PG(3, q) forming
    a path spanning the space: alpha meets xy exactly in a point x, beta meets
    xy exactly in a different point y, alpha and beta are disjoint, and the
    six points involved span PG(3, q).  The last condition follows from the
    others: disjoint lines share no rational point, hence no nonzero vector,
    so their two planes in F_q^4 meet in zero and together span it.  Each is
    one (x, y, xy, A, B) of `_skew_line_pairs`, since the lines fix x and y.

    With `ends`, each configuration additionally carries one marked point on
    alpha away from x and one on beta away from y: each pair counts its
    (|alpha| - 1)(|beta| - 1) choices, and only the first is built, as the
    orbit's start.  Both reports come from `fundament_reports`."""
    return fundament_reports(q)[1 if ends else 0]
