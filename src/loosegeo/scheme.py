"""Point sets in PG(m-1, q) attached to loose graphs.

Coordinates are indexed by completion vertices.  Every original vertex v
contributes the affine patch A_v: points supported on v and its completion
neighbours with nonzero v-coordinate.  Every vertexless edge contributes a
punctured line (its line minus the two coordinate points).

Membership is therefore a pure support condition: the point set is read
from its good supports alone, and so is its complement.  It also makes
counting over any extension F_{q^r} exact: the vectors of a subspace W over
F_{q^r} with support inside a coordinate set S number x^(k - r_S), with
x = q^r, k = dim W and r_S the F_q-rank of the columns off S of a basis of
W.  So one integer polynomial in x counts the vectors of W with a good
support, and divided by x - 1 it is the point polynomial of W, counting the
points of W in the set at every degree.  Spans of the subspace search and
the stability tests compare point polynomials; a line's polynomial is read
off its support and its rational point count (`classify_lines`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from . import gfq
from .graphs import LooseGraph

MAX_AMBIENT = 12
MAX_POINTS = 10**6


@dataclass(frozen=True)
class Piece:
    """One locally closed piece of the point set."""

    kind: str  # "vertex" or "gm"
    label: str
    support_mask: int  # coordinates the piece lives on
    required_bit: int  # vertex coordinate that must not vanish (-1 for gm)
    dim: int  # affine dimension (vertex pieces) or 1 (gm lines)


class SchemeModel:
    def __init__(self, graph: LooseGraph, q: int):
        self.graph = graph
        self.q = q
        self.F = gfq.get_field(q)
        self.completion = graph.completion()
        self.m = len(self.completion)
        if self.m == 0:
            raise ValueError("empty graph has no ambient space")
        if self.m > MAX_AMBIENT:
            raise ValueError(f"ambient dimension {self.m} exceeds bound {MAX_AMBIENT}")
        self.index = self.completion.index
        self.pieces: list[Piece] = []
        for v in graph.vertices:
            nbrs = self.completion.neighbours(v)
            mask = 1 << self.index[v]
            for w in nbrs:
                mask |= 1 << self.index[w]
            self.pieces.append(Piece("vertex", v, mask, self.index[v], len(nbrs)))
        for e, (a, b) in graph.edges.items():
            if a is None and b is None:
                ca, cb = self.completion.edge_ends[e]
                mask = (1 << self.index[ca]) | (1 << self.index[cb])
                self.pieces.append(Piece("gm", e, mask, -1, 1))
        self._good_supports = self._build_good_supports()
        if sum(q**piece.dim for piece in self.pieces if piece.kind == "vertex") > MAX_POINTS:
            raise ValueError("point set too large")
        self.points = support_points(self.F, self.m, self._good_supports)
        self.point_index = {p: i for i, p in enumerate(self.points)}
        self._poly_cache: dict = {}
        self._coeff_cache: dict = {}

    # -- membership ---------------------------------------------------------

    def _build_good_supports(self) -> frozenset[int]:
        good = set()
        for piece in self.pieces:
            if piece.kind == "gm":
                good.add(piece.support_mask)
                continue
            vbit = 1 << piece.required_bit
            good.update(_with_subsets(vbit, _bits(piece.support_mask & ~vbit)))
        return frozenset(good)

    def support_mask(self, vec) -> int:
        mask = 0
        for i, c in enumerate(vec):
            if c != 0:
                mask |= 1 << i
        return mask

    # -- counting over extensions -------------------------------------------

    def point_polynomial(self, rows) -> tuple[int, ...]:
        """Coefficients, lowest degree first and without trailing zeros, of
        the polynomial in x = q^r counting the points over F_{q^r} of the
        span of rows in X.  It is the count of the span's vectors with a good
        support, sum_S c_S x^(k - rank(union - S)) over the subsets S of the
        support union (k the dimension, ranks taken over basis columns),
        divided exactly by x - 1.  Any independent rows serve as that basis;
        rows of a lower rank than their number are eliminated first."""
        key = tuple(map(tuple, rows))
        poly = self._poly_cache.get(key)
        if poly is None:
            cols = list(zip(*key))
            ranks = gfq.subset_ranks(self.F, [col for col in cols if any(col)])
            k = len(key)
            if ranks[-1] < k:
                poly = self.point_polynomial(gfq.echelon(self.F, key))
            else:
                union = sum(1 << i for i, col in enumerate(cols) if any(col))
                count = [0] * (k + 1)
                for s, c in enumerate(self._support_coefficients(union)):
                    count[k - ranks[-1 - s]] += c  # index -1 - s is union - S
                if sum(count):  # the remainder of the division by x - 1
                    raise AssertionError(f"vector count {count} is not divisible by x - 1")
                poly = _trim([sum(count[d:]) for d in range(1, k + 1)])
            self._poly_cache[key] = poly
        return poly

    def _support_coefficients(self, union: int) -> list[int]:
        """c_S = sum of (-1)^|T - S| over the good supports T with S <= T <=
        union, for every S inside union, indexed by S's bits among union's:
        the superset Moebius transform of the good supports in union."""
        coeffs = self._coeff_cache.get(union)
        if coeffs is None:
            masks = _with_subsets(0, _bits(union))
            coeffs = [int(mask in self._good_supports) for mask in masks]
            bit = 1
            while bit < len(coeffs):
                for s in range(len(coeffs)):
                    if not s & bit:
                        coeffs[s] -= coeffs[s | bit]
                bit <<= 1
            self._coeff_cache[union] = coeffs
        return coeffs

    def count_in_subspace(self, rows, r: int) -> int:
        """Number of F_{q^r}-points of the subspace spanned by rows that lie
        in the scheme's point set."""
        x = _field_size(self.q, r)
        return sum(c * x**d for d, c in enumerate(self.point_polynomial(rows)))

    def point_count(self, r: int = 1) -> int:
        """|X(F_{q^r})| from the support census (no enumeration)."""
        x = _field_size(self.q, r)
        total = 0
        for mask in self._good_supports:
            total += (x - 1) ** (bin(mask).count("1") - 1)
        return total


def _field_size(q: int, r: int) -> int:
    """q^r, for an extension degree r of at least 1."""
    if r < 1:
        raise ValueError(f"extension degree must be at least 1, got {r}")
    return q**r


def support_points(F: gfq.FField, m: int, masks) -> list[tuple[int, ...]]:
    """The points of PG(m-1, q), sorted, whose support is one of the masks: a
    1 at the lowest bit of the mask and any nonzero entries at its other
    bits."""
    units = [c for c in F.elements() if c != 0]
    pts = []
    for mask in masks:
        lead, *rest = [i for i in range(m) if mask >> i & 1]
        for vals in product(units, repeat=len(rest)):
            vec = [0] * m
            vec[lead] = 1
            for i, c in zip(rest, vals):
                vec[i] = c
            pts.append(tuple(vec))
    return sorted(pts)


def _bits(mask: int) -> list[int]:
    """The one-bit masks of the bits set in mask, lowest first."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _with_subsets(base: int, bits) -> list[int]:
    """base | S for every union S of the given one-bit masks, listed so
    that the entry at index j holds the t-th mask exactly when bit t of j is
    set."""
    masks = [base]
    for bit in bits:
        masks += [mask | bit for mask in masks]
    return masks


def _trim(poly) -> tuple[int, ...]:
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def add_monomial(poly, d: int) -> tuple[int, ...]:
    """The polynomial poly + x^d, as a coefficient tuple without trailing zeros."""
    out = list(poly) + [0] * (d + 1 - len(poly))
    out[d] += 1
    return _trim(out)


def build_scheme(graph: LooseGraph, q: int) -> SchemeModel:
    return SchemeModel(graph, q)


# ---------------------------------------------------------------------------
# lines of the incidence geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometryLine:
    kind: str  # "projective" or "affine"
    points: tuple[tuple[int, ...], ...]  # rational points, sorted
    basis: tuple[tuple[int, ...], ...]
    missing: tuple[int, ...] | None  # the unique rational gap of an affine line


def secant_lines(scheme: SchemeModel) -> list[tuple]:
    """Each line through two rational points of the point set once, as
    (p, residue, ids): its first point p, the normalized residue of its
    other points against p, and the sorted indices in `scheme.points` of all
    its points in the set.  Each point groups the points after it by that
    residue, leaving out those on a line taken from an earlier point."""
    F, pts = scheme.F, scheme.points
    taken = [set() for _ in pts]  # i -> later points on a line taken with i
    lines = []
    for i, p in enumerate(pts):
        later = [j for j in range(i + 1, len(pts)) if j not in taken[i]]
        groups: dict = {}
        for j, residue in zip(later, gfq.residues(F, (p,), [pts[j] for j in later])):
            groups.setdefault(residue, [i]).append(j)
        for residue, ids in groups.items():
            for k in range(1, len(ids) - 1):
                taken[ids[k]].update(ids[k + 1:])
            lines.append((p, residue, tuple(ids)))
    return lines


def rich_lines(scheme: SchemeModel, lines) -> list[tuple]:
    """The secant lines with at least q rational points, as (basis, ids):
    the line's echelon basis, the point p extended by its residue, and its
    point ids.  Every projective or complete-affine line, and every span
    that holds one, has that many."""
    F, q = scheme.F, scheme.q
    return [(gfq.echelon(F, (residue,), (p,)), ids) for p, residue, ids in lines if len(ids) >= q]


def classify_lines(scheme: SchemeModel) -> list[GeometryLine]:
    """All projective and complete-affine lines of the point set: point
    polynomial 1 + x (every point over every F_{q^r} is in the set) or x
    (one of the q + 1 points is missing at every extension degree).

    A secant line (p, residue, ids) has its polynomial read off its support
    U = supp(p) | supp(residue) and its n = len(ids) rational points.  Its
    points with a zero in U are its special points, one per class of
    parallel nonzero columns (p_i, residue_i) and all rational; the others
    have support U.  So its polynomial is (n - q) + x if U is good and the
    constant n if not: the line is projective iff U is good and n = q + 1,
    and complete-affine iff U is good and n = q.  An affine line's gap is
    its one coordinate point that none of its points has."""
    F, q, pts, good = scheme.F, scheme.q, scheme.points, scheme._good_supports
    lines = []
    for p, residue, ids in secant_lines(scheme):
        n = len(ids)
        if n < q or scheme.support_mask(p) | scheme.support_mask(residue) not in good:
            continue
        basis = gfq.echelon(F, (residue,), (p,))
        inside = tuple(pts[i] for i in ids)
        if n == q + 1:
            lines.append(GeometryLine("projective", inside, basis, None))
        else:
            gap = gfq.combine(F, _missing_coordinates(F, basis, inside)[0], basis)
            lines.append(GeometryLine("affine", inside, basis, gap))
    return sorted(lines, key=lambda l: (l.kind, l.points))


# ---------------------------------------------------------------------------
# higher subspaces and the double rank
# ---------------------------------------------------------------------------

MAX_SUBSPACE_DIM = 4


@dataclass(frozen=True)
class AffinePatch:
    basis: tuple[tuple[int, ...], ...]  # projective completion P
    hyperplane: tuple[tuple[int, ...], ...]  # H with P \ H inside the scheme
    dim: int  # affine dimension


def _missing_coordinates(F: gfq.FField, basis, points) -> list[tuple[int, ...]]:
    """The points of PG(k-1, q), k = len(basis), that are the coordinates on a
    reduced echelon basis of none of the given points of its span: a point's
    entries at the pivot columns, normalized as the point is."""
    pivots = [row.index(1) for row in basis]
    have = {tuple(x[c] for c in pivots) for x in points}
    return [c for c in gfq.projective_points(F, len(basis)) if c not in have]


def _hyperplanes_of(F: gfq.FField, basis, missing=()):
    """The hyperplanes of the span of a reduced echelon basis that hold the
    points with coordinates in missing, as sorted such bases: the kernel of
    each functional c on coordinates, with c_p = 1 at its last nonzero p, is
    spanned by basis[i] - c_i basis[p] for i < p and basis[i] for i > p.
    These rows differ from basis only in basis[p]'s pivot column, which is
    none of theirs, so they are already reduced."""
    out = []
    for p, row in enumerate(basis):
        for c in product(F.elements(), repeat=p):
            if not any(gfq.mat_vec(F, missing, c + (1,))):
                head = (gfq.vec_add(F, basis[i], gfq.vec_scale(F, F.neg(c[i]), row)) for i in range(p))
                out.append((*head, *basis[p + 1:]))
    return sorted(out)


def enumerate_subspaces(scheme: SchemeModel):
    """Projective subspaces fully contained in the scheme and affine patches
    (subspace minus one of its hyperplanes) contained with incomplete closure.

    Returns (projective, affine) where projective maps dimension -> list of
    echelon bases and affine is a list of AffinePatch.  Spans grow from the
    secant lines one dimension at a time, and a span of projective dimension
    d is kept only if it holds at least q^d rational points, as every
    contained subspace and affine patch does.  That count is exact before
    any elimination: the points outside a kept span B, grouped by their
    residue against B's echelon basis, are what B's one-larger spans add.
    Such a span is spanned by its points (a hyperplane of it holds fewer),
    so they name it; it is tested once, and its echelon basis is B's
    extended by the residue.  The one-larger spans already found through B
    are not scanned again: each is B + x for each of its points x off B, and
    no two share a point off B.  A patch B minus a hyperplane H holds every
    rational point of B off H, so H is tested only if it holds B's rational
    points outside the set.
    """
    dmax = min(
        max((scheme.graph.degree(v) for v in scheme.graph.vertices), default=1),
        MAX_SUBSPACE_DIM,
    )
    q, F, pts = scheme.q, scheme.F, scheme.points
    projective: dict[int, list] = {d: [] for d in range(1, dmax + 1)}
    affine: list[AffinePatch] = []

    # spans of projective dimension d that pass, point ids -> echelon basis
    level = {frozenset(ids): basis for basis, ids in rich_lines(scheme, secant_lines(scheme))}
    for d in range(1, dmax + 1):
        kept = sorted((basis, ids) for ids, basis in level.items())
        level = {}
        spans_of = [[] for _ in pts]  # point id -> the spans in level holding it
        for basis, ids in kept:
            found = scheme.count_in_subspace(basis, 1)
            if found != len(ids):
                raise AssertionError(f"span {basis}: grouped count {len(ids)}, "
                                     f"point polynomial count {found}")
            if d < dmax:
                seen = ids.union(*(c for c in spans_of[min(ids)] if ids <= c))
                outside = [i for i in range(len(pts)) if i not in seen]
                groups: dict = {}
                for i, residue in zip(outside, gfq.residues(F, basis, [pts[i] for i in outside])):
                    groups.setdefault(residue, []).append(i)
                for residue, group in groups.items():
                    if len(ids) + len(group) >= q ** (d + 1):
                        grown = ids.union(group)
                        level[grown] = gfq.echelon(F, (residue,), basis)
                        for i in grown:
                            spans_of[i].append(grown)
            poly = scheme.point_polynomial(basis)
            if poly == (1,) * (d + 1):
                projective[d].append(basis)
                continue
            missing = _missing_coordinates(F, basis, [pts[i] for i in ids])
            for hyp in _hyperplanes_of(F, basis, missing):
                if poly == add_monomial(scheme.point_polynomial(hyp), d):
                    affine.append(AffinePatch(basis, hyp, d))
    affine.sort(key=lambda a: (a.dim, a.basis))
    return projective, affine


# ---------------------------------------------------------------------------
# counting and interpolation
# ---------------------------------------------------------------------------

def count_points(graph: LooseGraph, qs=None) -> dict[int, int]:
    """|X(F_q)| for each q, by enumeration (cross-checked against the census)."""
    if qs is None:
        qs = [2, 3, 4, 5]
    out = {}
    for q in qs:
        model = build_scheme(graph, q)
        out[q] = len(model.points)
        census = model.point_count(1)
        if out[q] != census:
            raise AssertionError(f"q={q}: {out[q]} points enumerated, census gives {census}")
    return out


def interpolate_count_polynomial(graph: LooseGraph) -> list[int]:
    """Coefficients (ascending) of the polynomial N with N(q) = |X(F_q)|.

    The support census gives N(x) = sum over the good supports S of
    (x - 1)^(|S| - 1), expanded here binomially; the supports do not depend
    on q, so any field size serves to list them.
    """
    sizes = [bin(mask).count("1") for mask in build_scheme(graph, 2)._good_supports]
    coeffs = [0] * max(sizes)
    for size in sizes:
        k = size - 1
        for j in range(k + 1):
            coeffs[j] += comb(k, j) * (-1) ** (k - j)
    return coeffs


# ---------------------------------------------------------------------------
# convexity, spans, decomposition
# ---------------------------------------------------------------------------


def _off_star_points(scheme: SchemeModel, piece: Piece) -> list[tuple[int, ...]]:
    """Points of a vertex patch lying on none of its own star lines, i.e. with
    at least two nonzero coordinates besides the vertex one."""
    vbit = 1 << piece.required_bit
    masks = _with_subsets(vbit, _bits(piece.support_mask & ~vbit))
    return support_points(scheme.F, scheme.m, [s for s in masks if bin(s).count("1") >= 3])


def convexity_check(scheme: SchemeModel) -> dict:
    """For loose trees: a secant through generic points of two different
    vertex patches meets the rational point set in exactly those two points."""
    if not scheme.graph.is_tree():
        raise ValueError("convexity check applies to loose trees")
    vertex_pieces = [p for p in scheme.pieces if p.kind == "vertex"]
    checked = 0
    failures = []
    for pa, pb in combinations(vertex_pieces, 2):
        for x in _off_star_points(scheme, pa):
            for y in _off_star_points(scheme, pb):
                if x == y:
                    continue
                hits = [p for p in gfq.span_points(scheme.F, (x, y)) if p in scheme.point_index]
                checked += 1
                if hits != sorted({x, y}):
                    failures.append((x, y, tuple(hits)))
    return {"checked": checked, "failures": failures, "ok": not failures}


def subgraph_span_dim(scheme: SchemeModel, completion_vertices) -> int:
    """Projective dimension of the span of the embedded subgraph on the given
    completion vertices: the rational scheme points whose support lies inside
    one of them or inside the two ends of one of its edges."""
    names = set(completion_vertices)
    bit = {v: 1 << scheme.index[v] for v in names}
    edges = scheme.completion.edge_ends.values()
    cells = set(bit.values()) | {bit[a] | bit[b] for a, b in edges if a in names and b in names}
    vecs = support_points(scheme.F, scheme.m, cells & scheme._good_supports)
    if not vecs:
        return -1
    return gfq.mat_rank(scheme.F, vecs) - 1


def complement_points(scheme: SchemeModel) -> list[tuple[int, ...]]:
    """Rational points of the complement construction, in the same ambient
    basis, read from its supports: each fresh end v with a non-neighbour in
    the completion, together with any set of its non-neighbours, and each
    pair of non-adjacent vertices of the graph."""
    comp, idx = scheme.completion, scheme.index
    vertices = scheme.graph.vertices
    supports = set()
    for v in comp.names[len(vertices):]:  # the fresh ends follow the vertices
        others = [1 << idx[w] for w in comp.names if w != v and not comp.adjacent(v, w)]
        if others:
            supports.update(_with_subsets(1 << idx[v], others))
    for u, v in combinations(vertices, 2):
        if not comp.adjacent(u, v):
            supports.add(1 << idx[u] | 1 << idx[v])
    return support_points(scheme.F, scheme.m, supports)


def decompose(scheme: SchemeModel) -> dict:
    """Split the ambient PG(m-1, q) into scheme points, complement points and
    the rest.  The first two must be disjoint.  The ambient space is listed,
    so one of more than MAX_POINTS points is refused."""
    size = gfq.pg_size(scheme.q, scheme.m)
    if size > MAX_POINTS:
        raise ValueError(f"PG({scheme.m - 1}, {scheme.q}) has {size} points, "
                         f"more than the bound {MAX_POINTS} for a decomposition")
    x = set(scheme.points)
    xc = set(complement_points(scheme))
    ambient = gfq.projective_points(scheme.F, scheme.m)
    overlap = x & xc
    y = [p for p in ambient if p not in x and p not in xc]
    return {
        "x": sorted(x),
        "xc": sorted(xc),
        "y": sorted(y),
        "sizes": (len(x), len(xc), len(y)),
        "disjoint": not overlap,
        "ambient_size": len(ambient),
    }
