"""Named verification checks over point-set models of loose graphs.

Each check computes exact quantities (group orders, factor decompositions,
orbit counts) and returns what it found: whether the statement holds, the
quantities and, on failure, a concrete witness.  `CHECKS` says what each
check needs from its cell, and `verify` alone refuses or skips a cell,
times the check and builds its report.  Isomorphism-style statements are
verified in their strongest decidable form: equality of permutation
actions, or normality plus order factorization plus induced-action
identification.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Callable, NamedTuple

from . import autsearch, gfq, matrices
from .graphs import LooseGraph, LooseMorphism, graph_aut_group_perms
from .permgroup import PermGroup, transporter, verify_central_product
from .scheme import (
    SchemeModel,
    build_scheme,
    convexity_check,
    decompose,
    enumerate_subspaces,
    rich_lines,
    secant_lines,
    subgraph_span_dim,
)

@dataclass
class TheoremReport:
    theorem: str
    graph: str
    q: int | None
    verdict: str  # "pass" | "fail" | "skip"
    quantities: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    detail: str = ""
    seconds: float = 0.0  # wall time of the check, set by `verify`


@dataclass
class Found:
    """What a check found; `verify` makes it the cell's report."""

    holds: bool  # the report passes
    quantities: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    note: str = ""  # the report's detail
    cell: tuple | None = None  # (label, q) a global check reports on, not its cell's


class Context:
    """Shared lazily computed data for one (graph, q) cell.  The graph is None
    on a global line; `configurations` serves transroot and transfund, at
    q = 2 if q is None."""

    def __init__(self, graph: LooseGraph | None, q: int | None, name: str = "graph"):
        self.graph = graph
        self.q = q
        self.name = name

    @cached_property
    def scheme(self) -> SchemeModel:
        return build_scheme(self.graph, self.q)

    @cached_property
    def proj(self) -> autsearch.ProjAut:
        return autsearch.proj_aut_group(self.scheme)

    @cached_property
    def comb(self) -> autsearch.CombAut:
        return autsearch.comb_aut_group(self.scheme)

    @cached_property
    def configurations(self) -> tuple[dict, dict]:
        return autsearch.fundament_reports(self.q or 2)

    def basis_index(self, v: str) -> int:
        s = self.scheme
        vec = tuple(1 if j == s.index[v] else 0 for j in range(s.m))
        return s.point_index[vec]

    @property
    def inner(self) -> list[str]:
        return self.graph.inner_vertices()

    @property
    def inner_indices(self) -> list[int]:
        return [self.basis_index(v) for v in self.inner]


# -- functoriality corpus ------------------------------------------------------


def morphism_catalog() -> list[LooseGraph]:
    """Small graphs (at most 3 vertices) between which every morphism is
    enumerated for the composition-law check: a point, k2, k2 with a loose
    edge, p3 and k3."""
    k2 = {"e": ("a", "b")}
    p3 = {"ab": ("a", "b"), "bc": ("b", "c")}
    return [
        LooseGraph(["p"]),
        LooseGraph(["a", "b"], k2),
        LooseGraph(["a", "b"], {**k2, "l": ("a", None)}),
        LooseGraph(["a", "b", "c"], p3),
        LooseGraph(["a", "b", "c"], {**p3, "ca": ("c", "a")}),
    ]


def all_morphisms(g1: LooseGraph, g2: LooseGraph) -> list[LooseMorphism]:
    """Every morphism from g1 to g2, by brute force over vertex images and
    compatible edge images."""
    out = []
    v1 = list(g1.vertices)
    v2 = list(g2.vertices)
    edges1 = list(g1.edges)
    for images in product(v2, repeat=len(v1)):
        vmap = dict(zip(v1, images))
        per_edge = []
        for e in edges1:
            real = [vmap[v] for v in g1.edges[e] if v is not None]
            ends = set(real)
            # an edge goes to an edge holding the images of its distinct ends
            cands = [("edge", e2) for e2, (x, y) in g2.edges.items()
                     if len(ends) == len(real) and ends <= {x, y}]
            if len(ends) == 1:
                cands.append(("vertex", real[0]))
            elif not real:
                cands.extend(("vertex", w) for w in v2)
            per_edge.append(cands)
        for choice in product(*per_edge):
            f = LooseMorphism(g1, g2, vmap, dict(zip(edges1, choice)))
            try:
                f.validate()
            except ValueError:
                continue
            out.append(f)
    return out


def _random_tree(rng: random.Random, tag: str) -> LooseGraph:
    g = LooseGraph()
    n = rng.randint(2, 6)
    names = [f"{tag}{i}" for i in range(n)]
    for v in names:
        g.add_vertex(v)
    for i in range(1, n):
        j = rng.randrange(i)
        g.add_edge(f"{tag}e{i}", names[j], names[i])
    for i in range(n):
        if rng.random() < 0.25:
            g.add_edge(f"{tag}l{i}", names[i], None)
    return g


def _contraction(g: LooseGraph, rng: random.Random, tag: str):
    """A morphism contracting a random subset of the two-ended edges of a
    loose tree, onto the explicit quotient graph."""
    full = [e for e, (a, b) in g.edges.items() if a is not None and b is not None]
    chosen = [e for e in full if rng.random() < 0.4]
    parent = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in chosen:
        a, b = g.edges[e]
        parent[find(b)] = find(a)
    out = LooseGraph()
    for v in g.vertices:
        if find(v) == v:
            out.add_vertex(v)
    vmap = {v: find(v) for v in g.vertices}
    emap = {}
    for e, (a, b) in g.edges.items():
        if e in chosen:
            emap[e] = ("vertex", vmap[a])
            continue
        na = vmap[a] if a is not None else None
        nb = vmap[b] if b is not None else None
        out.add_edge(f"{tag}{e}", na, nb)
        emap[e] = ("edge", f"{tag}{e}")
    return LooseMorphism(g, out, vmap, emap)


def _extension(g: LooseGraph, rng: random.Random, tag: str):
    """An inclusion of g into g with one extra leaf edge."""
    anchor = rng.choice(list(g.vertices))
    out = LooseGraph(g.vertices + [f"{tag}new"], {**g.edges, f"{tag}edge": (anchor, f"{tag}new")})
    vmap = {v: v for v in g.vertices}
    emap = {e: ("edge", e) for e in g.edges}
    return LooseMorphism(g, out, vmap, emap)


def random_composable_pairs(count: int = 100, seed: int = 0xF1F1):
    """Deterministic composable morphism pairs (g, f) on loose trees with at
    most 6 vertices: contractions and inclusions in random order."""
    rng = random.Random(seed)
    pairs = []
    k = 0
    while len(pairs) < count:
        g1 = _random_tree(rng, f"t{k}_")
        f = _contraction(g1, rng, f"q{k}_")
        if rng.random() < 0.5:
            g = _contraction(f.target, rng, f"r{k}_")
        else:
            g = _extension(f.target, rng, f"x{k}_")
        pairs.append((g, f))
        k += 1
    return pairs


def _morphism_key(f: LooseMorphism):
    """A morphism as hashable data: its graphs, by identity, and its maps'
    items in order (maps in another order miss and are built anew)."""
    return (f.source, f.target, tuple(f.vmap.items()), tuple(f.emap.items()))


def _check_functoriality(ctx: Context, options) -> Found:
    """P_{g o f} == P_g . P_f over F_2 on every composable pair of the
    catalog, then on seeded random pairs of loose trees.

    Each catalog morphism's global matrix is built once and interned as an
    integer id, into a table keyed by the morphism; a composite of catalog
    morphisms is again one of them, so its id is looked up, and one outside
    the table (a fault in `compose`) is built and validated by
    `global_matrix`.  The product is computed once per pair of ids.  A
    composite that fails validation is a witness, not an error.
    """
    seed = options.get("seed", 0xF1F1)
    F2 = gfq.get_field(2)
    cat = morphism_catalog()
    ids: dict[tuple, int] = {}
    mats: list[tuple] = []

    def intern(mat) -> int:
        if mat not in ids:
            ids[mat] = len(mats)
            mats.append(mat)
        return ids[mat]

    hom = {
        (i, j): [(f, intern(matrices.global_matrix(f))) for f in all_morphisms(g1, g2)]
        for i, g1 in enumerate(cat)
        for j, g2 in enumerate(cat)
    }
    table = {_morphism_key(f): mid for pairs in hom.values() for f, mid in pairs}
    products: dict[tuple[int, int], int] = {}
    checked = 0
    witnesses = []
    for i, j, k in product(range(len(cat)), repeat=3):
        for f, f_id in hom[(i, j)]:
            for g, g_id in hom[(j, k)]:
                checked += 1
                try:
                    composite = g.compose(f)
                    lhs = table.get(_morphism_key(composite))
                    if lhs is None:
                        lhs = intern(matrices.global_matrix(composite))
                except ValueError as exc:
                    witnesses.append((i, j, k, f.vmap, g.vmap, str(exc)))
                    continue
                rhs = products.get((g_id, f_id))
                if rhs is None:
                    rhs = products[(g_id, f_id)] = intern(gfq.mat_mul(F2, mats[g_id], mats[f_id]))
                if lhs != rhs:
                    witnesses.append((i, j, k, f.vmap, g.vmap))
    exhaustive = checked
    for g, f in random_composable_pairs(seed=seed):
        checked += 1
        try:
            if not matrices.compose_check(g, f):
                witnesses.append(("random", f.vmap, g.vmap))
        except ValueError as exc:
            witnesses.append(("random", f.vmap, g.vmap, str(exc)))
    return Found(
        not witnesses,
        {"exhaustive_pairs": exhaustive, "total_pairs": checked, "seed": seed},
        witnesses[:3],
        cell=("catalog+random", 2),
    )


# -- configuration transitivity ------------------------------------------------


def _check_transroot(ctx: Context, options) -> Found:
    q = ctx.q or 2
    rep = ctx.configurations[0]  # the roots are the plain fundaments
    return Found(rep["transitive"], rep, cell=("PG(3,%d)" % q, q))


def _check_transfund(ctx: Context, options) -> Found:
    q = ctx.q or 2
    plain, with_ends = ctx.configurations
    ok = plain["transitive"] and with_ends["transitive"]
    return Found(ok, {"plain": plain, "with_ends": with_ends}, cell=("PG(3,%d)" % q, q))


# -- toy-shaped graph checks ---------------------------------------------------


def _toy_shape(graph: LooseGraph):
    """The two-vertex shape: one joining edge plus one loose edge per vertex.
    Returns (x, y, end_x, end_y) completion names or None."""
    if len(graph.vertices) != 2 or len(graph.edges) != 3:
        return None
    x, y = graph.vertices
    join = [e for e, ends in graph.edges.items() if None not in ends]
    loose = {v: [e for e, ends in graph.edges.items() if set(ends) == {v, None}] for v in (x, y)}
    if len(join) != 1 or len(loose[x]) != 1 or len(loose[y]) != 1:
        return None
    # a loose edge's fresh end is its completed end that is not the vertex
    ends = graph.completion().edge_ends
    endx, endy = ((set(ends[loose[v][0]]) - {v}).pop() for v in (x, y))
    return x, y, endx, endy


def _check_ddc(ctx: Context, options) -> Found:
    x, y, endx, endy = _toy_shape(ctx.graph)
    q = ctx.q
    proj = ctx.proj
    d1 = proj.fixing([[x, y, endx]])[1]
    d2 = proj.fixing([[x, y, endy]])[1]
    c = proj.fixing([[x, endx, endy]])[1]
    ix, iy = ctx.basis_index(x), ctx.basis_index(y)
    has_swap = transporter(proj.perm_group, [ix, iy], [iy, ix]) is not None
    e = ctx.scheme.F.e
    expected = d1 * d1 * c * 2 * e
    quantities = {
        "order": proj.order,
        "D": d1,
        "D_other": d2,
        "C": c,
        "swap": has_swap,
        "frobenius": e,
        "identity": f"{d1}^2 * {c} * 2 * {e} == {proj.order}",
    }
    ok = d1 == d2 == q * (q - 1) and c == q - 1 and has_swap and expected == proj.order
    return Found(ok, quantities)


def _check_groups_equal(ctx: Context, options) -> Found:
    """toy-equal and autcomb-eq: the projective and combinatorial groups
    coincide on points."""
    same = ctx.proj.perm_group.same_group(ctx.comb.perm_group)
    return Found(same, {"proj_order": ctx.proj.order, "comb_order": ctx.comb.order})


def _check_thmcp(ctx: Context, options) -> Found:
    x, y, endx, endy = _toy_shape(ctx.graph)
    q = ctx.q
    proj = ctx.proj
    # A acts on the coordinates of y and of x's free end; it is the pointwise
    # stabilizer of the line through x and y's free end.  B is the pointwise
    # stabilizer of the plane on x, y and x's free end.  The central product
    # is read in the linear part, as in mttrees: over a non-prime field the
    # Frobenius fixes every basis point, while the factors are linear, so
    # they cannot generate it.
    A = proj.fixing([[x, endy]])[0]
    B = proj.fixing([[x, y, endx]])[0]
    N = proj.fixing([[x], [y]], linear=True)[0]
    rep = verify_central_product(N, [A, B])
    quantities = {
        "A": A.order(),
        "B": B.order(),
        "fixing_group": N.order(),
        "commute": rep["commute"],
        "generates": rep["generates"],
        "overlaps": rep["overlaps"],
    }
    ok = rep["ok"] and A.order() == q * (q - 1) ** 2 and B.order() == q * (q - 1)
    return Found(ok, quantities)


# -- tree checks ----------------------------------------------------------------


def _check_kernel_trivial(ctx: Context, options) -> Found:
    witnesses = ctx.proj.faithful_witnesses()
    return Found(not witnesses, {"order": ctx.proj.order}, witnesses[:3])


def _check_cenprod(ctx: Context, options) -> Found:
    factors = [ctx.proj.fixing(autsearch.local_spans(ctx.scheme, w))[0] for w in ctx.inner]
    N = ctx.proj.fixing([[v] for v in ctx.inner], linear=True)[0]
    rep = verify_central_product(N, factors)
    quantities = {
        "fixing_group": N.order(),
        "factors": [f.order() for f in factors],
        "commute": rep["commute"],
        "generates": rep["generates"],
        "overlaps": rep["overlaps"],
    }
    return Found(rep["ok"], quantities)


_OFF_BASIS = "an element moves an inner basis point off the basis"


def _inner_action(ctx: Context, group: PermGroup):
    """The group induced on the inner basis points, on their positions, or
    None with a witness if a generator moves one off the basis: the group
    keeps them as a set iff its generators do."""
    idxs = ctx.inner_indices
    pos = {p: i for i, p in enumerate(idxs)}
    gens = []
    for perm in group.generators:
        images = [perm[i] for i in idxs]
        if any(i not in pos for i in images):
            return None, (perm, images)
        gens.append(tuple(pos[i] for i in images))
    return PermGroup(gens, len(idxs)), None


def _check_inner_tree(ctx: Context, options) -> Found:
    induced, witness = _inner_action(ctx, ctx.proj.perm_group)
    if induced is None:
        return Found(False, {}, [witness], _OFF_BASIS)
    # the inner graph's vertices are ctx.inner, in order, so both groups act
    # on the same positions
    inner_graph = ctx.graph.induced_inner_subgraph()
    colors = {
        v: (ctx.graph.decoration(v).end_edges, ctx.graph.decoration(v).loose_edges)
        for v in ctx.inner
    }
    decorated = graph_aut_group_perms(inner_graph, colors=colors)
    quantities = {
        "induced": induced.order(),
        "decorated_tree_group": decorated.order(),
        "plain_tree_group": graph_aut_group_perms(inner_graph).order(),
    }
    return Found(induced.same_group(decorated), quantities)


def _check_lemfield(ctx: Context, options) -> Found:
    F = ctx.scheme.F
    quotient = ctx.proj.order // ctx.proj.linear_order
    quantities = {
        "linear_order": ctx.proj.linear_order,
        "full_order": ctx.proj.order,
        "quotient": quotient,
        "multiplicative_group": ctx.q - 1,
        "field_automorphisms": F.e,
    }
    # The coordinatewise Frobenius stabilizes every point set defined by its
    # supports, so the linear part has index e.
    ok = ctx.proj.order == F.e * ctx.proj.linear_order
    return Found(ok, quantities, [] if ok else [(quotient, F.e)])


def _check_mttrees(ctx: Context, options) -> Found:
    e = ctx.scheme.F.e
    proj = ctx.proj
    induced, bad = _inner_action(ctx, proj.linear_perm_group)
    if induced is None:
        return Found(False, {}, [bad], _OFF_BASIS)
    n_fix = proj.fixing([[v] for v in ctx.inner], linear=True)[1]
    tree = induced.order()
    quantities = {
        "central_product_order": n_fix,
        "tree_action_order": tree,
        "semilinear_quotient": e,
        "order": proj.order,
        "identity": f"{n_fix} * {tree} * {e} == {proj.order}",
    }
    return Found(n_fix * tree * e == proj.order, quantities)


# -- geometry checks -------------------------------------------------------------


def _subspace_point_sets(scheme: SchemeModel):
    """Rational point-index sets of all enumerated subspaces, labeled by
    (kind, dimension)."""
    F = scheme.F
    projective, affine = enumerate_subspaces(scheme)
    sets = {}
    for dim, bases in projective.items():
        for basis in bases:
            pts = frozenset(scheme.point_index[p] for p in gfq.span_points(F, basis))
            sets[pts] = ("projective", dim)
    for patch in affine:
        span_pts = set(gfq.span_points(F, patch.basis))
        hyp_pts = set(gfq.span_points(F, patch.hyperplane))
        pts = frozenset(scheme.point_index[p] for p in span_pts - hyp_pts)
        sets[pts] = ("affine", patch.dim)
    return sets


def _check_obs_subspaces(ctx: Context, options) -> Found:
    sets = _subspace_point_sets(ctx.scheme)
    gens = ctx.comb.perm_group.generators or [tuple(range(len(ctx.scheme.points)))]
    witnesses = []
    for perm in gens:
        for pts, label in sets.items():
            image = frozenset(perm[i] for i in pts)
            if sets.get(image) != label:
                witnesses.append((label, sorted(pts)))
                break
    counts = dict(Counter(f"{kind}_{dim}" for kind, dim in sets.values()))
    return Found(not witnesses, {"subspaces": counts, "generators": len(gens)}, witnesses[:3])


def _check_convexity(ctx: Context, options) -> Found:
    rep = convexity_check(ctx.scheme)
    return Found(rep["ok"], {"pairs_checked": rep["checked"]}, rep["failures"][:3])


def _check_span_lemma(ctx: Context, options) -> Found:
    comp = ctx.scheme.completion
    names = comp.names
    real = set(ctx.graph.vertices)
    other_end = {}
    for a, b in comp.edge_ends.values():
        other_end[a] = b
        other_end[b] = a
    witnesses = []
    checked = 0
    for k in range(1, len(names) + 1):
        for sub in combinations(names, k):
            # a fresh end contributes to the span only through its edge line,
            # so it must appear together with the (real) vertex of that edge
            if any(
                v not in real and not (other_end[v] in sub and other_end[v] in real)
                for v in sub
            ):
                continue
            checked += 1
            dim = subgraph_span_dim(ctx.scheme, sub)
            if dim != k - 1:
                witnesses.append((sub, dim))
    return Found(not witnesses, {"subsets": checked}, witnesses[:3])


def _check_decompose(ctx: Context, options) -> Found:
    rep = decompose(ctx.scheme)
    ok = rep["disjoint"] and sum(rep["sizes"]) == rep["ambient_size"]
    return Found(
        ok, {"sizes": rep["sizes"], "ambient": rep["ambient_size"], "disjoint": rep["disjoint"]}
    )


def _check_igp(ctx: Context, options) -> Found:
    expected = options.get("expected", True)
    perms = list(ctx.proj.perm_group.generators) + list(ctx.comb.perm_group.generators)
    rep = autsearch.inner_graph_property(ctx.scheme, perms)
    quantities = {"holds": rep["holds"], "expected": expected}
    return Found(rep["holds"] == expected, quantities, [] if rep["holds"] else [rep["reason"]])


# -- construction rules -----------------------------------------------------------


def _check_rules(ctx: Context, options) -> Found:
    """Construction invariants of the point-set model: local patch sizes and
    dimensions, clique spans, vertexless-edge counts, monotonicity under a
    graph extension, and stability of line classification under one more
    field extension.  A secant line with fewer than q rational points fails
    both targets, q + 1 and q points, at r = 1, so it is not tested."""
    graph, q, scheme = ctx.graph, ctx.q, ctx.scheme
    failures = []
    # local dimension: each vertex patch has q^deg(v) rational points
    for piece in scheme.pieces:
        if piece.kind != "vertex":
            continue
        count = sum(
            1 for p in scheme.points
            if scheme.support_mask(p) & ~piece.support_mask == 0
            and p[piece.required_bit] != 0
        )
        if count != q ** piece.dim:
            failures.append(("loc-dim", piece.label, count))
    # cliques span closed projective subspaces over every extension
    verts = list(graph.vertices)
    for t in range(1, len(verts) + 1):
        for clique in combinations(verts, t):
            if any(b not in graph.neighbours(a) for a, b in combinations(clique, 2)):
                continue
            basis = tuple(
                tuple(1 if j == scheme.index[v] else 0 for j in range(scheme.m))
                for v in clique
            )
            poly = scheme.point_polynomial(basis)
            if poly != (1,) * t:
                failures.append(("co", clique, poly))
    # vertexless edges: q-1 points, disjoint from every vertex patch
    for piece in scheme.pieces:
        if piece.kind != "gm":
            continue
        pts = [p for p in scheme.points if scheme.support_mask(p) & ~piece.support_mask == 0]
        if len(pts) != q - 1:
            failures.append(("mg", piece.label, len(pts)))
        for p in pts:
            for vp in scheme.pieces:
                if vp.kind == "vertex" and scheme.support_mask(p) & ~vp.support_mask == 0:
                    failures.append(("mg-overlap", piece.label, p))
    # monotonicity: adding a loose edge strictly enlarges the point set
    if graph.vertices:
        cov = next(f"cov{i}" for i in range(len(graph.edges) + 1) if f"cov{i}" not in graph.edges)
        bigger = LooseGraph(graph.vertices, {**graph.edges, cov: (graph.vertices[0], None)})
        sup = build_scheme(bigger, q)
        embedded = {p + (0,) for p in scheme.points}
        sup_set = set(sup.points)
        if not embedded < sup_set:
            failures.append(("cov", len(embedded & sup_set), len(sup.points)))
    # extension stability: a line's classification over degrees up to m never
    # changes when degree m+1 is also required
    m = scheme.m
    lines = secant_lines(scheme)
    for basis, _ in rich_lines(scheme, lines):
        prof = tuple(scheme.count_in_subspace(basis, r) for r in range(1, m + 2))
        for want in ("full", "almost"):
            target = (lambda r: q ** r + 1) if want == "full" else (lambda r: q ** r)
            at_m = all(prof[r - 1] == target(r) for r in range(1, m + 1))
            at_m1 = at_m and prof[m] == target(m + 1)
            if at_m != at_m1:
                failures.append(("stability", want, basis, prof))
    return Found(not failures, {"secant_lines": len(lines)}, failures[:5])


def check_rules(graph: LooseGraph, q: int, name: str = "graph") -> TheoremReport:
    """The rules check on one graph and q."""
    return verify("rules", graph, q, name)


# -- dispatch ----------------------------------------------------------------------


class Check(NamedTuple):
    needs: tuple  # what the check needs from its cell
    run: Callable[[Context, dict], Found]  # the check of a cell and the options
    once: bool = False  # whether a suite entry runs it at its first q alone


# Every check by id, in suite order.  A check that needs nothing is global:
# it ignores the graph, and transroot and transfund default to q = 2, while
# functoriality works over F_2 alone, so a suite entry runs it once.  Every
# other check needs a graph and q, and "tree" or "toy" a graph of that
# shape; a check that needs "inner" is skipped below two inner vertices.
CHECKS = {
    "functoriality": Check((), _check_functoriality, once=True),
    "transroot": Check((), _check_transroot),
    "transfund": Check((), _check_transfund),
    "ddc": Check(("toy",), _check_ddc),
    "toy-equal": Check(("graph",), _check_groups_equal),
    "thmcp": Check(("toy",), _check_thmcp),
    "kernel-trivial": Check(("graph",), _check_kernel_trivial),
    "cenprod": Check(("inner",), _check_cenprod),
    "inner-tree": Check(("inner",), _check_inner_tree),
    "lemfield-quotient": Check(("graph",), _check_lemfield),
    "mttrees": Check(("tree", "inner"), _check_mttrees),
    "autcomb-eq": Check(("inner",), _check_groups_equal),
    "obs-subspaces": Check(("graph",), _check_obs_subspaces),
    "convexity": Check(("tree",), _check_convexity),
    "span-lemma": Check(("graph",), _check_span_lemma),
    "decompose": Check(("graph",), _check_decompose),
    "igp": Check(("inner",), _check_igp),
    "rules": Check(("graph",), _check_rules),
}
CHECK_IDS = tuple(CHECKS)

# The graph shapes a check may need: a test that is falsy on a graph
# without the shape, and what a refusal says.
_SHAPES = {
    "tree": (LooseGraph.is_tree, "requires a loose tree"),
    "toy": (_toy_shape, "requires the two-vertex graph with one loose edge per vertex"),
}


def refusal(theorem: str, graph: LooseGraph | None) -> str | None:
    """Why the check cannot run on the graph (None: on no graph), or None if
    it can."""
    if theorem not in CHECKS:
        return f"unknown check {theorem!r}"
    needs = CHECKS[theorem].needs
    if needs and graph is None:
        return f"check {theorem!r} needs a graph and q"
    for tag in needs:
        if tag in _SHAPES and not _SHAPES[tag][0](graph):
            return f"{theorem} {_SHAPES[tag][1]}"
    return None


def verify(theorem: str, graph: LooseGraph | None, q: int | None = None,
           name: str = "graph", options: dict | None = None,
           context: Context | None = None) -> TheoremReport:
    """Run one check on the cell (graph, q) and report it under its id.  A
    cell that lacks what the check needs is refused (ValueError); one with
    fewer than two inner vertices is skipped if the check needs them."""
    problem = refusal(theorem, None if q is None else graph)
    if problem:
        raise ValueError(problem)
    needs, check, _ = CHECKS[theorem]
    ctx = context if context is not None else Context(graph, q, name)
    if "inner" in needs and len(ctx.inner) < 2:
        return TheoremReport(theorem, ctx.name, ctx.q, "skip",
                             detail="needs at least two inner vertices")
    start = time.perf_counter()
    found = check(ctx, options or {})
    seconds = time.perf_counter() - start
    label, q = found.cell or (ctx.name, ctx.q)
    return TheoremReport(theorem, label, q, "pass" if found.holds else "fail",
                         found.quantities, found.witnesses, found.note, seconds)


def run_suite(entries, qs=(2, 3)) -> dict:
    """Run the per-graph check lists over the given field sizes.

    Each entry is a dict with keys: name, graph (LooseGraph), checks (list of
    ids), and optional qs and igp_expected.  Each check runs at every q of
    its entry, or at the first alone if it runs `once`.  Every field is
    built before the first check, so a bad size is refused (ValueError)
    before any check runs.
    """
    for q in dict.fromkeys(q for entry in entries for q in entry.get("qs", qs)):
        gfq.get_field(q)
    reports = []
    for entry in entries:
        graph = entry["graph"]
        entry_qs = entry.get("qs", qs)
        options = {"expected": entry.get("igp_expected", True)}
        for i, q in enumerate(entry_qs):
            ctx = Context(graph, q, entry["name"])
            for check in entry["checks"]:
                if not (i and CHECKS[check].once):
                    reports.append(verify(check, graph, q, entry["name"], options, ctx))
    failed = [r for r in reports if r.verdict == "fail"]
    return {"reports": reports, "failed": failed, "ok": not failed}
