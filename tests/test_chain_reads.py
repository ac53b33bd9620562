"""The chain reads of the projective group against filters over its listing.

`ProjAut` holds its group as a permutation group, the kernel of its action
and the lifter; orders, fixing subgroups, the linear part and the inner
action are read off generators and chains.  The references here list every
element (`elements` and `perms`) and filter the list, as the checks once did.
The listing itself is compared with a product tree that solves the lift of
every coset representative and forms a full matrix product in normal form
per element and representative.
"""

import dataclasses
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from loosegeo import autsearch, formats, gfq, theorems
from loosegeo.graphs import LooseGraph
from loosegeo.permgroup import PermGroup, compose, transporter
from loosegeo.scheme import build_scheme
from conftest import CORPUS, corpus_graph
from test_autsearch import small_scheme
from test_formats import loose_graphs
from test_scheme import count_calls


def listed_faithful_witnesses(proj):
    """Non-identity elements whose point permutation is the identity."""
    scheme = proj.scheme
    m, ident = scheme.m, tuple(range(len(scheme.points)))
    out = []
    for g, perm in zip(proj.elements, proj.perms):
        if perm != ident:
            continue
        scalar = all(
            g.matrix[i][j] == (g.matrix[0][0] if i == j else 0)
            for i in range(m)
            for j in range(m)
        )
        if not (scalar and g.frob % scheme.F.e == 0):
            out.append(g)
    return out


def listed_fixing_perms(proj, targets, linear=False):
    """The point permutations of the elements fixing every target point, of
    Frobenius power 0 only if `linear`."""
    return [
        perm
        for g, perm in zip(proj.elements, proj.perms)
        if not (linear and g.frob)
        and all(autsearch.apply_collineation(proj.scheme, g, p) == p for p in targets)
    ]


def local_targets(scheme, w):
    """The affine points at every inner vertex v other than w: coordinate 1
    at v, any value toward its neighbours other than w, 0 elsewhere."""
    F, m = scheme.F, scheme.m
    targets = []
    for v in scheme.graph.inner_vertices():
        if v == w:
            continue
        dbits = [scheme.index[d] for d in scheme.completion.neighbours(v) if d != w]
        for vals in product(F.elements(), repeat=len(dbits)):
            vec = [0] * m
            vec[scheme.index[v]] = 1
            for i, c in zip(dbits, vals):
                vec[i] = c
            targets.append(gfq.normalize_point(F, tuple(vec)))
    return targets


def plane_targets(scheme, vertices):
    basis = [autsearch._basis_vec(scheme.m, scheme.index[v]) for v in vertices]
    return gfq.span_points(scheme.F, basis)


def listed_linear_fixing_group(proj, points):
    return PermGroup(
        [perm for g, perm in zip(proj.elements, proj.perms)
         if g.frob == 0 and all(perm[i] == i for i in points)],
        len(proj.scheme.points),
    )


def listed_inner_perms(proj, idxs, linear_only):
    """The permutations induced on the given basis points, each with the
    number of elements (linear ones if `linear_only`) inducing it, or None if
    some element moves one of them off the list."""
    pos = {p: i for i, p in enumerate(idxs)}
    induced: dict = {}
    for g, perm in zip(proj.elements, proj.perms):
        if linear_only and g.frob % proj.scheme.F.e != 0:
            continue
        images = [perm[i] for i in idxs]
        if any(i not in pos for i in images):
            return None
        key = tuple(pos[i] for i in images)
        induced[key] = induced.get(key, 0) + 1
    return induced


def listed_swap(proj, ix, iy):
    return any(p[ix] == iy and p[iy] == ix for p in proj.perms)


def assert_same(group, perms, n):
    assert group.same_group(PermGroup(perms, n))


def assert_span_fixers_match_listing(proj, linear=False):
    """`fixing` of the span of every one, two or three completion vertices
    against the listing filter: the group on the points and the number of
    elements."""
    scheme = proj.scheme
    for k in (1, 2, 3):
        for span in combinations(scheme.completion.names, k):
            group, order = proj.fixing([list(span)], linear=linear)
            perms = listed_fixing_perms(proj, plane_targets(scheme, span), linear)
            assert order == len(perms), (span, linear)
            assert_same(group, perms, len(scheme.points))


def assert_chain_reads_match_listing(ctx):
    scheme, proj = ctx.scheme, ctx.proj
    graph, n = scheme.graph, len(scheme.points)
    assert proj.order == len(proj.elements) == len(set(proj.elements))
    assert proj.linear_order == len(proj.linear)
    assert proj.faithful_witnesses() == listed_faithful_witnesses(proj)
    linear_perms = [perm for g, perm in zip(proj.elements, proj.perms) if g.frob == 0]
    assert_same(proj.linear_perm_group, linear_perms, n)
    for w in graph.vertices:
        group, order = proj.fixing(autsearch.local_spans(scheme, w))
        perms = listed_fixing_perms(proj, local_targets(scheme, w))
        assert order == len(perms)
        assert_same(group, perms, n)
    assert_span_fixers_match_listing(proj)
    vertex_points = [ctx.basis_index(v) for v in graph.vertices]
    for k in range(len(vertex_points) + 1):
        group, order = proj.fixing([[v] for v in graph.vertices[:k]], linear=True)
        perms = listed_fixing_perms(proj, [scheme.points[i] for i in vertex_points[:k]], True)
        assert order == len(perms)
        assert_same(group, perms, n)
    idxs = ctx.inner_indices
    for group, linear_only in ((proj.perm_group, False), (proj.linear_perm_group, True)):
        induced, _ = theorems._inner_action(ctx, group)
        listed = listed_inner_perms(proj, idxs, linear_only)
        assert (induced is None) == (listed is None)
        if listed is not None:
            assert set(induced.elements()) == set(listed)
    listed = listed_inner_perms(proj, idxs, linear_only=True)
    if listed is not None:
        # mttrees' central product: the linear elements fixing the inner points
        order = proj.fixing([[v] for v in ctx.inner], linear=True)[1]
        assert order == listed[tuple(range(len(idxs)))]
    sample = sorted(set(vertex_points) | set(range(min(n, 5))))
    for ix, iy in permutations(sample, 2):
        found = transporter(proj.perm_group, [ix, iy], [iy, ix])
        assert (found is not None) == listed_swap(proj, ix, iy)
        assert found is None or (found[ix], found[iy]) == (iy, ix)


@pytest.mark.parametrize("name,q", [
    ("ve", 3),  # nontrivial kernel
    ("p3", 4),  # semilinear, e = 2
    ("toy", 4),
    ("p4", 4),
    ("gamma1", 3),  # the projective group is half the combinatorial one
])
def test_chain_reads_match_listing(name, q):
    assert_chain_reads_match_listing(theorems.Context(corpus_graph(name), q, name))


def with_vertexless_edges(name, loose):
    g = corpus_graph(name)
    return LooseGraph(g.vertices, {**g.edges, **{f"ve{i}": (None, None) for i in range(loose)}})


@pytest.mark.parametrize("name,loose", [
    ("toy", 0),
    ("k2", 1),  # a kernel of 3 elements
])
def test_span_fixers_at_q4_match_listing(name, loose):
    """Over GF(4), with and without the Frobenius condition, on spans with
    targets outside X (toy's fresh ends, the vertexless edge's pair of
    ends) as well as inside it."""
    proj = autsearch.proj_aut_group(build_scheme(with_vertexless_edges(name, loose), 4))
    scheme = proj.scheme
    assert any(
        p not in scheme.point_index
        for span in combinations(scheme.completion.names, 2)
        for p in plane_targets(scheme, span)
    )
    for linear in (False, True):
        assert_span_fixers_match_listing(proj, linear)


@pytest.mark.parametrize("name", ["toy", "gamma1", "ve"])
def test_linear_part_over_a_prime_field_is_the_whole_group(name, monkeypatch):
    proj = theorems.Context(corpus_graph(name), 3, name).proj

    def no_action(self, outside=()):
        raise AssertionError("the action is not needed over a prime field")

    monkeypatch.setattr(autsearch.ProjAut, "_action", no_action)
    assert proj.linear_perm_group is proj.perm_group
    assert proj.linear_order == proj.order == len(proj.linear)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_chain_reads_match_listing_on_random_graphs(g, q):
    small_scheme(g, q)
    ctx = theorems.Context(g, q)
    assume(ctx.proj.order <= 5000)  # the references list the group once per target set
    assert_chain_reads_match_listing(ctx)


@pytest.mark.parametrize("check,name,q", [
    ("ddc", "toy", 4),
    ("thmcp", "toy", 4),
    ("cenprod", "p4", 4),
    ("mttrees", "p4", 4),
    ("inner-tree", "p4", 4),
    ("cenprod", "spider", 3),
    ("mttrees", "spider", 3),
])
def test_check_quantities_match_listing(check, name, q):
    ctx = theorems.Context(corpus_graph(name), q, name)
    rep = theorems.verify(check, ctx.graph, q, name, context=ctx)
    assert rep.verdict == "pass"
    proj, scheme, got = ctx.proj, ctx.scheme, rep.quantities
    n = len(scheme.points)
    def plane_fixers(vertices):
        return listed_fixing_perms(proj, plane_targets(scheme, vertices))

    if check == "ddc":
        ix, iy = ctx.basis_index("x"), ctx.basis_index("y")
        assert got["swap"] == listed_swap(proj, ix, iy)
        assert got["D"] == len(plane_fixers(["x", "y", "lx#1"]))
        assert got["C"] == len(plane_fixers(["x", "lx#1", "ly#1"]))
    elif check == "thmcp":
        a = PermGroup(plane_fixers(["x", "ly#1"]), n)
        b = PermGroup(plane_fixers(["x", "y", "lx#1"]), n)
        assert (got["A"], got["B"]) == (a.order(), b.order())
        fixing = listed_linear_fixing_group(proj, [ctx.basis_index("x"), ctx.basis_index("y")])
        assert got["fixing_group"] == fixing.order()
    elif check == "cenprod":
        factors = [PermGroup(listed_fixing_perms(proj, local_targets(scheme, w)), n)
                   for w in ctx.inner]
        assert got["factors"] == [f.order() for f in factors]
        assert got["fixing_group"] == listed_linear_fixing_group(proj, ctx.inner_indices).order()
    else:
        linear_only = check == "mttrees"
        listed = listed_inner_perms(proj, ctx.inner_indices, linear_only)
        if check == "mttrees":
            assert got["tree_action_order"] == len(listed)
            assert got["central_product_order"] == listed[tuple(range(len(ctx.inner)))]
        else:
            assert got["induced"] == len(listed)


def compose_collineations(F, g, h):
    """g after h: (M, t)(N, s) = (M . Frob^t(N), t + s), in normal form."""
    N = tuple(autsearch.frobenius_vec(F, row, g.frob) for row in h.matrix)
    return autsearch.Collineation(
        autsearch.canonical_matrix(F, gfq.mat_mul(F, g.matrix, N)), (g.frob + h.frob) % F.e
    )


def listed_by_products(proj):
    """`elements`, `perms` and `linear` as a product tree of solved lifts:
    every coset representative of the chain, the identity's too, lifted by
    `lifter.lift`, times every product so far, each a full matrix product
    put in normal form, then sorted by (matrix, frob)."""
    F, n = proj.scheme.F, proj.perm_group.degree
    products = [(tuple(range(n)), k) for k in proj.kernel]
    for *_, reps in reversed(proj.perm_group.levels()):
        lifts = [(u, proj.lifter.lift(u)) for u in reps]
        products = [
            (compose(u, perm), compose_collineations(F, g, h))
            for u, g in lifts
            for perm, h in products
        ]
    found = {g: perm for perm, g in products}
    elements = sorted(found, key=lambda g: (g.matrix, g.frob))
    return elements, [found[g] for g in elements], [g.matrix for g in elements if g.frob == 0]


def assert_listing_matches_products(proj):
    assert (proj.elements, proj.perms, proj.linear) == listed_by_products(proj)
    assert len(proj.elements) == proj.order


@pytest.mark.parametrize("name,q", [
    (name, q)
    for q in (2, 3, 4)
    for name in sorted(p.stem for p in CORPUS.glob("*.lg"))
    if (name, q) not in {("gamma2", 4), ("k3", 4)}  # 552,960 and 120,960 elements
])
def test_listing_matches_products_on_corpus(name, q):
    assert_listing_matches_products(autsearch.proj_aut_group(build_scheme(corpus_graph(name), q)))


@pytest.mark.parametrize("name,loose,q,kernel", [
    ("k2", 1, 2, 2),
    ("k2", 1, 3, 4),
    ("k2", 1, 4, 3),
    ("p3", 2, 3, 16),
])
def test_listing_matches_products_with_a_kernel(name, loose, q, kernel):
    """A corpus graph with `loose` vertexless edges added: the stabilizing
    lifts of the identity form a kernel of the given size."""
    proj = autsearch.proj_aut_group(build_scheme(with_vertexless_edges(name, loose), q))
    assert len(proj.kernel) == kernel
    assert_listing_matches_products(proj)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_listing_matches_products_on_random_graphs(g, q):
    assert_listing_matches_products(autsearch.proj_aut_group(small_scheme(g, q)))


@pytest.mark.parametrize("name,q", [("k2", 8), ("k2", 9), ("ve", 8), ("ve", 9)])
def test_listing_matches_products_at_frobenius_degrees_above_2(name, q):
    """GF(8) (Frobenius of degree 3) and GF(9) (p = 3), where lifted
    representatives are multiplied with twists t + s mod e of order above 2:
    PGammaL(2, q) on k2 (1,512 and 1,440 elements) and on ve."""
    proj = autsearch.proj_aut_group(build_scheme(corpus_graph(name), q))
    assert {g.frob for g in proj.elements} == set(range(proj.frob_count))
    assert_listing_matches_products(proj)


@pytest.mark.parametrize("name,loose,q", [("toy", 0, 4), ("k2", 1, 4), ("k2", 0, 8)])
def test_listing_from_a_chain_of_schreier_residues(name, loose, q):
    """`perm_group` rebuilt from its generators and the products of their
    pairs, shuffled: some levels of the new chain hold Schreier residues, not the
    search's generators.  The listing is unchanged, and every lifted coset
    representative induces its permutation and stabilizes X."""
    scheme = build_scheme(with_vertexless_edges(name, loose), q)
    proj = autsearch.proj_aut_group(scheme)
    gens = proj.perm_group.generators
    gens = gens + [compose(a, b) for a, b in permutations(gens, 2)]
    random.Random(0).shuffle(gens)
    rebuilt = dataclasses.replace(proj, perm_group=PermGroup(gens, proj.perm_group.degree))
    assert rebuilt.perm_group.order() == proj.perm_group.order()
    assert any(s not in gens for _, level, _ in rebuilt.perm_group.levels() for s in level)
    assert (rebuilt.elements, rebuilt.perms, rebuilt.linear) == (
        proj.elements, proj.perms, proj.linear)
    for reps in rebuilt._transversals:
        us = [tuple(range(len(scheme.points)))]
        for _, s, i, M, t in reps[1:]:
            us.append(compose(s, us[i]))
            g = autsearch.Collineation(M, t)
            assert autsearch.collineation_point_perm(scheme, g) == us[-1]
            assert autsearch.collineation_stabilizes(scheme, M)


def test_listing_effort_on_toy_at_q4(monkeypatch):
    """The listing solves no lift: no null space and no `_Lifter.lifts`
    call.  It forms one matrix product per non-identity coset representative
    (26 on toy@4, 1,728 elements) and maps each distinct column of the
    products once per representative, and it composes no point permutation
    until `perms` is read."""
    proj = autsearch.proj_aut_group(build_scheme(corpus_graph("toy"), 4))
    reps = sum(len(reps) - 1 for *_, reps in proj.perm_group.levels())
    calls = count_calls(monkeypatch, ["null_space", "mat_mul", "mat_vec"])
    lifts = count_calls(monkeypatch, ["lifts"], owner=autsearch._Lifter)
    composed = count_calls(monkeypatch, ["compose"], owner=autsearch)
    assert len(proj.linear) == 864 and len(proj.elements) == 1728
    assert composed["compose"] == 0 and lifts["lifts"] == 0
    assert reps == 26 and calls["null_space"] == 0
    assert calls["mat_mul"] <= reps and calls["mat_vec"] <= 400, calls
    assert len(proj.perms) == 1728 and composed["compose"] > 0


def refuse_listing(monkeypatch):
    """Make every read of the listing (`elements`, `perms`, `linear`) fail:
    each starts from the lifted transversals."""

    def listed(proj):
        raise AssertionError("the projective group was listed")

    monkeypatch.setattr(autsearch.ProjAut, "_transversals", property(listed))


def test_refuse_listing_refuses_every_read(monkeypatch):
    proj = autsearch.proj_aut_group(build_scheme(corpus_graph("k2"), 2))
    refuse_listing(monkeypatch)
    for read in ("elements", "perms", "linear"):
        with pytest.raises(AssertionError, match="listed"):
            getattr(proj, read)


def test_fixing_subgroups_of_fresh_ends_do_not_list_the_group(monkeypatch):
    # x - y with two loose edges at x, at q=4: a group of order 1,105,920
    # whose fixing subgroups of fresh ends lie over all of it
    graph = formats.parse_graph("vertex x\nvertex y\nedge xy x y\nedge l1 x -\nedge l2 x -\n")
    proj = autsearch.proj_aut_group(build_scheme(graph, 4))
    assert proj.order == 1105920
    refuse_listing(monkeypatch)
    for spans, expected in (([["l1#1"]], 55296), ([["l1#1", "l2#1"]], 576)):
        group, order = proj.fixing(spans)
        assert order == expected
        assert group.order() == expected  # the kernel is trivial here


def test_suite_checks_do_not_list_the_group(monkeypatch):
    refuse_listing(monkeypatch)
    entries = formats.load_manifest(str(CORPUS / "manifest.txt"))
    result = theorems.run_suite(entries, qs=(2, 3))
    assert result["ok"], [(r.theorem, r.graph, r.q) for r in result["failed"]]
