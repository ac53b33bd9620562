"""The chain reads of the projective group against filters over its listing.

`ProjAut` holds its group as a permutation group, the kernel of its action
and the lifter; orders, fixing subgroups, the linear part and the inner
action are read off generators and chains.  The references here list every
element (`elements` and `perms`) and filter the list, as the checks once did.
"""

from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from loosegeo import autsearch, formats, gfq, theorems
from loosegeo.permgroup import PermGroup, transporter
from loosegeo.scheme import build_scheme
from conftest import CORPUS, corpus_graph
from test_autsearch import small_scheme
from test_formats import loose_graphs


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


def listed_fixing_perms(proj, targets):
    """The point permutations of the elements fixing every target point."""
    return [
        perm
        for g, perm in zip(proj.elements, proj.perms)
        if all(autsearch.apply_collineation(proj.scheme, g, p) == p for p in targets)
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


def assert_chain_reads_match_listing(ctx):
    scheme, proj = ctx.scheme, ctx.proj
    graph, n = scheme.graph, len(scheme.points)
    assert proj.order == len(proj.elements) == len(set(proj.elements))
    assert proj.linear_order == len(proj.linear)
    assert proj.faithful_witnesses() == listed_faithful_witnesses(proj)
    linear_perms = [perm for g, perm in zip(proj.elements, proj.perms) if g.frob == 0]
    assert_same(proj.linear_perm_group, linear_perms, n)
    for w in graph.vertices:
        group, order = autsearch.fixing_subgroup(proj, autsearch.local_spans(scheme, w))
        perms = listed_fixing_perms(proj, local_targets(scheme, w))
        assert order == len(perms)
        assert_same(group, perms, n)
    for k in (1, 2, 3):
        for span in combinations(scheme.completion.names, k):
            group, order = autsearch.fixing_subgroup(proj, [list(span)])
            perms = listed_fixing_perms(proj, plane_targets(scheme, span))
            assert order == len(perms), span
            assert_same(group, perms, n)
    vertex_points = [ctx.basis_index(v) for v in graph.vertices]
    for k in range(len(vertex_points) + 1):
        points = vertex_points[:k]
        assert theorems._linear_fixing_group(ctx, points).same_group(
            listed_linear_fixing_group(proj, points)
        )
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
        fixing = theorems._linear_fixing_group(ctx, idxs)
        linear_kernel = sum(1 for g in proj.kernel if g.frob == 0)
        assert fixing.order() * linear_kernel == listed[tuple(range(len(idxs)))]
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


def _refuse_listing(*args):
    raise AssertionError("the projective group was listed")


def test_fixing_subgroups_of_fresh_ends_do_not_list_the_group(monkeypatch):
    # x - y with two loose edges at x, at q=4: a group of order 1,105,920
    # whose fixing subgroups of fresh ends lie over all of it
    graph = formats.parse_graph("vertex x\nvertex y\nedge xy x y\nedge l1 x -\nedge l2 x -\n")
    proj = autsearch.proj_aut_group(build_scheme(graph, 4))
    assert proj.order == 1105920
    monkeypatch.setattr(autsearch, "_compose_collineations", _refuse_listing)
    for spans, expected in (([["l1#1"]], 55296), ([["l1#1", "l2#1"]], 576)):
        group, order = autsearch.fixing_subgroup(proj, spans)
        assert order == expected
        assert group.order() == expected  # the kernel is trivial here


def test_suite_checks_do_not_list_the_group(monkeypatch):
    monkeypatch.setattr(autsearch, "_compose_collineations", _refuse_listing)
    entries = formats.load_manifest(str(CORPUS / "manifest.txt"))
    result = theorems.run_suite(entries, qs=(2, 3))
    assert result["ok"], [(r.theorem, r.graph, r.q) for r in result["failed"]]
