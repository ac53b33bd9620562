from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from loosegeo import matrices
from loosegeo.graphs import LooseGraph, LooseMorphism, _vertex_key, fresh_name, graph_aut_group_perms
from conftest import CORPUS, corpus_graph
from test_formats import loose_graphs


def toy():
    return corpus_graph("toy")


def test_degrees_and_inner_vertices():
    g = toy()
    assert g.degree("x") == 2 and g.degree("y") == 2
    assert g.inner_vertices() == ["x", "y"]
    spider = corpus_graph("spider")
    assert spider.inner_vertices() == ["w", "c", "d"]


def test_decorations():
    spider = corpus_graph("spider")
    assert spider.decoration("w").as_tuple() == (2, 0, 1)
    assert spider.decoration("c").as_tuple() == (0, 0, 2)
    assert spider.decoration("d").as_tuple() == (1, 0, 1)


def test_completion_ordering_and_fresh_names():
    g = toy()
    comp = g.completion()
    assert comp.names == ["x", "y", fresh_name("lx", 1), fresh_name("ly", 1)]
    assert comp.edge_ends["lx"] == ("x", "lx#1")
    assert comp.adjacent("x", "y")
    assert not comp.adjacent("lx#1", "ly#1")


def test_completion_is_rebuilt_after_each_mutation():
    g = LooseGraph(["a", "b"])
    first = g.completion()
    assert g.completion() is first
    g.add_edge("l", "a", None)
    second = g.completion()
    assert second is not first and first.names == ["a", "b"]
    assert second.names == ["a", "b", fresh_name("l", 1)]
    g.add_vertex("c")
    assert g.completion() is not second
    assert g.completion().names == ["a", "b", "c", fresh_name("l", 1)]


def test_is_tree():
    assert corpus_graph("p4").is_tree()
    assert toy().is_tree()
    assert not corpus_graph("gamma1").is_tree()
    assert not corpus_graph("k3").is_tree()


def test_add_edge_rejects_duplicates_and_unknown_vertices():
    g = LooseGraph()
    g.add_vertex("a")
    with pytest.raises(ValueError):
        g.add_edge("e", "a", "b")
    g.add_vertex("b")
    g.add_edge("e", "a", "b")
    with pytest.raises(ValueError):
        g.add_edge("e", "a", "b")


def test_names_with_the_fresh_end_separator_are_rejected():
    # a vertex l#1 beside a loose edge l would share the fresh end's coordinate
    g = LooseGraph(["x"])
    g.add_edge("l", "x", None)
    with pytest.raises(ValueError):
        g.add_vertex("l#1")
    with pytest.raises(ValueError):
        g.add_edge("e#0", "x", None)
    assert g.completion().names == ["x", "l#1"]


def test_morphism_validation_rules():
    p4 = corpus_graph("p4")
    p3 = corpus_graph("p3")
    vmap = {"a": "a", "b": "b", "c": "b", "d": "c"}
    good = LooseMorphism(p4, p3, vmap, {"ab": ("edge", "ab"), "bc": ("vertex", "b"), "cd": ("edge", "bc")})
    good.validate()
    # endpoint off the image edge
    bad = LooseMorphism(p4, p3, vmap, {"ab": ("edge", "bc"), "bc": ("vertex", "b"), "cd": ("edge", "bc")})
    with pytest.raises(ValueError):
        bad.validate()
    # both endpoints collapse without contraction
    bad2 = LooseMorphism(p4, p3, vmap, {"ab": ("edge", "ab"), "bc": ("edge", "ab"), "cd": ("edge", "bc")})
    with pytest.raises(ValueError):
        bad2.validate()


def test_loose_edge_can_contract_with_its_edge():
    g = LooseGraph()
    g.add_vertex("a")
    g.add_edge("l", "a", None)
    pt = LooseGraph()
    pt.add_vertex("p")
    m = LooseMorphism(g, pt, {"a": "p"}, {"l": ("vertex", "p")})
    m.validate()
    cmap = m.completion_vertex_map()
    assert cmap[fresh_name("l", 1)] == "p"


def test_completion_vertex_map_slot_order():
    g = LooseGraph()
    g.add_vertex("a")
    g.add_edge("l", "a", None)
    k2 = LooseGraph()
    k2.add_vertex("u")
    k2.add_vertex("v")
    k2.add_edge("e", "u", "v")
    m = LooseMorphism(g, k2, {"a": "u"}, {"l": ("edge", "e")})
    cmap = m.completion_vertex_map()
    assert cmap == {"a": "u", fresh_name("l", 1): "v"}


def test_compose_matches_pointwise_application():
    p4, p3 = corpus_graph("p4"), corpus_graph("p3")
    f = LooseMorphism(
        p4, p3,
        {"a": "a", "b": "b", "c": "b", "d": "c"},
        {"ab": ("edge", "ab"), "bc": ("vertex", "b"), "cd": ("edge", "bc")},
    )
    pt = LooseGraph()
    pt.add_vertex("p")
    g = LooseMorphism(
        p3, pt,
        {"a": "p", "b": "p", "c": "p"},
        {"ab": ("vertex", "p"), "bc": ("vertex", "p")},
    )
    gf = g.compose(f)
    gf.validate()
    for v in p4.vertices:
        assert gf.vmap[v] == g.vmap[f.vmap[v]]
    assert gf.emap == {"ab": ("vertex", "p"), "bc": ("vertex", "p"), "cd": ("vertex", "p")}


def test_compose_refuses_middle_graphs_with_other_edges():
    # f lands in k2 with edge e; g starts from a graph on the same vertices
    # with edge h, so e has no image under g
    k2 = LooseGraph(["a", "b"], {"e": ("a", "b")})
    other = LooseGraph(["a", "b"], {"h": ("a", "b")})
    ident = {"a": "a", "b": "b"}
    f = LooseMorphism(k2, k2, ident, {"e": ("edge", "e")})
    g = LooseMorphism(other, other, ident, {"h": ("edge", "h")})
    with pytest.raises(ValueError, match="not composable"):
        g.compose(f)
    with pytest.raises(ValueError, match="not composable"):
        matrices.compose_check(g, f)
    # a copy of the middle graph with the same vertices and edges composes
    copy = LooseGraph(["a", "b"], {"e": ("a", "b")})
    h = LooseMorphism(copy, k2, ident, {"e": ("edge", "e")})
    hf = h.compose(f)
    assert (hf.source, hf.target, hf.vmap, hf.emap) == (k2, k2, ident, {"e": ("edge", "e")})
    assert matrices.compose_check(h, f)


def test_graph_aut_group_plain_and_colored():
    p4 = corpus_graph("p4")
    assert graph_aut_group_perms(p4).order() == 2
    # pinning an endpoint with a color kills the flip
    colored = graph_aut_group_perms(p4, colors={"a": 0, "b": 1, "c": 1, "d": 1})
    assert colored.order() == 1
    spider_inner = corpus_graph("spider").induced_inner_subgraph()
    assert graph_aut_group_perms(spider_inner).order() == 2


def listed_graph_auts(g, colors=None):
    """Every loose-graph automorphism, by trying every vertex permutation:
    the reference for `graph_aut_group_perms`."""
    verts = list(g.vertices)
    keys = {v: _vertex_key(g, v, colors) for v in verts}
    loose_at = {
        v: sum(1 for a, b in g.edges.values() if (a == v and b is None) or (b == v and a is None))
        for v in verts
    }
    adj = {v: set(g.neighbours(v)) for v in verts}
    out = []
    for perm in permutations(verts):
        sigma = dict(zip(verts, perm))
        if any(keys[v] != keys[sigma[v]] or loose_at[v] != loose_at[sigma[v]] for v in verts):
            continue
        if all({sigma[w] for w in adj[v]} == adj[sigma[v]] for v in verts):
            out.append(sigma)
    return out


def assert_graph_auts_match_listing(g, colors=None):
    verts = g.vertices
    found = [dict(zip(verts, (verts[i] for i in p)))
             for p in graph_aut_group_perms(g, colors).elements()]
    as_items = [tuple(sorted(a.items())) for a in found]
    assert len(as_items) == len(set(as_items))
    assert set(as_items) == {tuple(sorted(a.items())) for a in listed_graph_auts(g, colors)}


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.lg")))
def test_graph_auts_match_listing_on_corpus(name):
    g = corpus_graph(name)
    for h in (g, g.induced_inner_subgraph()):
        assert_graph_auts_match_listing(h)
        decoration = {v: g.decoration(v).as_tuple() for v in h.vertices}
        assert_graph_auts_match_listing(h, decoration)


@settings(max_examples=60, deadline=None)
@given(loose_graphs(), st.data())
def test_graph_auts_match_listing_on_random_graphs(g, data):
    assert_graph_auts_match_listing(g)
    colors = {v: data.draw(st.integers(0, 1)) for v in g.vertices}
    assert_graph_auts_match_listing(g, colors)
