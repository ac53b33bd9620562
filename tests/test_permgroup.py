from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from loosegeo import permgroup
from loosegeo.permgroup import (
    PermGroup,
    _refine_colors,
    block_automorphisms,
    compose,
    inverse,
    orbit_sizes,
    pointwise_stabilizer,
    transporter,
    verify_central_product,
)
from loosegeo.scheme import build_scheme, classify_lines
from conftest import CORPUS, corpus_graph


def sym(n):
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return PermGroup([cycle, swap], n)


def test_symmetric_group_order_and_membership():
    g = sym(5)
    assert g.order() == 120
    for p in permutations(range(4)):
        assert g.contains(tuple(p) + (4,))
    assert len(list(g.elements())) == 120


def test_stabilizers_in_s4():
    g = sym(4)
    stab = pointwise_stabilizer(g, [0])
    assert stab.order() == 6


def test_central_product_of_disjoint_swaps():
    a = PermGroup([(1, 0, 2, 3)], 4)
    b = PermGroup([(0, 1, 3, 2)], 4)
    whole = PermGroup([(1, 0, 2, 3), (0, 1, 3, 2)], 4)
    rep = verify_central_product(whole, [a, b])
    assert rep["ok"] and rep["commute"] and rep["generates"]
    assert rep["overlaps"] == [{"factors": [0, 1], "order": 1}]


def test_central_product_rejects_non_commuting_factors():
    g = sym(3)
    a = PermGroup([(1, 0, 2)], 3)
    b = PermGroup([(0, 2, 1)], 3)
    rep = verify_central_product(g, [a, b])
    assert not rep["commute"] and not rep["ok"]
    assert rep["overlaps"] == [{"factors": [0, 1], "order": None}]


def test_central_product_overlap_of_commuting_factors():
    # <(0 1 2 3)> and <(0 2)(1 3)> commute and meet in <(0 2)(1 3)>
    a = PermGroup([(1, 2, 3, 0)], 4)
    b = PermGroup([(2, 3, 0, 1)], 4)
    rep = verify_central_product(a, [a, b])
    assert rep["ok"] and [a.order(), b.order()] == [4, 2]
    assert rep["overlaps"] == [{"factors": [0, 1], "order": 2}]


def test_central_product_overlaps_match_listing():
    # three commuting factors of the cyclic group of order 12 in degree 12
    c = tuple(list(range(1, 12)) + [0])
    powers = [c]
    for _ in range(11):
        powers.append(compose(c, powers[-1]))
    factors = [PermGroup([powers[k - 1]], 12) for k in (2, 3, 4)]
    rep = verify_central_product(PermGroup([c], 12), factors)
    assert rep["ok"]
    assert rep["overlaps"] == [
        {"factors": [0, 1], "order": 2},
        {"factors": [0, 2], "order": 3},
        {"factors": [1, 2], "order": 1},
    ]
    for overlap in rep["overlaps"]:
        i, j = overlap["factors"]
        listed = set(factors[i].elements()) & set(factors[j].elements())
        assert overlap["order"] == len(listed)


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_compose_and_inverse(p, q):
    p, q = tuple(p), tuple(q)
    pq = compose(p, q)
    # find image of i: q is applied first
    for i in range(6):
        assert pq[i] == p[q[i]]
    assert compose(p, inverse(p)) == tuple(range(6))


@given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=3))
def test_order_divides_symmetric_group(gens):
    g = PermGroup([tuple(p) for p in gens], 5)
    assert 120 % g.order() == 0
    for p in gens:
        assert g.contains(tuple(p))


def closure(gens, n):
    """Every product of the generators, grown from the identity."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@st.composite
def generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gens = draw(st.lists(st.permutations(list(range(n))), max_size=4))
    base = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3, unique=True))
    return n, [tuple(g) for g in gens], base


@given(generator_sets())
def test_sifting_chain_matches_closure(data):
    n, gens, base = data
    g = PermGroup(gens, n, base_hint=base)
    group = closure(gens, n)
    assert g.order() == len(group)
    assert [level.point for level in g._chain()][: len(base)] == base
    elements = g.elements()
    assert len(elements) == len(set(elements)) == g.order()
    assert set(elements) == group
    for p in permutations(range(n)):
        assert g.contains(p) == (p in group)


@given(generator_sets())
def test_elements_keep_the_product_order(data):
    """Skipping each transversal's identity keeps the order of the full
    product u_0 u_1 ... u_k, whose identity representative comes first."""
    n, gens, base = data
    g = PermGroup(gens, n, base_hint=base)
    listed = [tuple(range(n))]
    for *_, reps in reversed(g.levels()):
        listed = [compose(u, h) for u in reps for h in listed]
    assert g.elements() == listed


@given(generator_sets())
def test_pointwise_stabilizer_matches_closure(data):
    n, gens, pts = data
    g = PermGroup(gens, n)
    fixing = [p for p in closure(gens, n) if all(p[x] == x for x in pts)]
    assert pointwise_stabilizer(g, pts).order() == len(fixing)


@given(generator_sets(), st.data())
def test_transporter_matches_closure(data, draw):
    n, gens, pts = data
    images = draw.draw(st.lists(st.integers(0, n - 1), min_size=len(pts), max_size=len(pts)))
    found = transporter(PermGroup(gens, n), pts, images)
    mapping = [p for p in closure(gens, n) if all(p[x] == y for x, y in zip(pts, images))]
    assert (found is not None) == bool(mapping)
    assert found is None or found in mapping


def tuple_orbit(gens, points):
    """The images of the tuple of points under every product of the
    generators, found breadth first."""
    start = tuple(points)
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for g in gens:
            img = tuple(g[x] for x in t)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


@given(generator_sets(), st.data())
def test_orbit_size_matches_tuple_orbit(data, draw):
    n, gens, _ = data
    points = draw.draw(st.lists(st.integers(0, n - 1), max_size=4))
    sizes = orbit_sizes(PermGroup(gens, n), points)
    assert sizes == [len(tuple_orbit(gens, points[:k])) for k in range(len(points) + 1)]


@st.composite
def block_structures(draw):
    """(n, blocks, kinds, colors) with n <= 6 points, two points on at most
    one block, kinds and seed colours in {0, 1}."""
    n = draw(st.integers(0, 6))
    blocks = []
    if n:
        for pts in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=8)):
            if all(len(pts & set(b)) <= 1 for b in blocks):
                blocks.append(sorted(pts))
    kinds = [draw(st.integers(0, 1)) for _ in blocks]
    colors = [draw(st.integers(0, 1)) for _ in range(n)]
    return n, blocks, kinds, colors


def listed_block_auts(n, blocks, kinds, colors):
    """Every permutation preserving the colours and the kinded blocks, by
    trying all n! permutations: the reference for `block_automorphisms`."""
    typed = Counter((frozenset(b), k) for b, k in zip(blocks, kinds))
    return {
        p for p in permutations(range(n))
        if all(colors[p[i]] == colors[i] for i in range(n))
        and Counter((frozenset(p[i] for i in b), k) for b, k in typed.elements()) == typed
    }


@settings(max_examples=150, deadline=None)
@given(block_structures())
def test_block_automorphisms_match_listing(structure):
    group, nodes = block_automorphisms(*structure)
    elements = group.elements()
    assert len(elements) == len(set(elements))
    assert set(elements) == listed_block_auts(*structure)
    assert nodes >= 0


def test_block_kinds_separate_rows_from_columns():
    # the 3 x 3 grid: its transpose swaps rows and columns
    rows = [[3 * r + c for c in range(3)] for r in range(3)]
    cols = [[3 * r + c for r in range(3)] for c in range(3)]
    same, _ = block_automorphisms(9, rows + cols, [0] * 6, [0] * 9)
    kinded, _ = block_automorphisms(9, rows + cols, ["row"] * 3 + ["col"] * 3, [0] * 9)
    assert same.order() == 72 and kinded.order() == 36


def test_block_automorphisms_reject_pair_on_two_blocks():
    with pytest.raises(ValueError):
        block_automorphisms(3, [[0, 1], [0, 1, 2]], [0, 0], [0, 0, 0])


def reference_refine_colors(n, incident, kinds, blocks, colors):
    """The iterated incidence colouring with every point building the
    signature of each of its blocks itself: the reference for
    `_refine_colors`, which lists each block's signature once per round."""
    seed: dict = {}
    colors = [
        seed.setdefault(
            (colors[i], tuple(sorted((kinds[k], len(blocks[k])) for k in incident[i]))),
            len(seed),
        )
        for i in range(n)
    ]
    while True:
        table: dict = {}
        new = [0] * n
        for i in range(n):
            sig = tuple(
                sorted(
                    (kinds[k], tuple(sorted(colors[j] for j in blocks[k])))
                    for k in incident[i]
                )
            )
            new[i] = table.setdefault((colors[i], sig), len(table))
        if new == colors:
            return colors
        colors = new


def assert_refinement_matches_reference(n, blocks, kinds, colors):
    """The same colour list, labels included, from both colourings."""
    blocks = [sorted(b) for b in blocks]
    incident = [[] for _ in range(n)]
    for k, pts in enumerate(blocks):
        for a in pts:
            incident[a].append(k)
    args = (n, incident, kinds, blocks, colors)
    assert _refine_colors(*args) == reference_refine_colors(*args)


@pytest.mark.parametrize("name,q", list(product(sorted(p.stem for p in CORPUS.glob("*.lg")), [2, 3, 4])))
def test_refine_colors_matches_reference_on_line_geometries(name, q):
    scheme = build_scheme(corpus_graph(name), q)
    lines = classify_lines(scheme)
    blocks = [[scheme.point_index[p] for p in line.points] for line in lines]
    n = len(scheme.points)
    assert_refinement_matches_reference(n, blocks, [line.kind for line in lines], [0] * n)


@settings(max_examples=150, deadline=None)
@given(block_structures())
def test_refine_colors_matches_reference(structure):
    assert_refinement_matches_reference(*structure)


def test_block_automorphisms_refuse_a_search_beyond_the_bound(monkeypatch):
    # the 3 x 3 grid, whose search accepts 40 nodes
    rows = [[3 * r + c for c in range(3)] for r in range(3)]
    cols = [[3 * r + c for r in range(3)] for c in range(3)]
    structure = (9, rows + cols, [0] * 6, [0] * 9)
    _, nodes = block_automorphisms(*structure)
    monkeypatch.setattr(permgroup, "MAX_SEARCH_NODES", nodes)
    assert block_automorphisms(*structure)[1] == nodes
    monkeypatch.setattr(permgroup, "MAX_SEARCH_NODES", nodes - 1)
    with pytest.raises(ValueError, match=f"accepted {nodes} nodes, more than the bound {nodes - 1}$"):
        block_automorphisms(*structure)
