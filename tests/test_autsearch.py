import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from loosegeo import autsearch, permgroup
from loosegeo.scheme import build_scheme, classify_lines
from conftest import CORPUS, corpus_graph
from test_formats import loose_graphs


def model(name, q):
    return build_scheme(corpus_graph(name), q)


@pytest.mark.parametrize("name,q,order", [
    ("toy", 2, 8),
    ("toy", 3, 144),
    ("k3", 2, 168),
    ("gamma1", 2, 8),
    ("gamma2", 2, 192),
    ("spider", 3, 64),
    ("p4", 4, 108),
    ("toy", 4, 1728),
])
def test_proj_group_orders(name, q, order):
    proj = autsearch.proj_aut_group(model(name, q))
    assert proj.order == order
    assert not proj.faithful_witnesses()


@pytest.mark.parametrize("name", ["toy", "k3", "gamma1", "gamma2"])
def test_frame_search_matches_exhaustive_at_q2(name):
    scheme = model(name, 2)
    proj = autsearch.proj_aut_group(scheme)
    oracle = autsearch.exhaustive_stabilizer(scheme)
    assert sorted(proj.linear) == sorted(oracle)


@pytest.mark.parametrize("name", ["k2", "p3"])
def test_frame_search_matches_exhaustive_at_q3(name):
    scheme = model(name, 3)
    assert autsearch.proj_aut_group(scheme).linear == autsearch.exhaustive_stabilizer(scheme)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3]))
def test_frame_search_matches_exhaustive_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 3)
    scheme = build_scheme(g, q)
    assert autsearch.proj_aut_group(scheme).linear == autsearch.exhaustive_stabilizer(scheme)


def test_composed_point_perms_match_direct_action_at_q4():
    scheme = model("p4", 4)
    proj = autsearch.proj_aut_group(scheme)
    assert {g.frob for g in proj.elements} == {0, 1}
    for g, perm in zip(proj.elements, proj.perms):
        assert perm == autsearch.collineation_point_perm(scheme, g)


def test_singular_matrix_does_not_stabilize():
    scheme = model("toy", 3)
    # the rational points are mapped before inverting, so zero images occur
    rank3 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0))
    assert not autsearch.collineation_stabilizes(scheme, rank3)
    assert not autsearch.collineation_stabilizes(scheme, ((0,) * 4,) * 4)


def test_every_element_stabilizes():
    scheme = model("toy", 3)
    proj = autsearch.proj_aut_group(scheme)
    for g in proj.elements:
        assert autsearch.collineation_stabilizes(scheme, g.matrix)


def test_comb_group_orders():
    assert autsearch.comb_aut_group(model("toy", 2)).order == 8
    assert autsearch.comb_aut_group(model("toy", 3)).order == 144
    assert autsearch.comb_aut_group(model("k3", 2)).order == 168


def listed_comb_perms(scheme):
    """Every automorphism of the point-line geometry preserving line kinds,
    listed by plain backtracking over point images: the reference for
    `comb_aut_group`.  A candidate image must give each pair with the
    assigned points the same multiset of (kind, size) of lines through it,
    and every line whose points are all assigned must map onto a line of
    the same kind."""
    lines = classify_lines(scheme)
    n = len(scheme.points)
    line_pts = [sorted(scheme.point_index[p] for p in L.points) for L in lines]
    line_kind = [L.kind for L in lines]
    line_lookup = {frozenset(pts): k for k, pts in enumerate(line_pts)}
    incident = [[] for _ in range(n)]
    for k, pts in enumerate(line_pts):
        for i in pts:
            incident[i].append(k)
    colors = permgroup._refine_colors(n, incident, line_kind, line_pts, [0] * n)
    pair_sig: dict = {}
    for k, pts in enumerate(line_pts):
        for a_i, a in enumerate(pts):
            for b in pts[a_i + 1:]:
                pair_sig.setdefault((a, b), []).append((line_kind[k], len(pts)))
    for key in pair_sig:
        pair_sig[key] = tuple(sorted(pair_sig[key]))

    def sig(a, b):
        return pair_sig.get((a, b) if a < b else (b, a), ())

    by_color: dict = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    order = sorted(range(n), key=lambda i: (len(by_color[colors[i]]), i))
    pos = {p: k for k, p in enumerate(order)}
    complete_at = [[] for _ in range(n)]
    for k, pts in enumerate(line_pts):
        complete_at[max(pos[i] for i in pts)].append(k)

    found = []
    image = [-1] * n
    used = [False] * n

    def descend(step):
        if step == n:
            found.append(tuple(image))
            return
        i = order[step]
        for t in by_color[colors[i]]:
            if used[t]:
                continue
            if any(sig(i, order[j]) != sig(t, image[order[j]]) for j in range(step)):
                continue
            image[i] = t
            used[t] = True
            ok = True
            for k in complete_at[step]:
                k2 = line_lookup.get(frozenset(image[p] for p in line_pts[k]))
                if k2 is None or line_kind[k2] != line_kind[k]:
                    ok = False
                    break
            if ok:
                descend(step + 1)
            image[i] = -1
            used[t] = False

    descend(0)
    return found


def assert_comb_matches_listing(scheme):
    comb = autsearch.comb_aut_group(scheme)
    listed = listed_comb_perms(scheme)
    assert len(comb.perms) == len(set(comb.perms)) == comb.perm_group.order()
    assert set(comb.perms) == set(listed)
    chain = comb.perm_group._chain()
    assert len(comb.perm_group.generators) <= sum(len(lvl.transversal) for lvl in chain)


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.lg")))
def test_comb_search_matches_listing_at_q2(name):
    assert_comb_matches_listing(model(name, 2))


@pytest.mark.parametrize("name", ["k3", "toy", "spider", "gamma1", "fundament"])
def test_comb_search_matches_listing_at_q3(name):
    assert_comb_matches_listing(model(name, 3))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3]))
def test_comb_search_matches_listing_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 3)
    assert_comb_matches_listing(build_scheme(g, q))


def test_local_fixing_subgroup_toy():
    proj = autsearch.proj_aut_group(model("toy", 3))
    sx = autsearch.local_fixing_subgroup(proj, "x")
    sy = autsearch.local_fixing_subgroup(proj, "y")
    # fixing the other vertex's affine patch pointwise leaves q(q-1)^2 elements
    assert sx["order"] == sy["order"] == 12


def test_plane_pointwise_stabilizers_toy():
    proj = autsearch.proj_aut_group(model("toy", 3))
    d = autsearch.plane_pointwise_stabilizer(proj, ["x", "y", "lx#1"])
    c = autsearch.plane_pointwise_stabilizer(proj, ["x", "lx#1", "ly#1"])
    assert d["order"] == 6  # q(q-1)
    assert c["order"] == 2  # q-1


def test_semilinear_part_appears_at_q4():
    scheme = model("p3", 4)
    proj = autsearch.proj_aut_group(scheme)
    assert proj.order == 2 * proj.linear_order
    frobs = {g.frob % scheme.F.e for g in proj.elements}
    assert frobs == {0, 1}


def test_inner_graph_property_gamma():
    for name, expected in (("gamma1", True), ("gamma2", False)):
        scheme = model(name, 2)
        proj = autsearch.proj_aut_group(scheme)
        rep = autsearch.inner_graph_property(scheme, proj.perms)
        assert rep["holds"] == expected


def test_roots_single_orbit_q2():
    rep = autsearch.enumerate_roots(2)
    assert rep == {"count": 5040, "orbit_size": 5040, "transitive": True}


def test_fundaments_single_orbit_q2():
    plain = autsearch.enumerate_fundaments(2)
    assert plain == {"count": 5040, "orbit_size": 5040, "transitive": True}
    ends = autsearch.enumerate_fundaments(2, ends=True)
    assert ends == {"count": 20160, "orbit_size": 20160, "transitive": True}
