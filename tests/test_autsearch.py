from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from loosegeo import autsearch, gfq, permgroup
from loosegeo.graphs import LooseGraph
from loosegeo.scheme import build_scheme, classify_lines
from conftest import CORPUS, corpus_graph
from test_formats import loose_graphs


def model(name, q):
    """The scheme of a corpus graph; a name ending in "+ve" adds one
    vertexless edge to it."""
    base, plus_ve, _ = name.partition("+ve")
    g = corpus_graph(base)
    if plus_ve:
        g = LooseGraph(g.vertices, {**g.edges, "ve": (None, None)})
    return build_scheme(g, q)


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


def test_punctured_line_contained_only_if_its_ends_are_not_hit():
    scheme = model("ve", 3)
    (piece,) = scheme.pieces
    assert autsearch._piece_contained(scheme, ((1, 0), (0, 1)), piece)
    # the shear e#0 -> e#0 + e#1 maps the punctured line onto the line less
    # (1, 1) and (0, 1), so (1, 0), outside X, is in the image: on the line
    # x - 1 points lie in X, one of them the image of an excluded end
    assert not autsearch._piece_contained(scheme, ((1, 0), (1, 1)), piece)


def reference_piece_contained(scheme, M, piece):
    """The piece test reading each column on the support as M times a unit
    vector."""
    F, m = scheme.F, scheme.m
    bits = [i for i in range(m) if piece.support_mask >> i & 1]
    cols = {i: gfq.mat_vec(F, M, autsearch._basis_vec(m, i)) for i in bits}
    if piece.kind == "gm":
        excluded = sum(1 for i in bits if gfq.normalize_point(F, cols[i]) in scheme.point_index)
        return scheme.point_polynomial(tuple(cols.values())) == (excluded - 1, 1)
    full = scheme.point_polynomial(tuple(cols[i] for i in bits))
    if len(bits) == 1:
        return full == (1,)
    hyp = scheme.point_polynomial(tuple(cols[i] for i in bits if i != piece.required_bit))
    return full == autsearch.add_monomial(hyp, len(bits) - 1)


def two_sided_stabilizes(scheme, M):
    """The two-sided rule: the rational points map into X, M is invertible,
    its inverse read off the reduced echelon form [I | M^-1] of [M | I], and
    every piece is contained in X under M and under M^-1."""
    F, m = scheme.F, scheme.m
    for p in scheme.points:
        img = gfq.mat_vec(F, M, p)
        if not any(img) or gfq.normalize_point(F, img) not in scheme.point_index:
            return False
    ident = [autsearch._basis_vec(m, i) for i in range(m)]
    rows = gfq.echelon(F, [tuple(M[i]) + ident[i] for i in range(m)])
    if [row[:m] for row in rows] != ident:
        return False
    inverse = tuple(row[m:] for row in rows)
    return all(
        reference_piece_contained(scheme, mat, piece)
        for mat in (M, inverse) for piece in scheme.pieces
    )


def assert_one_sided_rule_matches_two_sided(scheme):
    F, m = scheme.F, scheme.m
    assert F.q ** (m * m) <= 10**5
    accepted = 0
    for entries in product(F.elements(), repeat=m * m):
        M = autsearch._square(entries, m)
        verdict = autsearch.collineation_stabilizes(scheme, M)
        assert verdict == two_sided_stabilizes(scheme, M), M
        accepted += verdict
    assert accepted  # the scalars at least


@pytest.mark.parametrize("name,q", [("toy", 2), ("k2", 2), ("ve", 2), ("ve", 3)])
def test_one_sided_rule_matches_two_sided_on_every_matrix(name, q):
    assert_one_sided_rule_matches_two_sided(model(name, q))


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3]))
def test_one_sided_rule_matches_two_sided_on_random_graphs(g, q):
    m = len(g.completion())
    assume(1 <= m and q ** (m * m) <= 10**5)
    assert_one_sided_rule_matches_two_sided(build_scheme(g, q))


def reference_restrict(F, basis, pairs):
    """A basis of the matrices M in the span of `basis` with M u parallel to
    y (or zero) for each pair (u, y), y normalized, restricted one pair at a
    time: with p the pivot of y, (M u)_b - y_b (M u)_p = 0 for each b != p,
    solved for the coefficients of M in the current basis."""
    m = len(basis[0])
    for u, y in pairs:
        if not basis:
            break
        images = [gfq.mat_vec(F, B, u) for B in basis]
        p = next(c for c, v in enumerate(y) if v)
        rows = [[F.sub(w[b], F.mul(y[b], w[p])) for w in images] for b in range(m) if b != p]
        coeffs = gfq.null_space(F, rows, len(basis))
        if len(coeffs) < len(basis):
            basis = [reference_combine(F, lam, basis) for lam in coeffs]
    return basis


def reference_combine(F, lam, basis):
    m = len(basis[0])
    out = [[0] * m for _ in range(m)]
    for c, B in zip(lam, basis):
        for a in range(m):
            out[a] = [F.add(x, F.mul(c, y)) for x, y in zip(out[a], B[a])]
    return tuple(tuple(row) for row in out)


def flat_span(F, matrices):
    return gfq.echelon(F, [tuple(x for row in M for x in row) for M in matrices])


def assert_lift_spaces_match_reference(scheme):
    """`_Lifter`'s determining points, dimension and the lift space of the
    identity and of every combinatorial generator at each Frobenius power
    against the space restricted from the m^2 unit matrices."""
    F, m, pts = scheme.F, scheme.m, scheme.points
    units = [autsearch._square(autsearch._basis_vec(m * m, i), m) for i in range(m * m)]
    determining, basis = [], units
    for i, p in enumerate(pts):
        smaller = reference_restrict(F, basis, [(p, p)])
        if len(smaller) < len(basis):
            determining.append(i)
            basis = smaller
    lifter = autsearch._Lifter(scheme)
    assert (lifter.determining, lifter.dim) == (determining, len(basis))
    perms = [permgroup.identity_perm(len(pts))]
    perms += autsearch.comb_aut_group(scheme).perm_group.generators
    for perm in perms:
        for src in lifter.frob_points:
            pairs = [(src[i], pts[perm[i]]) for i in determining]
            rows = [row for u, y in pairs for row in autsearch._conditions(F, u, y)]
            space = gfq.null_space(F, rows, m * m)
            assert gfq.echelon(F, space) == flat_span(F, reference_restrict(F, units, pairs))


CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.lg"))


@pytest.mark.parametrize("name", CORPUS_NAMES + [n + "+ve" for n in CORPUS_NAMES])
@pytest.mark.parametrize("q", [2, 4])
def test_lift_spaces_match_reference(name, q):
    assert_lift_spaces_match_reference(model(name, q))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_lift_spaces_match_reference_on_random_graphs(g, q):
    assert_lift_spaces_match_reference(small_scheme(g, q))


def test_lift_space_beyond_the_bound_is_refused():
    # p4 with a loose edge at an end and two vertexless edges: at q = 2 each
    # vertexless edge has one point, so few conditions bind the identity's lifts
    g = corpus_graph("p4")
    g = LooseGraph(g.vertices, {**g.edges, "l": ("a", None), "v1": (None, None), "v2": (None, None)})
    scheme = build_scheme(g, 2)
    assert (scheme.m, len(scheme.points)) == (9, 13)
    with pytest.raises(ValueError, match=r"dimension 21: 2097151 candidate .* bound 100000$"):
        autsearch.proj_aut_group(scheme)


def test_every_element_stabilizes():
    scheme = model("toy", 3)
    proj = autsearch.proj_aut_group(scheme)
    for g in proj.elements:
        assert autsearch.collineation_stabilizes(scheme, g.matrix)


def frame_search(scheme):
    """Every linear stabilizer via images of the coordinate frame, as a
    sorted list of canonical matrices: the reference for `proj_aut_group`.

    A linear collineation is determined by the images of the basis points
    and the unit point.  Candidate images are pruned by comparing point
    polynomials of spans, which are collineation invariants: the images of
    basis points i and k must span a line with the polynomial of the
    coordinate line (i, k), and the first k images a space with the
    polynomial of the first k coordinates.  The unit point fixes the scales
    of the chosen images, one column at a time; once the scales of columns
    0..c are fixed, the image of every rational point whose last nonzero
    coordinate is c is fixed too and must lie in X.
    `collineation_stabilizes` decides every complete matrix."""
    F, m = scheme.F, scheme.m
    poly = scheme.point_polynomial
    basis = [autsearch._basis_vec(m, i) for i in range(m)]
    pair_ref = {(i, j): poly((basis[i], basis[j])) for i in range(m) for j in range(i + 1, m)}
    prefix_ref = [poly(tuple(basis[: k + 1])) for k in range(m)]
    by_poly: dict = {}
    for p in gfq.projective_points(F, m):
        by_poly.setdefault(poly((p,)), []).append(p)
    level_cands = [by_poly.get(poly((basis[i],)), []) for i in range(m)]
    by_last = [[] for _ in range(m)]
    for p in scheme.points:
        by_last[max(c for c in range(m) if p[c])].append(p)
    units = [c for c in F.elements() if c != 0]
    found = set()
    chosen: list = []
    cols: list = []

    def scale_from(c):
        if c == m:
            M = tuple(zip(*cols))
            if autsearch.collineation_stabilizes(scheme, M):
                found.add(autsearch.canonical_matrix(F, M))
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

    def descend(i, cands):
        if i == m:
            scale_from(0)
            return
        for p in cands[i]:
            rows = gfq.echelon(F, chosen + [p])
            if len(rows) != i + 1 or poly(rows) != prefix_ref[i]:
                continue
            deeper = cands[: i + 1]
            for k in range(i + 1, m):
                keep = [x for x in cands[k] if poly((p, x)) == pair_ref[(i, k)]]
                if not keep:
                    break
                deeper.append(keep)
            else:
                chosen.append(p)
                descend(i + 1, deeper)
                chosen.pop()

    descend(0, level_cands)
    return sorted(found)


def assert_proj_matches_frame_search(scheme):
    proj = autsearch.proj_aut_group(scheme)
    linear = frame_search(scheme)
    elements = [autsearch.Collineation(M, t) for M in linear for t in range(scheme.F.e)]
    assert proj.linear == linear
    assert proj.frob_count == scheme.F.e
    assert proj.elements == elements
    assert proj.perms == [autsearch.collineation_point_perm(scheme, g) for g in elements]
    assert proj.perm_group.order() == len(set(proj.perms))


@pytest.mark.parametrize("name,q", [
    ("gamma1", 3),  # the projective group is half the combinatorial one
    ("toy", 4),  # semilinear
    ("p4", 4),  # semilinear
    ("ve", 2),  # nontrivial kernel
    ("ve", 3),  # nontrivial kernel
    ("p3+ve", 2),  # a punctured line beside other coordinates
    ("p3+ve", 3),
])
def test_proj_group_matches_frame_search(name, q):
    assert_proj_matches_frame_search(model(name, q))


def small_scheme(g, q):
    """The scheme of a random graph with at most four coordinates and 24
    rational points.  Larger ones can have groups too big to list in a test:
    a vertex with three loose edges at q=3 (an affine 3-space, 27 points)
    has 303,264 elements."""
    assume(1 <= len(g.completion()) <= 4)
    scheme = build_scheme(g, q)
    assume(len(scheme.points) <= 24)
    return scheme


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_proj_group_matches_frame_search_on_random_graphs(g, q):
    assert_proj_matches_frame_search(small_scheme(g, q))


def pgammal_order(m, q):
    F = gfq.get_field(q)
    order = F.e * q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        order *= q**i - 1
    return order


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_proj_group_is_a_subgroup_of_the_comb_group(g, q):
    scheme = small_scheme(g, q)
    proj = autsearch.proj_aut_group(scheme)
    assert proj.perm_group.is_subgroup_of(autsearch.comb_aut_group(scheme).perm_group)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_proj_order_divides_pgammal(g, q):
    scheme = small_scheme(g, q)
    assert pgammal_order(scheme.m, q) % autsearch.proj_aut_group(scheme).order == 0


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
    sx = proj.fixing(autsearch.local_spans(proj.scheme, "x"))
    sy = proj.fixing(autsearch.local_spans(proj.scheme, "y"))
    # fixing the other vertex's affine patch pointwise leaves q(q-1)^2 elements
    assert sx[1] == sy[1] == 12
    assert sx[0].order() == sy[0].order() == 12


def test_local_spans_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        autsearch.local_spans(model("toy", 2), "nowhere")


def test_plane_pointwise_stabilizers_toy():
    proj = autsearch.proj_aut_group(model("toy", 3))
    d = proj.fixing([["x", "y", "lx#1"]])
    # (0, 0, 1, 0) on this plane lies outside X: only the lift can fix it
    c = proj.fixing([["x", "lx#1", "ly#1"]])
    assert d[1] == 6  # q(q-1)
    assert c[1] == 2  # q-1


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


def test_orbit_leaving_the_set_is_a_failed_check(monkeypatch):
    from loosegeo import theorems

    init = autsearch._Space.__init__

    def broken(self, q):
        # one generator also swaps the first point id with the first line id,
        # so some configuration maps onto a tuple outside the set
        init(self, q)
        g = next(iter(self.generators))
        perm = list(self.generators[g])
        P = len(self.points)
        perm[0], perm[P] = perm[P], perm[0]
        self.generators[g] = tuple(perm)

    monkeypatch.setattr(autsearch._Space, "__init__", broken)
    root = theorems.verify("transroot", None)
    assert root.verdict == "fail"
    assert root.quantities["transitive"] is False and "stray" in root.quantities
    fund = theorems.verify("transfund", None)
    assert fund.verdict == "fail"
    assert "stray" in fund.quantities["plain"] and "stray" in fund.quantities["with_ends"]


def test_transfund_builds_one_space_and_one_chain(monkeypatch):
    from loosegeo import theorems
    from test_scheme import count_calls  # test_scheme imports this module

    spaces = count_calls(monkeypatch, ["__init__"], owner=autsearch._Space)
    chains = count_calls(monkeypatch, ["_build_chain"], owner=permgroup.PermGroup)
    rep = theorems.verify("transfund", None, 2)
    assert rep.verdict == "pass"
    assert rep.quantities["plain"]["count"] == 5040 and rep.quantities["with_ends"]["count"] == 20160
    assert (spaces["__init__"], chains["_build_chain"]) == (1, 1)


def test_roots_and_fundaments_single_orbit_q3():
    # (q^3+q^2+q+1)(q^3+q^2+q)(q^2+q)q^2 of each, q^2 times as many with ends
    expected = {"count": 168480, "orbit_size": 168480, "transitive": True}
    assert autsearch.enumerate_roots(3) == expected
    assert autsearch.enumerate_fundaments(3) == expected
    ends = {"count": 1516320, "orbit_size": 1516320, "transitive": True}
    assert autsearch.enumerate_fundaments(3, ends=True) == ends


def listed_configurations(space, shape):
    """Every configuration of the shape ("roots", "plain" or "ends") as a
    tuple of ids, each built: the reference for the counts of
    `enumerate_roots` and `enumerate_fundaments`."""
    configs = set()
    for x, y, xy, A, B in autsearch._skew_line_pairs(space):
        if shape == "roots":
            configs.add((x, y, A, B))
        elif shape == "plain":
            configs.add((A, xy, B))
        else:
            configs.update(
                (A, xy, B, c, d) for c in space.lines[A] - {x} for d in space.lines[B] - {y}
            )
    return configs


def listed_orbit_report(space, configs):
    """The orbit of one configuration under the generators, found breadth
    first, against the whole set; an image outside it is `stray`: the
    reference for `autsearch._orbit_report`."""
    start = next(iter(configs))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cfg in frontier:
            for g in space.generators.values():
                img = tuple(g[x] for x in cfg)
                if img not in seen:
                    if img not in configs:
                        return {"count": len(configs), "orbit_size": len(seen),
                                "transitive": False, "stray": img}
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return {"count": len(configs), "orbit_size": len(seen), "transitive": len(seen) == len(configs)}


@pytest.mark.parametrize("q,shape", [
    (2, "roots"), (2, "plain"), (2, "ends"), (3, "roots"), (3, "plain"),
])
def test_orbit_reports_match_listed_orbits(q, shape):
    if shape == "roots":
        read = autsearch.enumerate_roots(q)
    else:
        read = autsearch.enumerate_fundaments(q, ends=shape == "ends")
    space = autsearch._Space(q)
    assert read == listed_orbit_report(space, listed_configurations(space, shape))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_space_generators_act_as_pgammal(q):
    space = autsearch._Space(q)
    n = len(space.points)
    group = permgroup.PermGroup([g[:n] for g in space.generators.values()], n)
    assert group.order() == pgammal_order(4, q)  # 20,160, 12,130,560, 1,974,067,200


def map_config(F, g, config):
    """A configuration of normalized points and echelon line bases mapped
    by the collineation g on coordinate vectors, each line row-reduced
    again: the reference for the id permutations of `autsearch._Space`."""

    def f(v):
        return gfq.mat_vec(F, g.matrix, autsearch.frobenius_vec(F, v, g.frob))

    return tuple(
        gfq.echelon(F, tuple(f(r) for r in part)) if isinstance(part[0], tuple)
        else gfq.normalize_point(F, f(part))
        for part in config
    )


def assert_id_action_matches_vectors(space, configs):
    """Every generator's id permutation, translated back to vectors, agrees
    with `map_config` on every configuration."""
    F = space.F
    vectors = space.points + [
        gfq.echelon(F, [space.points[i] for i in sorted(pts)]) for pts in space.lines.values()
    ]
    assert list(space.lines) == list(range(len(space.points), len(vectors)))
    for g, perm in space.generators.items():
        for cfg in configs:
            image = tuple(vectors[perm[i]] for i in cfg)
            assert image == map_config(F, g, tuple(vectors[i] for i in cfg))


def test_id_action_matches_vectors_on_configurations_q2():
    space = autsearch._Space(2)
    roots = listed_configurations(space, "roots")
    assert len(roots) == 5040
    assert_id_action_matches_vectors(space, roots)
    fundaments = listed_configurations(space, "ends")
    assert len(fundaments) == 20160
    assert_id_action_matches_vectors(space, fundaments)


def test_id_action_matches_vectors_on_points_and_lines_q4():
    space = autsearch._Space(4)
    assert len(space.points) == 85 and len(space.lines) == 357
    assert {g.frob for g in space.generators} == {0, 1}
    n = len(space.points) + len(space.lines)
    assert_id_action_matches_vectors(space, [(i,) for i in range(n)])
