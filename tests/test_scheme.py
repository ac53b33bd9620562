from fractions import Fraction
from itertools import combinations, product
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from loosegeo import formats, gfq
from loosegeo.autsearch import embedded_inner_graph
from loosegeo.scheme import (
    MAX_AMBIENT,
    MAX_SUBSPACE_DIM,
    AffinePatch,
    GeometryLine,
    SchemeModel,
    add_monomial,
    build_scheme,
    classify_lines,
    complement_points,
    convexity_check,
    count_points,
    decompose,
    enumerate_subspaces,
    interpolate_count_polynomial,
    secant_lines,
    subgraph_span_dim,
    _hyperplanes_of,
    _off_star_points,
)
from loosegeo.theorems import check_rules
from conftest import CORPUS, corpus_graph
from test_autsearch import small_scheme
from test_formats import loose_graphs


def brute_points(graph, q):
    """Independent membership test: a projective point belongs to the model iff
    its support sits inside one vertex star with the vertex coordinate nonzero,
    or is exactly the two fresh ends of a vertexless edge."""
    F = gfq.get_field(q)
    comp = graph.completion()
    idx = comp.index
    out = []
    for p in gfq.projective_points(F, len(comp)):
        support = {comp.names[i] for i, c in enumerate(p) if c != 0}
        ok = False
        for v in graph.vertices:
            star = {v} | set(comp.neighbours(v))
            if v in support and support <= star:
                ok = True
        for e, (a, b) in graph.edges.items():
            if a is None and b is None and support == set(comp.edge_ends[e]):
                ok = True
        if ok:
            out.append(p)
    return out


@pytest.mark.parametrize("name,q", list(product(["toy", "p4", "k3", "gamma1", "gamma2", "ve"], [2, 3])))
def test_points_match_brute_membership(name, q):
    graph = corpus_graph(name)
    model = build_scheme(graph, q)
    assert model.points == sorted(brute_points(graph, q))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3]))
def test_points_match_brute_membership_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 6)
    assert build_scheme(g, q).points == sorted(brute_points(g, q))


def brute_complement(graph, q):
    """Independent complement membership: a projective point belongs to X^c
    iff its support is two non-adjacent vertices of the graph, or it holds
    a fresh end v with a non-neighbour in the completion and lies within v
    and v's non-neighbours."""
    F = gfq.get_field(q)
    comp = graph.completion()
    out = []
    for p in gfq.projective_points(F, len(comp)):
        support = {comp.names[i] for i, c in enumerate(p) if c != 0}
        ok = len(support) == 2 and support <= set(graph.vertices) and not comp.adjacent(*support)
        for v in support - set(graph.vertices):
            far = {w for w in comp.names if w != v and not comp.adjacent(v, w)}
            if far and support <= far | {v}:
                ok = True
        if ok:
            out.append(p)
    return out


@pytest.mark.parametrize("name,q", list(product(sorted(p.stem for p in CORPUS.glob("*.lg")), [2, 3])))
def test_complement_matches_brute_membership(name, q):
    graph = corpus_graph(name)
    assert complement_points(build_scheme(graph, q)) == sorted(brute_complement(graph, q))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3]))
def test_complement_matches_brute_membership_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 6)
    assert complement_points(build_scheme(g, q)) == sorted(brute_complement(g, q))


def test_toy_point_counts():
    toy = corpus_graph("toy")
    assert len(build_scheme(toy, 2).points) == 7
    assert len(build_scheme(toy, 3).points) == 16
    assert count_points(toy, [2, 3, 4, 5]) == {2: 7, 3: 16, 4: 29, 5: 46}


def test_counting_polynomials():
    # toy: 2q^2 - q + 1; triangle: q^2 + q + 1
    toy_poly = interpolate_count_polynomial(corpus_graph("toy"))
    assert toy_poly == [Fraction(1), Fraction(-1), Fraction(2)]
    k3_poly = interpolate_count_polynomial(corpus_graph("k3"))
    assert k3_poly == [Fraction(1), Fraction(1), Fraction(1)]


def test_counting_polynomial_of_isolated_vertex_and_vertexless_edge():
    # one point for the vertex, q - 1 for the punctured line: N(q) = q, of
    # degree one although no vertex has an edge
    graph = formats.parse_graph("vertex v\nedge e - -\n")
    assert count_points(graph, [2, 3, 4, 5]) == {2: 2, 3: 3, 4: 4, 5: 5}
    assert interpolate_count_polynomial(graph) == [0, 1]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs())
def test_counting_polynomial_matches_enumeration(g):
    assume(1 <= len(g.completion()) <= MAX_AMBIENT)
    poly = interpolate_count_polynomial(g)
    for q in (2, 3, 4, 5):
        assert sum(c * q**d for d, c in enumerate(poly)) == len(build_scheme(g, q).points)


def test_extension_counts_are_consistent():
    model = build_scheme(corpus_graph("toy"), 2)
    # |X(F_{2^r})| follows the same polynomial 2q^2 - q + 1
    for r in (1, 2, 3):
        q = 2 ** r
        assert model.point_count(r) == 2 * q * q - q + 1


def test_count_points_rejects_census_mismatch(monkeypatch):
    monkeypatch.setattr(SchemeModel, "point_count", lambda self, r=1: len(self.points) + 1)
    with pytest.raises(AssertionError):
        count_points(corpus_graph("toy"), [2])


def listed_count_in_subspace(scheme, rows, r):
    """The F_{q^r}-points of the span of rows in X, listed over GF(q^r) and
    tested with the pieces' support masks.  For a prime q the integers
    0..q-1 are GF(q) inside GF(q^r), so rows over GF(q) carry over as they
    are."""
    big = gfq.get_field(scheme.q ** r)
    count = 0
    for p in gfq.span_points(big, rows):
        mask = scheme.support_mask(p)
        if any(
            mask == piece.support_mask if piece.kind == "gm"
            else mask & ~piece.support_mask == 0 and mask >> piece.required_bit & 1
            for piece in scheme.pieces
        ):
            count += 1
    return count


@pytest.mark.parametrize("name", ["toy", "k3", "gamma1", "spider", "ve"])
@pytest.mark.parametrize("q", [2, 3])
def test_count_in_subspace_matches_listing(name, q):
    scheme = build_scheme(corpus_graph(name), q)
    F = scheme.F
    for r in (1, 2, 3):
        big = gfq.get_field(q**r)
        assert all(big.add(a, b) == (a + b) % q and big.mul(a, b) == a * b % q
                   for a in range(q) for b in range(q))
    rng = random.Random(f"{name}{q}")
    ambient = list(gfq.projective_points(F, scheme.m))
    for _ in range(6):
        rows = gfq.echelon(F, rng.sample(ambient, rng.randint(1, 3)))
        for r in (1, 2, 3):
            assert scheme.count_in_subspace(rows, r) == listed_count_in_subspace(scheme, rows, r)


def reference_count_in_subspace(scheme, rows, r):
    """The count by the earlier route: the dimension of the span's trace on
    every coordinate subset of its support union, one elimination each, then
    the Moebius transform over the subsets at x = q^r, summed over the good
    supports."""
    F = scheme.F
    basis = list(gfq.echelon(F, rows))
    k = len(basis)
    union = 0
    for row in basis:
        union |= scheme.support_mask(row)
    bits = [i for i in range(scheme.m) if union >> i & 1]
    u = len(bits)
    dmap = {}
    for sub in range(1 << u):
        outside = [i for j, i in enumerate(bits) if not sub >> j & 1]
        if not outside or k == 0:
            dmap[sub] = k
            continue
        dmap[sub] = k - gfq.mat_rank(F, [tuple(row[i] for i in outside) for row in basis])
    x = scheme.q**r
    f = [x ** dmap[s] for s in range(1 << u)]
    for j in range(u):
        bit = 1 << j
        for s in range(1 << u):
            if s & bit:
                f[s] -= f[s ^ bit]
    total = 0
    for s in range(1, 1 << u):
        mask = sum(1 << bits[j] for j in range(u) if s >> j & 1)
        if mask in scheme._good_supports:
            total += f[s]
    if total % (x - 1):
        raise AssertionError(f"{total} affine points over F_{x}")
    return total // (x - 1)


def random_rows(rng, scheme, dim):
    """dim vectors, each a rational point of the scheme or a random vector
    of the ambient space (which mostly has full support)."""
    q, m = scheme.q, scheme.m
    return [
        rng.choice(scheme.points) if rng.random() < 0.5
        else tuple(rng.randrange(q) for _ in range(m))
        for _ in range(dim)
    ]


def assert_profile_matches_reference(scheme, rows):
    """The counts over F_{q^r}, r = 1..m+1, read from the point polynomial,
    equal the earlier route's: m + 1 values pin a polynomial of degree at
    most m - 1."""
    degrees = range(1, scheme.m + 2)
    expected = [reference_count_in_subspace(scheme, rows, r) for r in degrees]
    assert [scheme.count_in_subspace(rows, r) for r in degrees] == expected


@pytest.mark.parametrize("name", ["toy", "spider", "gamma2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_profile_matches_reference_on_random_spans(name, q):
    scheme = build_scheme(corpus_graph(name), q)
    m = scheme.m
    rng = random.Random(f"{name}{q}")
    full = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    assert_profile_matches_reference(scheme, full)
    for dim in range(1, m + 1):
        for _ in range(2):
            assert_profile_matches_reference(scheme, random_rows(rng, scheme, dim))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4, 5]), st.randoms(use_true_random=False))
def test_profile_matches_reference_on_random_graphs(g, q, rng):
    scheme = small_scheme(g, q)
    for dim in range(1, scheme.m + 1):
        assert_profile_matches_reference(scheme, random_rows(rng, scheme, dim))


def test_count_in_subspace_rejects_degrees_below_one():
    scheme = build_scheme(corpus_graph("toy"), 3)
    rows = ((1, 0, 0, 0),)
    assert scheme.count_in_subspace(rows, 1) == 1
    for r in (0, -1):
        with pytest.raises(ValueError):
            scheme.count_in_subspace(rows, r)


def test_point_count_rejects_degrees_below_one():
    scheme = build_scheme(corpus_graph("toy"), 3)
    assert scheme.point_count(1) == len(scheme.points)
    for r in (0, -1):
        with pytest.raises(ValueError, match=f"^extension degree must be at least 1, got {r}$"):
            scheme.point_count(r)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(1, 3), st.integers(0, 2), st.data())
def test_hyperplanes_match_brute_force(q, k, extra, data):
    """The hyperplanes of a subspace are the distinct spans of its (k - 1)-sets
    of points of rank k - 1."""
    F = gfq.get_field(q)
    entry = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.tuples(*[entry] * (k + extra)), min_size=k, max_size=k))
    assume(gfq.mat_rank(F, rows) == k)
    basis = gfq.echelon(F, rows)
    brute = {
        gfq.echelon(F, subset)
        for subset in combinations(gfq.span_points(F, basis), k - 1)
        if gfq.mat_rank(F, subset) == k - 1
    }
    hyperplanes = _hyperplanes_of(F, basis)
    assert hyperplanes == sorted(brute)
    assert len(brute) == gfq.pg_size(q, k)
    assert all(gfq.echelon(F, hyp) == hyp for hyp in hyperplanes)


def test_point_polynomial_eliminates_only_dependent_rows(monkeypatch):
    """Independent rows, canonical or not and given as a tuple or a list,
    are counted as they are; dependent rows and zero rows take their echelon
    basis's point polynomial, from one elimination.  Rows given as lists
    share the entry of the same rows given as tuples."""
    model = build_scheme(corpus_graph("toy"), 3)
    F = model.F
    rows = ((1, 2, 0, 0), (2, 1, 1, 0))
    key = gfq.echelon(F, rows)
    assert key != rows
    poly = build_scheme(corpus_graph("toy"), 3).point_polynomial(key)
    calls = count_calls(monkeypatch, ["echelon"])
    for given in (rows, key, [list(row) for row in rows], list(key)):
        assert model.point_polynomial(given) == poly
    assert calls["echelon"] == 0
    zero = (0, 0, 0, 0)
    dependent = (rows[0], gfq.vec_add(F, rows[0], rows[1]), rows[1])
    for given in (dependent, [list(row) for row in dependent], rows + (zero,)):
        assert model.point_polynomial(given) == poly
    assert model.point_polynomial((zero,)) == model.point_polynomial(()) == ()
    assert calls["echelon"] == 3


def test_profile_of_full_space():
    graph = corpus_graph("toy")
    model = build_scheme(graph, 2)
    basis = tuple(tuple(1 if j == i else 0 for j in range(4)) for i in range(4))
    assert model.count_in_subspace(basis, 1) == 7
    # the whole space holds every point: its point polynomial is the census
    assert model.point_polynomial(basis) == tuple(interpolate_count_polynomial(graph))


def test_point_polynomial_rejects_a_count_not_divisible_by_x_minus_1():
    model = build_scheme(corpus_graph("toy"), 2)
    # with the empty support counted as good the zero vector counts too: the
    # vector count of a line is one more than (x - 1) times its point count
    model._good_supports = model._good_supports | {0}
    with pytest.raises(AssertionError):
        model.point_polynomial(((1, 0, 0, 0), (0, 1, 0, 0)))


def test_point_polynomials_of_lines_and_planes():
    model = build_scheme(corpus_graph("toy"), 3)
    x, y, lx, ly = (tuple(int(i == j) for j in range(4)) for i in range(4))
    assert model.point_polynomial((x, y)) == (1, 1)  # a projective line
    assert model.point_polynomial((x, lx)) == (0, 1)  # lx#1 is missing
    assert model.point_polynomial((lx, ly)) == ()  # no point at all
    assert model.point_polynomial((x, y, lx)) == (1, 0, 1)  # all but the line y, lx#1 less y
    assert model.count_in_subspace((x, y, lx), 2) == 1 + 9**2


def test_classify_lines_toy():
    model = build_scheme(corpus_graph("toy"), 2)
    lines = classify_lines(model)
    kinds = sorted(line.kind for line in lines)
    assert kinds.count("projective") == 3
    assert kinds.count("affine") == 8
    for line in lines:
        if line.kind == "affine":
            assert line.missing is not None
            assert line.missing not in model.point_index


def test_enumerate_subspaces_gamma1():
    model = build_scheme(corpus_graph("gamma1"), 2)
    projective, affine = enumerate_subspaces(model)
    assert len(projective.get(1, [])) == 12
    dims = sorted(p.dim for p in affine)
    assert dims == [1] * 8 + [2] * 4


def reference_secant_lines(scheme):
    """The lines through two rational points by the earlier pair scan: one
    elimination per pair of points, as sorted distinct echelon bases."""
    return sorted({gfq.echelon(scheme.F, pair) for pair in combinations(scheme.points, 2)})


def reference_classify_line(scheme, basis):
    """The earlier classification of the line with the given echelon basis,
    or None: its point polynomial, and its rational points listed."""
    poly = scheme.point_polynomial(basis)
    if poly not in ((1, 1), (0, 1)):
        return None
    rat = gfq.span_points(scheme.F, basis)
    inside = tuple(p for p in rat if p in scheme.point_index)
    if poly == (1, 1):
        return GeometryLine("projective", inside, basis, None)
    gap = next(p for p in rat if p not in scheme.point_index)
    return GeometryLine("affine", inside, basis, gap)


def reference_classify_lines(scheme):
    """Every line of the pair scan, classified."""
    lines = [reference_classify_line(scheme, basis) for basis in reference_secant_lines(scheme)]
    return sorted((l for l in lines if l is not None), key=lambda l: (l.kind, l.points))


def assert_lines_match_reference(graph, q):
    """The scan's lines, their classification and the rules check's count
    of secant lines agree with the pair scan's, on separate schemes so
    that neither reads the other's cache."""
    scheme = build_scheme(graph, q)
    assert_secant_lines_are_pair_spans(scheme)
    assert classify_lines(scheme) == reference_classify_lines(build_scheme(graph, q))
    rules = check_rules(graph, q)
    assert rules.verdict == "pass", rules.witnesses
    assert rules.quantities["secant_lines"] == len(reference_secant_lines(scheme))


@pytest.mark.parametrize("name,q", list(product(sorted(p.stem for p in CORPUS.glob("*.lg")), [2, 3, 4])))
def test_lines_match_reference(name, q):
    assert_lines_match_reference(corpus_graph(name), q)


def corpus_cells_up_to(qs, max_points):
    """The (name, q) corpus cells with at most max_points rational points,
    sized by the counting polynomial, so that no large scheme is built."""
    cells = []
    for path in sorted(CORPUS.glob("*.lg")):
        poly = interpolate_count_polynomial(corpus_graph(path.stem))
        cells += [(path.stem, q) for q in qs if sum(c * q**j for j, c in enumerate(poly)) <= max_points]
    return cells


@pytest.mark.parametrize("name,q", corpus_cells_up_to([5, 7, 8, 9], 150))
def test_lines_match_reference_at_larger_q(name, q):
    """Larger fields: at q = 8 and 9 the field is not prime, and lines
    have more points where a coordinate vanishes."""
    assert_lines_match_reference(corpus_graph(name), q)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_lines_match_reference_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 6)
    assume(len(build_scheme(g, q).points) <= 100)
    assert_lines_match_reference(g, q)


def count_calls(monkeypatch, names, owner=gfq):
    """Wrap the named functions of owner (`gfq` unless given); the returned
    dict counts their calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))
    return calls


def count_eliminated_rows(monkeypatch):
    """Wrap `gfq.echelon`; the returned list gets the number of rows each
    call eliminates, a reduced basis that it extends not counted."""
    eliminated = []
    real = gfq.echelon

    def wrapper(F, rows, *args, **kwargs):
        rows = tuple(rows)
        eliminated.append(len(rows))
        return real(F, rows, *args, **kwargs)

    monkeypatch.setattr(gfq, "echelon", wrapper)
    return eliminated


def test_line_classification_effort_on_fundament(monkeypatch):
    """Only projective and complete-affine lines get an echelon basis, and
    the basis is the line's first point extended by one row, its residue:
    on fundament@3 the pair scan took 2,455 `echelon` and 915
    `subset_ranks` calls for 233 such lines, and eliminating each basis
    again for its point polynomial 466 calls."""
    scheme = build_scheme(corpus_graph("fundament"), 3)
    calls = count_calls(monkeypatch, ["echelon", "subset_ranks"])
    eliminated = count_eliminated_rows(monkeypatch)
    assert len(classify_lines(scheme)) == 233
    assert calls["echelon"] <= 240 and calls["subset_ranks"] <= 240, calls
    assert sum(eliminated) <= 240, sum(eliminated)


@pytest.mark.parametrize("name,q", [("fundament", 3), ("toy", 4)])
def test_line_classification_takes_no_point_polynomial(monkeypatch, name, q):
    """A line's kind comes from its support and its point count: no point
    polynomial, and one `echelon` call per returned line for its basis."""
    scheme = build_scheme(corpus_graph(name), q)
    polys = count_calls(monkeypatch, ["point_polynomial"], SchemeModel)
    calls = count_calls(monkeypatch, ["echelon"])
    lines = classify_lines(scheme)
    assert polys["point_polynomial"] == 0
    assert calls["echelon"] == len(lines) > 0


def reference_enumerate_subspaces(scheme):
    """The level growth that `enumerate_subspaces` replaced: every secant
    line first, then one elimination per (kept span, point) pair, each
    distinct span pruned by its rational count from its point polynomial."""
    dmax = min(
        max((scheme.graph.degree(v) for v in scheme.graph.vertices), default=1),
        MAX_SUBSPACE_DIM,
    )
    q = scheme.q
    projective = {d: [] for d in range(1, dmax + 1)}
    affine = []
    level = reference_secant_lines(scheme)
    for k in range(2, dmax + 2):
        survivors = set()
        for basis in sorted(level):
            poly = scheme.point_polynomial(basis)
            d = k - 1
            fully = poly == (1,) * k
            if fully:
                projective[d].append(basis)
            if scheme.count_in_subspace(basis, 1) < q**d:
                continue
            survivors.add(basis)
            if not fully:
                for hyp in _hyperplanes_of(scheme.F, basis):
                    if poly == add_monomial(scheme.point_polynomial(hyp), d):
                        affine.append(AffinePatch(basis, hyp, d))
        if k == dmax + 1:
            break
        level = set()
        for basis in survivors:
            for p in scheme.points:
                grown = gfq.echelon(scheme.F, basis + (p,))
                if len(grown) > k:
                    level.add(grown)
    for d in projective:
        projective[d].sort()
    affine.sort(key=lambda a: (a.dim, a.basis))
    return projective, affine


def assert_subspaces_match_reference(graph, q):
    # separate schemes, so that neither search reads the other's cache
    assert enumerate_subspaces(build_scheme(graph, q)) == reference_enumerate_subspaces(build_scheme(graph, q))


SUBSPACE_CELLS = [
    (name, q)
    for name in sorted(p.stem for p in CORPUS.glob("*.lg"))
    for q in (2, 3, 4)
    if (name, q) != ("fundament", 4)  # 5 s for the reference alone
]


@pytest.mark.parametrize("name,q", SUBSPACE_CELLS)
def test_subspaces_match_reference(name, q):
    assert_subspaces_match_reference(corpus_graph(name), q)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3, 4]))
def test_subspaces_match_reference_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 6)
    assume(len(build_scheme(g, q).points) <= 100)
    assert_subspaces_match_reference(g, q)


def test_grouped_count_mismatch_is_raised(monkeypatch):
    """A span's count from the grouping is checked against its point
    polynomial: one point too many in a group raises.  The last vector is
    given the first one's residue, as each residue is matched to its
    vector by position."""
    residues = gfq.residues

    def one_too_many(F, basis, vectors):
        out = residues(F, basis, vectors)
        return out[:-1] + out[:1]

    monkeypatch.setattr(gfq, "residues", one_too_many)
    with pytest.raises(AssertionError, match=r"^span \(\(.*\)\): grouped count \d+, point polynomial count \d+$"):
        enumerate_subspaces(build_scheme(corpus_graph("toy"), 2))


def assert_subspace_search_effort(monkeypatch, name, q, sizes, bounds):
    """enumerate_subspaces on name@q finds sizes (lines, affine patches)
    within bounds on `echelon` calls, `subset_ranks` calls and rows
    eliminated."""
    scheme = build_scheme(corpus_graph(name), q)
    calls = count_calls(monkeypatch, ["echelon", "subset_ranks"])
    eliminated = count_eliminated_rows(monkeypatch)
    projective, affine = enumerate_subspaces(scheme)
    assert (len(projective[1]), len(affine)) == sizes
    found = (calls["echelon"], calls["subset_ranks"], sum(eliminated))
    assert all(n <= bound for n, bound in zip(found, bounds)), found


def test_subspace_search_effort_on_spider(monkeypatch):
    """The grouped growth counts only spans that pass the count prune, and
    builds each one's echelon basis once, as the kept span's extended by one
    row; hyperplanes and point polynomials eliminate nothing.  On spider@3
    the level growth took 12,553 `echelon` and 2,706 `subset_ranks` calls,
    and with every basis eliminated again 1,414 `echelon` calls."""
    assert_subspace_search_effort(monkeypatch, "spider", 3, (37, 144), (250, 300, 250))


def test_subspace_search_effort_on_fundament_at_4(monkeypatch):
    """As on spider@3: with every basis eliminated again, fundament@4 took
    8,465 `echelon` calls."""
    assert_subspace_search_effort(monkeypatch, "fundament", 4, (95, 746), (1000, 1100, 1000))


def test_convexity_requires_tree():
    with pytest.raises(ValueError):
        convexity_check(build_scheme(corpus_graph("gamma1"), 2))


def test_subgraph_span_dims_toy():
    model = build_scheme(corpus_graph("toy"), 2)
    assert subgraph_span_dim(model, ["x"]) == 0
    assert subgraph_span_dim(model, ["x", "y"]) == 1
    assert subgraph_span_dim(model, ["x", "y", "lx#1", "ly#1"]) == 3


def test_decompose_disjoint_cover():
    for name, sizes in (("gamma1", (12, 2, 1)), ("gamma2", (14, 1, 0))):
        rep = decompose(build_scheme(corpus_graph(name), 2))
        assert rep["sizes"] == sizes
        assert rep["disjoint"]
        assert sum(rep["sizes"]) == rep["ambient_size"] == 15


def test_empty_graph_is_rejected():
    from loosegeo.graphs import LooseGraph

    with pytest.raises(ValueError):
        build_scheme(LooseGraph(), 2)


def line_points(F, a, b):
    """The rational points of the line through independent a and b: a, and
    t a + b for every t, normalized."""
    pts = {gfq.normalize_point(F, a)}
    for t in F.elements():
        pts.add(gfq.normalize_point(F, gfq.vec_add(F, gfq.vec_scale(F, t, a), b)))
    return sorted(pts)


def unit(scheme, v):
    return tuple(int(i == scheme.index[v]) for i in range(scheme.m))


def scanned_off_star_points(scheme, piece):
    """The points of a vertex patch with at least three nonzero
    coordinates, by a scan of every point."""
    return [
        p for p in scheme.points
        if scheme.support_mask(p) & ~piece.support_mask == 0
        and p[piece.required_bit] != 0
        and sum(c != 0 for c in p) >= 3
    ]


def scanned_subgraph_span_dim(scheme, names):
    """The span of the unit points in X and of X's points on the edge
    lines, listed from unit vectors."""
    vecs = [unit(scheme, v) for v in names if unit(scheme, v) in scheme.point_index]
    for a, b in scheme.completion.edge_ends.values():
        if a in names and b in names:
            line = line_points(scheme.F, unit(scheme, a), unit(scheme, b))
            vecs += [p for p in line if p in scheme.point_index]
    return gfq.mat_rank(scheme.F, vecs) - 1 if vecs else -1


def scanned_embedded_inner_graph(scheme):
    """The inner vertices' unit points and the inner edges' lines, listed
    from unit vectors."""
    inner = set(scheme.graph.inner_vertices())
    ids = scheme.point_index
    return {
        "vertex_points": {v: ids[unit(scheme, v)] for v in inner},
        "edge_lines": {
            e: frozenset(ids[p] for p in line_points(scheme.F, unit(scheme, a), unit(scheme, b)))
            for e, (a, b) in scheme.graph.edges.items()
            if a in inner and b in inner
        },
    }


def assert_strata_match_scans(scheme):
    for piece in scheme.pieces:
        if piece.kind == "vertex":
            assert _off_star_points(scheme, piece) == scanned_off_star_points(scheme, piece)
    names = scheme.completion.names
    for k in range(len(names) + 1):
        for sub in combinations(names, k):
            assert subgraph_span_dim(scheme, sub) == scanned_subgraph_span_dim(scheme, sub), sub
    assert embedded_inner_graph(scheme) == scanned_embedded_inner_graph(scheme)


def assert_secant_lines_are_pair_spans(scheme):
    """Each line of the pair scan comes once from the grouped scan, with its
    first point in X, the normalized residue of its other points against
    that point, and all of its points in X."""
    F, pts = scheme.F, scheme.points
    reference = reference_secant_lines(scheme)
    lines = secant_lines(scheme)
    assert len(lines) == len(reference)
    on_lines = set()
    for p, residue, ids in lines:
        assert list(ids) == sorted(set(ids)) and len(ids) >= 2 and pts[ids[0]] == p
        assert residue == gfq.normalize_point(F, residue) and residue[p.index(1)] == 0
        basis = gfq.echelon(F, (p, residue))
        assert all(gfq.echelon(F, (p, pts[j])) == basis for j in ids[1:])
        on_lines.add(frozenset(pts[i] for i in ids))
    # distinct lines share at most one point, so X's points tell them apart
    assert on_lines == {
        frozenset(p for p in line_points(F, *basis) if p in scheme.point_index)
        for basis in reference
    }


@pytest.mark.parametrize("name,q", list(product(sorted(p.stem for p in CORPUS.glob("*.lg")), [2, 3])))
def test_strata_and_secant_lines_match_scans(name, q):
    scheme = build_scheme(corpus_graph(name), q)
    assert_strata_match_scans(scheme)
    assert_secant_lines_are_pair_spans(scheme)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(loose_graphs(), st.sampled_from([2, 3]))
def test_strata_and_secant_lines_match_scans_on_random_graphs(g, q):
    assume(1 <= len(g.completion()) <= 6)
    scheme = build_scheme(g, q)
    assert_strata_match_scans(scheme)
    assert_secant_lines_are_pair_spans(scheme)
