from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from loosegeo import gfq, matrices
from loosegeo.graphs import LooseGraph, LooseMorphism
from conftest import corpus_graph

FIELDS = [2, 3, 4, 5, 8, 9]


@pytest.mark.parametrize("q", FIELDS)
def test_field_axioms(q):
    F = gfq.get_field(q)
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_frobenius_is_additive_and_multiplicative(q):
    F = gfq.get_field(q)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    # order e: p-power Frobenius iterated e times is the identity
    for a in F.elements():
        assert F.frobenius(a, F.e) == a


def test_get_field_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12):
        with pytest.raises(ValueError):
            gfq.get_field(q)


@given(st.integers(0, 2), st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=4))
def test_echelon_preserves_span(extra, rows):
    F = gfq.get_field(3)
    ech = gfq.echelon(F, rows)
    assert gfq.mat_rank(F, rows) == len(ech)
    for r in rows:
        assert gfq.mat_rank(F, list(ech) + [r]) == len(ech)


def brute_span(F, vectors, length):
    """Every combination of the vectors, as a set of tuples."""
    spanned = set()
    for coeffs in product(F.elements(), repeat=len(vectors)):
        vec = (0,) * length
        for c, v in zip(coeffs, vectors):
            vec = gfq.vec_add(F, vec, gfq.vec_scale(F, c, v))
        spanned.add(vec)
    return spanned


def assert_reduced_echelon(basis):
    """Nonzero rows with increasing pivots, each row 1 at its pivot and every
    other row 0 there."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for row, pivot in zip(basis, pivots):
        assert row[pivot] == 1
        assert all(other[pivot] == 0 for other in basis if other is not row)


ECHELON_FIELDS = [2, 3, 4, 5, 7, 8, 9]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ECHELON_FIELDS), st.integers(1, 4), st.data())
def test_echelon_is_the_reduced_basis_of_the_span(q, length, data):
    F = gfq.get_field(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * length)
    rows = data.draw(st.lists(vector, max_size=4))
    basis = gfq.echelon(F, rows)
    assert_reduced_echelon(basis)
    assert brute_span(F, basis, length) == brute_span(F, rows, length)
    assert len(F.elements()) ** len(basis) == len(brute_span(F, rows, length))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ECHELON_FIELDS), st.integers(1, 5), st.data())
def test_echelon_extends_a_reduced_basis(q, length, data):
    """Extending a reduced basis by rows gives the echelon basis of all of
    them, and a reduced basis is a fixed point of the elimination."""
    F = gfq.get_field(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * length)
    basis = gfq.echelon(F, data.draw(st.lists(vector, max_size=3)))
    rows = data.draw(st.lists(vector, max_size=3))
    assert gfq.echelon(F, (), basis) == gfq.echelon(F, basis) == basis
    assert gfq.echelon(F, rows, basis) == gfq.echelon(F, basis + tuple(rows))


@pytest.mark.parametrize("q,m", [(2, 4), (3, 3), (4, 3)])
def test_projective_points_count(q, m):
    F = gfq.get_field(q)
    pts = list(gfq.projective_points(F, m))
    assert len(pts) == gfq.pg_size(q, m)
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert gfq.normalize_point(F, p) == p


@st.composite
def small_systems(draw):
    """(F, M) over q in {2, 3} with at most three rows and columns."""
    q = draw(st.sampled_from([2, 3]))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    entry = st.integers(0, q - 1)
    M = tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))
    return gfq.get_field(q), M


@given(small_systems())
def test_null_space_matches_brute_force(system):
    F, M = system
    n = len(M[0])
    kernel = {x for x in product(range(F.q), repeat=n) if not any(gfq.mat_vec(F, M, x))}
    basis = gfq.null_space(F, M, n)
    assert len(kernel) == F.q ** len(basis)
    columns = tuple(zip(*basis)) or ((),) * n
    spanned = {gfq.mat_vec(F, columns, c) for c in product(range(F.q), repeat=len(basis))}
    assert spanned == kernel


def test_null_space_of_no_rows_is_everything():
    F = gfq.get_field(3)
    assert gfq.null_space(F, [], 2) == [(1, 0), (0, 1)]


@given(st.sampled_from([2, 3, 4]), st.integers(1, 3), st.data())
def test_subset_ranks_match_span_sizes(q, length, data):
    """The rank of each subset is log_q of the number of vectors it spans,
    listed over all coefficient tuples."""
    F = gfq.get_field(q)
    entry = st.integers(0, q - 1)
    vectors = data.draw(st.lists(st.tuples(*[entry] * length), max_size=4))
    ranks = gfq.subset_ranks(F, vectors)
    assert len(ranks) == 1 << len(vectors)
    for s, rank in enumerate(ranks):
        chosen = [v for j, v in enumerate(vectors) if s >> j & 1]
        spanned = set()
        for coeffs in product(range(q), repeat=len(chosen)):
            vec = (0,) * length
            for c, v in zip(coeffs, chosen):
                vec = gfq.vec_add(F, vec, gfq.vec_scale(F, c, v))
            spanned.add(vec)
        assert len(spanned) == q**rank



@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 4), st.data())
def test_residues_match_brute_force(q, length, data):
    """A vector outside the span is replaced by the one vector of its coset
    that is 0 at every pivot column, normalized; a vector inside is dropped."""
    F = gfq.get_field(q)
    entry = st.integers(0, q - 1)
    basis = gfq.echelon(F, data.draw(st.lists(st.tuples(*[entry] * length), max_size=3)))
    vectors = data.draw(st.lists(st.tuples(*[entry] * length), max_size=5))
    pivots = [row.index(1) for row in basis]
    expected = []
    for v in vectors:
        coset = set()
        for coeffs in product(range(q), repeat=len(basis)):
            w = v
            for c, row in zip(coeffs, basis):
                w = gfq.vec_add(F, w, gfq.vec_scale(F, c, row))
            coset.add(w)
        if (0,) * length not in coset:
            (reduced,) = [w for w in coset if not any(w[p] for p in pivots)]
            expected.append(gfq.normalize_point(F, reduced))
    assert gfq.residues(F, basis, vectors) == expected

def brute_span_points(F, vectors):
    """Every nonzero coefficient tuple's combination, normalized and
    deduplicated."""
    pts = set()
    for coeffs in product(F.elements(), repeat=len(vectors)):
        if any(coeffs):
            vec = [0] * len(vectors[0])
            for c, b in zip(coeffs, vectors):
                vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, b)]
            pts.add(gfq.normalize_point(F, tuple(vec)))
    return sorted(pts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_span_points_matches_brute_force(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, min(m, 3)))
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    vectors = data.draw(st.lists(vector, min_size=k, max_size=k))
    F = gfq.get_field(q)
    assume(gfq.mat_rank(F, vectors) == k)
    pts = gfq.span_points(F, vectors)
    assert pts == brute_span_points(F, vectors)
    assert len(pts) == gfq.pg_size(q, k)


def prime_power(q):
    """(p, e) with q = p**e, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, rest = 0, q
    while rest % p == 0:
        rest, e = rest // p, e + 1
    return (p, e) if rest == 1 else None


def reducible_monics(p, e):
    """Every monic polynomial of degree e over F_p that is a product of two
    monic polynomials of lower degree, as coefficient tuples (constant term
    first), multiplied out by schoolbook convolution."""
    out = set()
    for d in range(1, e // 2 + 1):
        for a, b in product(product(range(p), repeat=d), product(range(p), repeat=e - d)):
            f, g = a + (1,), b + (1,)
            prod = [0] * (e + 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    prod[i + j] = (prod[i + j] + x * y) % p
            out.add(tuple(prod))
    return out


PRIME_POWERS = [q for q in range(2, 129) if prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_modulus_is_the_first_irreducible_polynomial(q):
    """Over a prime field the modulus is x, so elements encode themselves;
    otherwise it is the first monic polynomial of degree e, in base-p order
    of its lower coefficients, with a nonzero constant term that is no
    product of two monic polynomials of lower degree."""
    p, e = prime_power(q)
    modulus = gfq.get_field(q).modulus
    if e == 1:
        assert modulus == [0, 1]
        return
    reducible = reducible_monics(p, e)
    polys = (tuple((code // p**i) % p for i in range(e)) + (1,) for code in range(p**e))
    assert tuple(modulus) == next(f for f in polys if f[0] and f not in reducible)


@pytest.mark.parametrize("q", [16, 27, 32, 49, 64, 81, 125, 128])
def test_larger_fields_have_no_zero_divisors_and_all_inverses(q):
    F = gfq.get_field(q)
    nonzero = range(1, q)
    assert all(F.mul(a, b) for a in nonzero for b in nonzero)
    assert all(F.mul(a, F.inv(a)) == 1 for a in nonzero)


def reference_mat_mul(F, A, B):
    """A·B entry by entry, each a dot product of a row of A and a column of
    B; with no rows, B has no columns either."""
    width = len(B[0]) if B else 0
    return tuple(
        tuple(reduce(F.add, (F.mul(a, b[c]) for a, b in zip(row, B)), 0) for c in range(width))
        for row in A
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_mat_mul_matches_dot_products(q, n, k, m, data):
    F = gfq.get_field(q)
    entry = st.integers(0, q - 1)
    A = data.draw(st.tuples(*[st.tuples(*[entry] * k)] * n))
    B = data.draw(st.tuples(*[st.tuples(*[entry] * m)] * k))
    assert gfq.mat_mul(F, A, B) == reference_mat_mul(F, A, B)


def test_mat_mul_of_empty_matrices():
    F = gfq.get_field(2)
    assert gfq.mat_mul(F, (), ((1, 0), (0, 1))) == ()
    # B with no rows (a map through an empty graph): every row of A·B is ()
    assert gfq.mat_mul(F, ((), ()), ()) == ((), ())


def test_compose_check_through_the_empty_graph():
    # f: empty -> empty, then g: empty -> k2, so P_g is 2 x 0 and P_f is 0 x 0
    empty = LooseGraph()
    f = LooseMorphism(empty, empty, {}, {})
    g = LooseMorphism(empty, corpus_graph("k2"), {}, {})
    assert matrices.compose_check(g, f)
