"""Exact arithmetic over GF(q) for small prime powers q <= 128.

Field elements are plain ints in range(q), encoding polynomial coefficient
vectors over F_p in base p (so for prime q the encoding is the identity).
All operations are table driven; there is no floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


_MAX_Q = 128


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise ValueError(f"q={q} is not a prime power")
            return p, e
    raise ValueError(f"q={q} is not a prime power")


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Multiply two coefficient lists modulo a monic polynomial, over F_p."""
    e = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c == 0:
            continue
        out[i] = 0
        for j in range(e + 1):
            out[i - e + j] = (out[i - e + j] - c * mod[j]) % p
    return [out[i] if i < len(out) else 0 for i in range(e)]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """A monic polynomial of degree e is irreducible iff no monic polynomial
    of degree 1..e//2 divides it.  Each remainder is `_poly_mul_mod` of poly
    and 1 modulo the divisor, so the degree-1 divisors are the root test."""
    return all(
        any(_poly_mul_mod(poly, [1], list(tail) + [1], p))
        for d in range(1, (len(poly) - 1) // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


def _find_irreducible(p: int, e: int) -> list[int]:
    """Smallest monic irreducible polynomial of degree e over F_p with a
    nonzero constant term, by base-p order of its lower coefficients (x for
    e = 1)."""
    if e == 1:
        return [0, 1]
    polys = ([(code // p**i) % p for i in range(e)] + [1] for code in range(p**e))
    return next(poly for poly in polys if poly[0] and _is_irreducible(poly, p))


class FField:
    """The finite field GF(q) with dense add/mul tables."""

    def __init__(self, q: int):
        if q > _MAX_Q:
            raise ValueError(f"q={q} exceeds supported bound {_MAX_Q}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _find_irreducible(p, e)

        def decode(a: int) -> list[int]:
            return [(a // p**i) % p for i in range(e)]

        def encode(coeffs: list[int]) -> int:
            return sum(c * p**i for i, c in enumerate(coeffs))

        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = decode(a)
            for b in range(q):
                db = decode(b)
                self._add[a][b] = encode([(x + y) % p for x, y in zip(da, db)])
                self._mul[a][b] = encode(_poly_mul_mod(da, db, self.modulus, p))
        self._neg = [0] * q
        self._inv = [0] * q
        for a in range(q):
            for b in range(q):
                if self._add[a][b] == 0:
                    self._neg[a] = b
                if a != 0 and self._mul[a][b] == 1:
                    self._inv[a] = b

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def frobenius(self, a: int, t: int = 1) -> int:
        """a ** (p**t), the t-th Frobenius power."""
        return self.pow(a, self.p ** (t % self.e))

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"FField({self.q})"


@lru_cache(maxsize=None)
def get_field(q: int) -> FField:
    return FField(q)


# ---------------------------------------------------------------------------
# vectors and matrices (tuples of ints; matrices are tuples of row tuples)
# ---------------------------------------------------------------------------


def vec_add(F: FField, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_scale(F: FField, c: int, u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(F.mul(c, a) for a in u)


def mat_vec(F: FField, M, v: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for row in M:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(F: FField, A, B):
    """A·B: row i is `combine(F, A[i], B)`, so every row is () when B has no
    rows."""
    return tuple(combine(F, row, B) for row in A)


def _reduce(F: FField, pivots, v):
    """v less the multiples of the rows that clear it at their pivots, for
    (pivot, row) pairs with each row 1 at its pivot and 0 at the pivots
    before it: the one row operation of this module."""
    add, mul, neg = F._add, F._mul, F._neg
    for pivot, row in pivots:
        if v[pivot]:
            minus = mul[neg[v[pivot]]]
            v = [add[x][minus[y]] for x, y in zip(v, row)]
    return v


def _leading_one(F: FField, v):
    """(pivot, v scaled to 1 at its first nonzero entry pivot), as a tuple,
    or None for the zero vector."""
    for pivot, c in enumerate(v):
        if c:
            if c == 1:
                return pivot, tuple(v)
            return pivot, tuple(map(F._mul[F._inv[c]].__getitem__, v))
    return None


def echelon(F: FField, rows, basis=()) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis of the span of basis and rows (canonical,
    zero rows dropped).  basis must already be such a basis; it is extended
    by each row in turn, reduced to a new pivot row that is then cleared
    from the rows before it, and is not eliminated again."""
    pivots = [(row.index(1), row) for row in basis]
    for v in rows:
        lead = _leading_one(F, _reduce(F, pivots, v))
        if lead is not None:
            for j, (pivot, row) in enumerate(pivots):
                if row[lead[0]]:
                    pivots[j] = pivot, tuple(_reduce(F, (lead,), row))
            pivots.append(lead)
    return tuple(row for _, row in sorted(pivots))


def residues(F: FField, basis, vectors) -> list[tuple[int, ...]]:
    """The vectors outside the span of a reduced echelon basis, in order, each
    reduced against it in one pass over its pivots (so 0 at every pivot
    column) and normalized to a first nonzero entry 1.  Two such vectors have
    the same residue exactly when they span the same subspace with basis."""
    pivots = [(row.index(1), row) for row in basis]
    out = []
    for v in vectors:
        lead = _leading_one(F, _reduce(F, pivots, v))
        if lead is not None:
            out.append(lead[1])
    return out


def mat_rank(F: FField, rows) -> int:
    return len(echelon(F, rows))


def subset_ranks(F: FField, vectors) -> list[int]:
    """The rank of every subset of vectors, indexed by bitmask.  A subset's
    semi-echelon basis (pivots with entry 1, each vector 0 at the pivots
    before it) is that of the subset without its lowest vector, plus that
    vector reduced against it unless it reduces to zero."""
    bases: list[tuple] = [()]
    for s in range(1, 1 << len(vectors)):
        rest = s & (s - 1)
        basis = bases[rest]
        if len(basis) < len(vectors[0]):  # a full basis reduces any vector to zero
            lead = _leading_one(F, _reduce(F, basis, vectors[(s ^ rest).bit_length() - 1]))
            basis += () if lead is None else (lead,)
        bases.append(basis)
    return [len(basis) for basis in bases]


def null_space(F: FField, rows, n_cols: int) -> list[tuple[int, ...]]:
    """A basis of {x : M x = 0} for the matrix with the given rows and
    n_cols columns, read off its reduced echelon form: one vector per free
    column f, with x_f = 1 and each pivot unknown set to minus its row's
    entry in column f."""
    reduced = echelon(F, rows)
    pivots = [row.index(1) for row in reduced]
    basis = []
    for f in sorted(set(range(n_cols)) - set(pivots)):
        x = [0] * n_cols
        x[f] = 1
        for row, c in zip(reduced, pivots):
            x[c] = F.neg(row[f])
        basis.append(tuple(x))
    return basis


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


def normalize_point(F: FField, v: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of a projective point: first nonzero entry 1."""
    lead = _leading_one(F, v)
    if lead is None:
        raise ValueError("zero vector has no projective normalization")
    return lead[1]


def projective_points(F: FField, m: int):
    """All points of PG(m-1, q) in lexicographic order of the canonical form."""
    q = F.q
    pts = []
    for lead in range(m):
        prefix = (0,) * lead + (1,)
        for tail in product(range(q), repeat=m - lead - 1):
            pts.append(prefix + tail)
    return pts


def pg_size(q: int, m: int) -> int:
    """Number of points of PG(m-1, q)."""
    return (q**m - 1) // (q - 1)


def span_points(F: FField, vectors) -> list[tuple[int, ...]]:
    """The rational points of the projective span of independent vectors,
    sorted: one combination per point of PG(k-1, q) as coefficients, so each
    point comes once.  No echelon form is taken, so tests can use this as a
    reference for the counts that rest on `echelon`."""
    coords = projective_points(F, len(vectors))
    return sorted(normalize_point(F, combine(F, c, vectors)) for c in coords)


def combine(F: FField, coeffs, vectors) -> tuple[int, ...]:
    """The linear combination of vectors with the given coefficients, () for
    no vectors."""
    add, mul = F._add, F._mul
    vec = [0] * (len(vectors[0]) if vectors else 0)
    for c, b in zip(coeffs, vectors):
        if c:
            row = mul[c]
            vec = [add[x][row[y]] for x, y in zip(vec, b)]
    return tuple(vec)
