"""Independent checks for the benchmark's outputs.

Nothing here calls loosegeo.  Field arithmetic, the support rule, the point
sets, the lines and the group orders are recomputed from the graph text by
brute force, so a wrong result of the program cannot also make its check
pass.  Two conventions are shared with the program because they fix how its
outputs are written down, not what they are: a field element of GF(p^e) is
its coefficient vector over F_p read as a base-p number, modulo the smallest
monic irreducible polynomial in base-p order; a projective point is written
with its first nonzero coordinate equal to 1, and coordinates follow the
graph's vertices in file order, then one fresh end per free edge end in edge
order.

Every check returns a list of failure messages; an empty list means the
result passed.
"""

from __future__ import annotations

from itertools import permutations, product


# -- finite fields ----------------------------------------------------------


class Field:
    """GF(q) for q = p^e with e <= 3, by polynomial arithmetic over F_p."""

    def __init__(self, q: int):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e, n = 0, q
        while n % p == 0:
            n //= p
            e += 1
        if n != 1 or e > 3:
            raise ValueError(f"unsupported field size {q}")
        self.q, self.p, self.e = q, p, e
        mod = None
        for code in range(p**e):
            tail = [(code // p**i) % p for i in range(e)]
            # degree <= 3: irreducible iff no root in F_p
            if e == 1 or all(
                (sum(c * x**i for i, c in enumerate(tail)) + x**e) % p for x in range(p)
            ):
                mod = tail
                break
        self.mul_table = [[self._poly_mul(a, b, mod) for b in range(q)] for a in range(q)]
        self.add_table = [
            [self._encode([(x + y) % p for x, y in zip(self._decode(a), self._decode(b))])
             for b in range(q)]
            for a in range(q)
        ]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul_table[a][b] == 1)

    def _decode(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def _encode(self, coeffs) -> int:
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def _poly_mul(self, a: int, b: int, mod) -> int:
        p, e = self.p, self.e
        da, db = self._decode(a), self._decode(b)
        prod_ = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod_[i + j] = (prod_[i + j] + x * y) % p
        # x^e = -(mod[0] + mod[1] x + ... )
        for k in range(len(prod_) - 1, e - 1, -1):
            c = prod_[k]
            prod_[k] = 0
            for i in range(e):
                prod_[k - e + i] = (prod_[k - e + i] - c * mod[i]) % p
        return self._encode(prod_[:e])

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self.add_table[acc][self.mul_table[a][b]]
        return acc


def normalize(F: Field, v) -> tuple[int, ...]:
    for c in v:
        if c:
            inv = F.inv[c]
            return tuple(F.mul_table[inv][x] for x in v)
    raise ValueError("zero vector")


def mat_vec(F: Field, M, v) -> tuple[int, ...]:
    return tuple(F.dot(row, v) for row in M)


def mat_mul_canonical(F: Field, A, B):
    cols = list(zip(*B))
    prod_ = tuple(tuple(F.dot(row, col) for col in cols) for row in A)
    return normalize_matrix(F, prod_)


def normalize_matrix(F: Field, M):
    """Projective normal form: first nonzero entry, row by row, equals 1."""
    for row in M:
        for c in row:
            if c:
                inv = F.inv[c]
                return tuple(tuple(F.mul_table[inv][x] for x in r) for r in M)
    raise ValueError("zero matrix")


def projective_points(F: Field, m: int) -> list[tuple[int, ...]]:
    """Every point of PG(m-1, q), first nonzero coordinate 1."""
    return [v for v in product(range(F.q), repeat=m) if any(v) and normalize(F, v) == v]


def span_points(F: Field, basis) -> set[tuple[int, ...]]:
    """Rational points of the projective span of the given vectors."""
    out = set()
    m = len(basis[0])
    for coeffs in product(range(F.q), repeat=len(basis)):
        vec = [0] * m
        for c, b in zip(coeffs, basis):
            if c:
                vec = [F.add_table[x][F.mul_table[c][y]] for x, y in zip(vec, b)]
        if any(vec):
            out.add(normalize(F, vec))
    return out


def support(v) -> int:
    mask = 0
    for i, c in enumerate(v):
        if c:
            mask |= 1 << i
    return mask


# -- graphs and the support rule ---------------------------------------------


class GraphSpec:
    """A loose graph read from its text, with its completion coordinates and
    the supports its point set allows."""

    def __init__(self, text: str):
        self.vertices: list[str] = []
        self.edges: list[tuple[str, str | None, str | None]] = []
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "vertex" and len(parts) == 2:
                self.vertices.append(parts[1])
            elif parts[0] == "edge" and len(parts) == 4:
                ends = [None if x == "-" else x for x in parts[2:]]
                self.edges.append((parts[1], ends[0], ends[1]))
            else:
                raise ValueError(f"bad graph line {raw!r}")
        self.coords = list(self.vertices)
        self.fresh: set[str] = set()
        self.ends: list[tuple[str, str]] = []
        for name, a, b in self.edges:
            full = []
            for slot, end in enumerate((a, b)):
                if end is None:
                    end = f"{name}#{slot}"
                    self.coords.append(end)
                    self.fresh.add(end)
                full.append(end)
            self.ends.append((full[0], full[1]))
        self.m = len(self.coords)
        idx = {c: i for i, c in enumerate(self.coords)}
        good = set()
        for v in self.vertices:
            star = [idx[b] for a, b in self.ends if a == v] + [idx[a] for a, b in self.ends if b == v]
            for sub in product((0, 1), repeat=len(star)):
                mask = 1 << idx[v]
                for bit, i in zip(sub, star):
                    if bit:
                        mask |= 1 << i
                good.add(mask)
        for (name, a, b), (u, w) in zip(self.edges, self.ends):
            if a is None and b is None:
                good.add((1 << idx[u]) | (1 << idx[w]))
        self.good = frozenset(good)

    def is_toy(self) -> bool:
        """Two vertices joined by an edge, with one loose edge at each."""
        loose = sorted(a or b for _, a, b in self.edges if (a is None) != (b is None))
        joined = [e for e in self.edges if e[1] is not None and e[2] is not None]
        return len(self.vertices) == 2 and len(self.edges) == 3 and len(joined) == 1 \
            and loose == sorted(self.vertices)

    def is_triangle(self) -> bool:
        return len(self.vertices) == 3 and len(self.edges) == 3 and not self.fresh

    def points(self, F: Field) -> list[tuple[int, ...]]:
        """The rational points, by the support rule over all of PG(m-1, q)."""
        return sorted(p for p in projective_points(F, self.m) if support(p) in self.good)

    def census(self, q: int, r: int) -> int:
        """|X(F_{q^r})|: each allowed support T holds (q^r - 1)^(|T|-1) points."""
        x = q**r
        return sum((x - 1) ** (bin(t).count("1") - 1) for t in self.good)

    def aut_count(self) -> int:
        """|Aut Gamma| as its action on the completion coordinates: permutations
        keeping vertices and fresh ends apart and mapping edges onto edges."""
        edges = {frozenset(e) for e in self.ends}
        count = 0
        for perm in permutations(self.coords):
            sigma = dict(zip(self.coords, perm))
            if any((c in self.fresh) != (sigma[c] in self.fresh) for c in self.coords):
                continue
            if all(frozenset(sigma[x] for x in e) in edges for e in edges):
                count += 1
        return count


def pgammal_order(m: int, q: int) -> int:
    """|PGammaL(m, q)| = q^(m(m-1)/2) * prod_{i=2..m} (q^i - 1) * e."""
    e = Field(q).e
    n = q ** (m * (m - 1) // 2) * e
    for i in range(2, m + 1):
        n *= q**i - 1
    return n


def toy_order(q: int) -> int:
    """Order of the semilinear stabilizer of the toy graph: q^2 (q-1)^3 2 e."""
    return q**2 * (q - 1) ** 3 * 2 * Field(q).e


def line_classes(spec: GraphSpec, F: Field, points) -> dict:
    """Projective and complete-affine lines of the point set, by brute force.

    Over an extension a point of the line through rational a, b has a smaller
    support than supp(a) | supp(b) only if it is rational, so a line lies in X
    over every extension iff its rational points do and the joint support is
    allowed; it misses exactly one point at every degree iff one rational
    point is missing and the joint support is allowed.
    """
    pset = set(points)
    out = {}
    seen = set()
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            rat = frozenset(span_points(F, (a, b)))
            if rat in seen:
                continue
            seen.add(rat)
            if (support(a) | support(b)) not in spec.good:
                continue
            inside = frozenset(rat & pset)
            if len(inside) == len(rat):
                out[inside] = "projective"
            elif len(inside) == len(rat) - 1:
                out[inside] = "affine"
    return out


# -- groups -------------------------------------------------------------------


def closes_to_group(elements, identity, mul) -> bool:
    """Whether a finite set is closed under the product (hence a group).

    Generators are picked greedily from the set and the closure is grown by
    right multiplication; every product must stay inside the set, and the
    closure must reach all of it.  Cost is |set| times the generator count.
    """
    target = set(elements)
    if identity not in target or len(target) != len(elements):
        return False
    found = {identity}
    gens: list = []
    for s in sorted(target):
        if s in found:
            continue
        gens.append(s)
        # found is closed under the earlier generators: old elements still
        # need the new one, new elements need all of them
        stack = [(x, True) for x in found]
        while stack:
            x, only_new = stack.pop()
            for g in (gens[-1:] if only_new else gens):
                y = mul(x, g)
                if y not in target:
                    return False
                if y not in found:
                    found.add(y)
                    stack.append((y, False))
    return found == target


def _compose(p, q):
    return tuple(p[i] for i in q)


# -- checks -------------------------------------------------------------------


def check_stabilizer(spec: GraphSpec, q: int, label: str, linear, frob_count: int,
                     n_elements: int, order: int) -> list[str]:
    """The semilinear stabilizer found by frame search."""
    F = Field(q)
    m = spec.m
    fails = []
    if order != n_elements:
        fails.append(f"{label}: order() {order} != {n_elements} elements listed")
    if n_elements != len(linear) * frob_count or frob_count != F.e:
        fails.append(f"{label}: {n_elements} elements from {len(linear)} matrices and {frob_count} field powers")
    full = pgammal_order(m, q)
    if order <= 0 or full % order:
        fails.append(f"{label}: order {order} does not divide |PGammaL({m},{q})| = {full}")
    mono = (q - 1) ** (m - 1) * spec.aut_count() * F.e
    if order % mono:
        fails.append(f"{label}: order {order} is not a multiple of the monomial subgroup order {mono}")
    if spec.is_toy() and order != toy_order(q):
        fails.append(f"{label}: order {order} != q^2 (q-1)^3 2 e = {toy_order(q)}")
    ident = normalize_matrix(F, tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))
    if not closes_to_group(list(linear), ident, lambda A, B: mat_mul_canonical(F, A, B)):
        fails.append(f"{label}: the listed matrices are not closed under multiplication")
    pts = spec.points(F)
    pset = set(pts)
    for M in linear:
        if {normalize(F, mat_vec(F, M, p)) for p in pts} != pset:
            fails.append(f"{label}: matrix {M} does not map the point set onto itself")
            break
    return fails


def check_incidence(spec: GraphSpec, q: int, label: str, points, lines, perms,
                    order: int) -> list[str]:
    """The automorphism group of the point-line geometry.

    `points` is the program's indexing of the rational points and `lines` its
    (kind, points) list; both must agree with the brute-force ones before the
    permutations are checked against the brute-force lines.
    """
    F = Field(q)
    fails = []
    want_pts = spec.points(F)
    if list(points) != want_pts:
        return [f"{label}: {len(points)} points listed, {len(want_pts)} by the support rule"]
    classes = line_classes(spec, F, want_pts)
    got = {frozenset(pts): kind for kind, pts in lines}
    if got != classes:
        fails.append(f"{label}: {len(got)} lines listed, {len(classes)} by brute force")
    index = {p: i for i, p in enumerate(points)}
    by_index = {frozenset(index[p] for p in pts): kind for pts, kind in classes.items()}
    n = len(points)
    if order != len(perms):
        fails.append(f"{label}: order() {order} != {len(perms)} permutations listed")
    if spec.is_triangle() and len(perms) != pgammal_order(3, q):
        fails.append(f"{label}: {len(perms)} automorphisms, |PGammaL(3,{q})| = {pgammal_order(3, q)}")
    if spec.is_toy() and len(perms) != toy_order(q):
        fails.append(f"{label}: {len(perms)} automorphisms != q^2 (q-1)^3 2 e = {toy_order(q)}")
    for perm in perms:
        if sorted(perm) != list(range(n)):
            fails.append(f"{label}: {perm} is not a permutation of the points")
            break
        if any(by_index.get(frozenset(perm[i] for i in L)) != kind for L, kind in by_index.items()):
            fails.append(f"{label}: {perm} maps a line off the lines of its kind")
            break
    if not closes_to_group(list(perms), tuple(range(n)), _compose):
        fails.append(f"{label}: the listed permutations are not closed under composition")
    return fails


def check_geometry(spec: GraphSpec, q: int, label: str, out: dict) -> list[str]:
    """Lines, subspaces, counts, rules, convexity and the decomposition of one tree."""
    F = Field(q)
    fails = []
    pts = spec.points(F)
    pset = set(pts)
    if list(out["points"]) != pts:
        fails.append(f"{label}: {len(out['points'])} points listed, {len(pts)} by the support rule")
    for r, n in enumerate(out["point_counts"], start=1):
        if n != spec.census(q, r):
            fails.append(f"{label}: point_count({r}) = {n}, census gives {spec.census(q, r)}")
    if len(out["point_counts"]) != spec.m + 1:
        fails.append(f"{label}: {len(out['point_counts'])} extension counts for m = {spec.m}")
    for kind, lpts in out["lines"]:
        want = q + 1 if kind == "projective" else q
        if len(lpts) != want or not set(lpts) <= pset:
            fails.append(f"{label}: {kind} line with {len(lpts)} rational points in X")
            break
    got = {frozenset(lpts): kind for kind, lpts in out["lines"]}
    if got != line_classes(spec, F, pts):
        fails.append(f"{label}: classify_lines differs from the brute-force lines")
    for d, bases in out["projective"].items():
        for basis in bases:
            span = span_points(F, basis)
            if len(span) != (q ** (d + 1) - 1) // (q - 1) or not span <= pset:
                fails.append(f"{label}: projective {d}-subspace {basis} is not inside X")
                break
    for basis, hyp, d in out["affine"]:
        patch = span_points(F, basis) - span_points(F, hyp)
        if len(patch) != q**d or not patch <= pset:
            fails.append(f"{label}: affine {d}-patch {basis} is not inside X")
            break
    if out["rules"] != "pass":
        fails.append(f"{label}: check_rules verdict {out['rules']}")
    if not out["convex"]:
        fails.append(f"{label}: convexity_check failed")
    x, xc, y = (set(part) for part in out["decompose"])
    total = (q**spec.m - 1) // (q - 1)
    if len(x) + len(xc) + len(y) != total or (x & xc) or (x & y) or (xc & y):
        fails.append(f"{label}: decompose parts {len(x)}+{len(xc)}+{len(y)} do not partition {total} points")
    if sum(out["decompose_sizes"]) != total:
        fails.append(f"{label}: decompose sizes {out['decompose_sizes']} do not sum to {total}")
    if x != pset:
        fails.append(f"{label}: decompose's X differs from the support rule")
    return fails


def parse_manifest(text: str) -> list[tuple[str, list[str], dict]]:
    """(graph name or 'global', checks, options) per manifest line."""
    out = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "graph":
            name = parts[1].rsplit("/", 1)[-1].rsplit(".", 1)[0]
            checks, opts = parts[2], parts[3:]
        else:
            name, checks, opts = "global", parts[1], parts[2:]
        out.append((name, checks.split(","), dict(o.split("=", 1) for o in opts)))
    return out


def config_count(q: int) -> int:
    """Root (and fundament) configurations in PG(3, q):
    (q^3+q^2+q+1)(q^3+q^2+q)(q^2+q)q^2."""
    return (q**3 + q**2 + q + 1) * (q**3 + q**2 + q) * (q**2 + q) * q**2


def expected_reports(manifest_text: str, q: int) -> list[tuple[str, str]]:
    """(check, graph name) of every report `suite -q <q>` should print.
    Entries with their own q= run at those sizes; functoriality runs only
    at the suite's q."""
    expected = []
    for name, checks, opts in parse_manifest(manifest_text):
        qs = [int(x) for x in opts["q"].split(",")] if "q" in opts else [q]
        for q_entry in qs:
            for check in checks:
                if check == "functoriality" and q_entry != q:
                    continue
                expected.append((check, name))
    return expected


def check_suite(manifest_text: str, q: int, rc: int, stdout: str, reports) -> list[str]:
    """The suite command: `reports` are (theorem, graph, verdict, quantities)."""
    fails = []
    expected = expected_reports(manifest_text, q)
    if rc != 0:
        fails.append(f"suite exit code {rc}")
    if len(reports) != len(expected):
        fails.append(f"suite produced {len(reports)} reports, the manifest asks for {len(expected)}")
    if sorted(t for t, *_ in reports) != sorted(t for t, _ in expected):
        fails.append("suite reports do not match the manifest's checks")
    failed = [(t, g) for t, g, v, _ in reports if v == "fail"]
    if failed:
        fails.append(f"suite reports failed: {failed}")
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if summary != f"{len(expected)} checks, 0 failed":
        fails.append(f"suite summary line {summary!r}")
    by_key = {(t, g): quant for t, g, _, quant in reports}
    n = config_count(q)
    root = by_key.get(("transroot", f"PG(3,{q})"), {})
    if root.get("count") != n or not root.get("transitive"):
        fails.append(f"transroot count {root.get('count')}, want {n}, transitive")
    fund = by_key.get(("transfund", f"PG(3,{q})"), {})
    plain, ends = fund.get("plain", {}), fund.get("with_ends", {})
    if plain.get("count") != n or ends.get("count") != q * q * n:
        fails.append(f"transfund counts {plain.get('count')}, {ends.get('count')}, want {n}, {q * q * n}")
    for name, checks, opts in parse_manifest(manifest_text):
        if "igp" not in checks:
            continue
        want = opts.get("igp_expected", "true").lower() in ("true", "1", "yes")
        rep = [r for r in reports if r[0] == "igp" and r[1] == name]
        if len(rep) != 1 or rep[0][2] != "pass" or rep[0][3].get("holds") != want:
            fails.append(f"igp on {name}: want holds={want}, got {rep}")
    return fails
