"""Permutation groups with exact integer orders.

Permutations are image tuples on range(degree).  The stabilizer chain is
built by deterministic incremental Schreier-Sims with sifting: only
generators and Schreier generators that do not sift to the identity join the
chain, so its levels hold a strong generating set, however many redundant
generators the group was given.  Orders here stay small (at most a few
hundred thousand), so no randomization is needed.
"""

from __future__ import annotations


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_identity(p) -> bool:
    return all(p[i] == i for i in range(len(p)))


def compose(p, q):
    """p after q: (p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


class _Level:
    """One level of the stabilizer chain.

    `gens` generate the pointwise stabilizer of the earlier base points;
    `transversal` maps each point of the orbit of `point` under them to a
    coset representative u with u(point) = that point, and `inverses` holds
    the inverses of those representatives for sifting.  Representatives of
    known points never change, so a Schreier generator checked once stays
    checked, which `checked` records.
    """

    __slots__ = ("point", "gens", "transversal", "inverses", "checked")

    def __init__(self, point: int, degree: int):
        ident = identity_perm(degree)
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] = {point: ident}
        self.inverses: dict[int, tuple[int, ...]] = {point: ident}
        self.checked: set[tuple[int, int]] = set()

    def add_generator(self, g) -> None:
        self.gens.append(g)
        trans, invs = self.transversal, self.inverses
        frontier = list(trans)
        while frontier:
            pt = frontier.pop()
            for s in self.gens:
                img = s[pt]
                if img not in trans:
                    u = compose(s, trans[pt])
                    trans[img] = u
                    invs[img] = inverse(u)
                    frontier.append(img)


def _strip(levels: list[_Level], g, start: int):
    """Sift g through levels[start:]; returns the residue and the level at
    which it left the chain (len(levels) if it passed every level)."""
    for j in range(start, len(levels)):
        level = levels[j]
        img = g[level.point]
        if img == level.point:
            continue  # its representative is the identity
        inv = level.inverses.get(img)
        if inv is None:
            return g, j
        g = compose(inv, g)
    return g, len(levels)


class PermGroup:
    def __init__(self, generators, degree: int, base_hint=()):
        self.degree = degree
        self.generators = [tuple(g) for g in generators if not is_identity(g)]
        self._base_hint = tuple(base_hint)
        self._levels: list[_Level] | None = None

    # -- stabilizer chain ---------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = self._build_chain()
        return self._levels

    def _build_chain(self) -> list[_Level]:
        """Deterministic incremental Schreier-Sims with sifting.

        The generators are added one at a time, and the chain is completed
        after each: a generator that sifts to the identity is already in the
        group and is dropped.  A residue that leaves the chain at level j
        fixes the base points before j, so it joins levels 0..j (a new level
        based at its first moved point when j is past the last one).  The
        chain is complete when, at every level, each Schreier generator
        u_{s(b)}^-1 s u_b sifts to the identity through the deeper levels;
        the levels are checked deepest first, and a Schreier generator that
        does not sift joins the levels in the same way, sending the check
        back to the deepest level it reached.
        """
        degree = self.degree
        levels = [_Level(b, degree) for b in self._base_hint]

        def install(h, j: int) -> None:
            if j == len(levels):
                levels.append(_Level(next(x for x in range(degree) if h[x] != x), degree))
            for level in levels[: j + 1]:
                level.add_generator(h)

        def unchecked_residue(i: int):
            level = levels[i]
            for b, u in list(level.transversal.items()):
                for k, s in enumerate(level.gens):
                    if (b, k) in level.checked:
                        continue
                    level.checked.add((b, k))
                    sb = s[b]
                    if b == level.point and sb == b:
                        continue  # s itself, a generator of level i + 1
                    inv = level.inverses[sb]
                    sg = tuple(inv[s[u[x]]] for x in range(degree))
                    if is_identity(sg):
                        continue
                    h, j = _strip(levels, sg, i + 1)
                    if not is_identity(h):
                        return h, j
            return None

        for g in self.generators:
            h, j = _strip(levels, g, 0)
            if is_identity(h):
                continue
            install(h, j)
            i = j
            while i >= 0:
                found = unchecked_residue(i)
                if found is None:
                    i -= 1
                else:
                    install(*found)
                    i = found[1]
        return levels

    def order(self) -> int:
        n = 1
        for level in self._chain():
            n *= len(level.transversal)
        return n

    def sift(self, p):
        """Strip p through the chain; returns the residue (identity iff member)."""
        return _strip(self._chain(), tuple(p), 0)[0]

    def contains(self, p) -> bool:
        if len(p) != self.degree:
            return False
        return is_identity(self.sift(p))

    def elements(self):
        """All elements; only call when the order is known to be small."""
        chain = self._chain()
        out = [identity_perm(self.degree)]
        for level in reversed(chain):
            out = [compose(u, g) for u in level.transversal.values() for g in out]
        return out

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(other.contains(g) for g in self.generators)

    def same_group(self, other: "PermGroup") -> bool:
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and self.is_subgroup_of(other)
        )

    def orbit(self, point: int) -> set[int]:
        seen = {point}
        frontier = [point]
        while frontier:
            pt = frontier.pop()
            for g in self.generators:
                if g[pt] not in seen:
                    seen.add(g[pt])
                    frontier.append(g[pt])
        return seen


def pointwise_stabilizer(group: PermGroup, points) -> PermGroup:
    """Subgroup fixing every listed point, read off a chain based at those
    points: the generators of level k generate the stabilizer of the first k
    base points."""
    points = list(points)
    chain = PermGroup(group.generators, group.degree, base_hint=points)._chain()
    k = len(points)
    return PermGroup(chain[k].gens if k < len(chain) else [], group.degree)


def setwise_stabilizer(group: PermGroup, points) -> PermGroup:
    """Subgroup mapping the point set onto itself, by backtrack over the chain."""
    target = set(points)
    chain = group._chain()
    degree = group.degree
    found: list[tuple[int, ...]] = []

    def dfs(level: int, g):
        if level == len(chain):
            if {g[p] for p in target} == target:
                found.append(g)
            return
        lvl = chain[level]
        inside = lvl.point in target
        for pt, u in sorted(lvl.transversal.items()):
            img = g[pt]
            if (img in target) != inside:
                continue
            dfs(level + 1, compose(g, u))

    dfs(0, identity_perm(degree))
    return PermGroup(found, degree)


def is_normal(group: PermGroup, sub: PermGroup) -> bool:
    for g in group.generators:
        ginv = inverse(g)
        for h in sub.generators:
            if not sub.contains(compose(g, compose(h, ginv))):
                return False
    return True


def intersection_order(a: PermGroup, b: PermGroup) -> int:
    """|A meet B| by enumerating the smaller group; both must be small."""
    small, big = (a, b) if a.order() <= b.order() else (b, a)
    return sum(1 for e in small.elements() if big.contains(e))


def verify_central_product(group: PermGroup, factors) -> dict:
    """Check that `group` is the central product of the listed subgroups.

    Verifies pairwise commutation of generators, generation, and reports the
    pairwise intersection orders (which must be central, hence abelian; we
    check each intersection centralizes everything in sight).
    """
    factors = list(factors)
    commute = True
    for i, a in enumerate(factors):
        for b in factors[i + 1 :]:
            for g in a.generators:
                for h in b.generators:
                    if compose(g, h) != compose(h, g):
                        commute = False
    gens = [g for f in factors for g in f.generators]
    generated = PermGroup(gens, group.degree)
    generates = generated.same_group(group)
    inter = {}
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            inter[(i, j)] = intersection_order(factors[i], factors[j])
    return {
        "commute": commute,
        "generates": generates,
        "group_order": group.order(),
        "factor_orders": [f.order() for f in factors],
        "intersection_orders": inter,
        "ok": commute and generates,
    }
