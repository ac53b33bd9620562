"""Permutation groups with exact integer orders.

Permutations are image tuples on range(degree).  The stabilizer chain is
built by deterministic incremental Schreier-Sims with sifting: only
generators and Schreier generators that do not sift to the identity join the
chain, so its levels hold a strong generating set, however many redundant
generators the group was given.  The groups met here, up to PGammaL(4, 4)
on the 442 point and line ids of PG(3, 4), need no randomization.

`block_automorphisms` is the one automorphism search: it finds generators
of the group of a coloured block structure, the form in which point-line
geometries, loose graphs and specialization posets are all given to it.  A
leaf test narrows it to a subgroup: the projective group of a point set is
the subgroup of its line geometry's group whose elements lift to
collineations.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import mul

MAX_SEARCH_NODES = 10**6  # point images one `block_automorphisms` call may accept


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

    def levels(self) -> list[tuple[int, list, list]]:
        """The levels of the chain that hold more than the identity, top level
        first, as (base point, generators, coset representatives, the
        identity first): every element is u_0 u_1 ... u_k for exactly one
        choice of u_j from the j-th level's representatives."""
        return [(lv.point, lv.gens, list(lv.transversal.values()))
                for lv in self._chain() if len(lv.transversal) > 1]

    def elements(self):
        """All elements; only call when the order is known to be small."""
        out = [identity_perm(self.degree)]
        for *_, reps in reversed(self.levels()):
            out += [compose(u, g) for u in reps if not is_identity(u) for g in out]
        return out

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(other.contains(g) for g in self.generators)

    def same_group(self, other: "PermGroup") -> bool:
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and self.is_subgroup_of(other)
        )


def pointwise_stabilizer(group: PermGroup, points) -> PermGroup:
    """Subgroup fixing every listed point, read off a chain based at those
    points: the generators of level k generate the stabilizer of the first k
    base points."""
    points = list(points)
    chain = PermGroup(group.generators, group.degree, base_hint=points)._chain()
    k = len(points)
    return PermGroup(chain[k].gens if k < len(chain) else [], group.degree)


def transporter(group: PermGroup, points, images):
    """An element mapping points[i] to images[i] for every i, or None, read
    off a chain based at the points."""
    chain = PermGroup(group.generators, group.degree, base_hint=points)._chain()
    g = identity_perm(group.degree)
    for level, y in zip(chain, images):
        u = level.transversal.get(inverse(g)[y])
        if u is None:
            return None
        g = compose(g, u)
    return g


def orbit_sizes(group: PermGroup, points) -> list[int]:
    """The sizes of the orbits of the tuples points[:k], k = 0..len(points):
    |G : G_points[:k]| by orbit-stabilizer, the product of the first k
    transversal sizes of one chain based at the points."""
    chain = PermGroup(group.generators, group.degree, base_hint=points)._chain()
    return list(accumulate((len(level.transversal) for level in chain[: len(points)]),
                           mul, initial=1))


def verify_central_product(group: PermGroup, factors) -> dict:
    """Check that `group` is the central product of the listed subgroups:
    the factors commute pairwise, elementwise, and generate it.

    Commuting subgroups A and B have AB = <A, B>, so each pairwise
    intersection order is read as |A| |B| / |<A, B>|.  `overlaps` lists
    them as {"factors": [i, j], "order": o}; a pair that does not commute
    has order None, and the check fails.
    """
    factors = list(factors)
    overlaps = []
    for (i, a), (j, b) in combinations(enumerate(factors), 2):
        order = None
        if all(compose(g, h) == compose(h, g) for g in a.generators for h in b.generators):
            joint = PermGroup(a.generators + b.generators, group.degree)
            order = a.order() * b.order() // joint.order()
        overlaps.append({"factors": [i, j], "order": order})
    commute = all(o["order"] is not None for o in overlaps)
    generated = PermGroup([g for f in factors for g in f.generators], group.degree)
    generates = generated.same_group(group)
    return {"commute": commute, "generates": generates, "ok": commute and generates,
            "overlaps": overlaps}


# -- automorphisms of coloured block structures ------------------------------


def _refine_colors(n: int, incident: list, kinds: list, blocks: list, colors: list):
    """Iterated incidence colouring: seeded with each point's colour and the
    multiset of (kind, size) of its blocks, then refined by the multiset of
    (kind, colours of the points) of its blocks until it is stable."""
    seed: dict = {}
    colors = [
        seed.setdefault(
            (colors[i], tuple(sorted((kinds[k], len(blocks[k])) for k in incident[i]))),
            len(seed),
        )
        for i in range(n)
    ]
    while True:
        sig = [(kind, tuple(sorted(colors[j] for j in pts))) for kind, pts in zip(kinds, blocks)]
        table: dict = {}
        new = [0] * n
        for i in range(n):
            key = (colors[i], tuple(sorted(sig[k] for k in incident[i])))
            new[i] = table.setdefault(key, len(table))
        if new == colors:
            return colors
        colors = new


def block_automorphisms(n: int, blocks, kinds, colors, accept=None) -> tuple[PermGroup, int]:
    """The permutations of range(n) that preserve the seed colouring
    `colors` (any hashable values), the blocks (lists of points) and each
    block's kind and size, found from generators.  Two points may lie on at
    most one block.  Returns the group and the number of search nodes (point
    images the backtrack accepted); a search that accepts more than
    MAX_SEARCH_NODES raises ValueError.

    `accept`, if given, is a leaf test: only the permutations it keeps are
    returned.  They must form a subgroup, so that the orbit pruning below
    stays valid; the search then finds that subgroup from generators.

    The points are assigned images in a fixed order (by the size of their
    class under the iterated incidence colouring, then by index), which is
    also the base of the resulting stabilizer chain.  Blocks propagate the
    images: once a block has one mapped point, mapping a second point of it
    fixes its image block, which must be unused and of the same kind and
    size, and every later point of the block must go to a point of that
    image block.  A pair of points on no common block must map to such a
    pair.

    The first path tries the identity image first and ends in the identity.
    Backtracking along it, at the level of base point b an image t is
    skipped if it lies in the orbit of b under the generators found so far
    (all of which fix the earlier base points); otherwise the search below
    it stops at its first kept leaf, which becomes a generator.  The generators
    found therefore form a strong generating set relative to the base.
    """
    block_pts = [sorted(b) for b in blocks]
    block_sets = [set(pts) for pts in block_pts]
    block_type = [(kind, len(pts)) for kind, pts in zip(kinds, block_pts)]
    incident = [[] for _ in range(n)]
    through: dict = {}
    for k, pts in enumerate(block_pts):
        for a in pts:
            incident[a].append(k)
            for b in pts:
                if a != b:
                    if (a, b) in through:
                        raise ValueError(f"points {a} and {b} lie on two blocks")
                    through[(a, b)] = k
    colors = _refine_colors(n, incident, kinds, block_pts, colors)
    by_color: dict = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    order = sorted(range(n), key=lambda i: (len(by_color[colors[i]]), i))
    apart = [
        [j for j in order[:step] if (i, j) not in through]
        for step, i in enumerate(order)
    ]

    image = [-1] * n
    used = [False] * n
    block_img = [-1] * len(block_pts)
    block_used = [False] * len(block_pts)
    orbit_of = list(range(n))  # union-find over the orbits of the generators
    gens: list = []
    nodes = 0

    def root(x: int) -> int:
        while orbit_of[x] != x:
            orbit_of[x] = orbit_of[orbit_of[x]]
            x = orbit_of[x]
        return x

    def candidates(i: int) -> list:
        fixed = [block_img[k] for k in incident[i] if block_img[k] >= 0]
        if not fixed:
            return [t for t in by_color[colors[i]] if not used[t]]
        return [
            t for t in block_pts[fixed[0]]
            if not used[t] and colors[t] == colors[i]
            and all(t in block_sets[L] for L in fixed[1:])
        ]

    def unfix(fixed: list) -> None:
        for k in fixed:
            block_used[block_img[k]] = False
            block_img[k] = -1

    def assign(step: int, i: int, t: int):
        """Map i to t and fix the image blocks this determines; returns those
        blocks, or None (with nothing changed) if a block or pair breaks."""
        if any((t, image[j]) in through for j in apart[step]):
            return None
        fixed = []
        for k in incident[i]:
            if block_img[k] >= 0:
                continue
            a = next((p for p in block_pts[k] if image[p] >= 0), None)
            if a is None:
                continue
            L = through.get((t, image[a]))
            if L is None or block_used[L] or block_type[L] != block_type[k]:
                unfix(fixed)
                return None
            block_img[k] = L
            block_used[L] = True
            fixed.append(k)
        image[i] = t
        used[t] = True
        return fixed

    def leaf(first: bool) -> bool:
        """Whether the complete map is kept; off the first path it becomes a
        generator."""
        if first:
            return True
        perm = tuple(image)
        if accept is not None and not accept(perm):
            return False
        gens.append(perm)
        for x, y in enumerate(perm):
            orbit_of[root(x)] = root(y)
        return True

    # Depth-first over the steps with an explicit stack, so the depth is not
    # bounded by the recursion limit.  A frame is [step, on the first path,
    # candidates, index of the next candidate, image blocks fixed by the
    # current candidate or None].  `found` carries whether the subtree just
    # left ended in a kept leaf; off the first path that ends the frame too.
    stack = [[0, True, None, 0, None]] if n else []
    found = False
    while stack:
        frame = stack[-1]
        step, first, cands, k, fixed = frame
        i = order[step]
        if cands is None:
            cands = frame[2] = candidates(i)
            if first:
                cands.sort(key=lambda t: t != i)
        if fixed is not None:
            image[i] = -1
            used[cands[k - 1]] = False
            unfix(fixed)
            frame[4] = None
            if found and not first:
                stack.pop()
                continue
        found = False
        while k < len(cands):
            t = cands[k]
            k += 1
            stay = first and t == i
            if first and not stay and root(t) == root(i):
                continue
            fixed = assign(step, i, t)
            if fixed is None:
                continue
            nodes += 1
            if nodes > MAX_SEARCH_NODES:
                raise ValueError(f"the automorphism search accepted {nodes} nodes, "
                                 f"more than the bound {MAX_SEARCH_NODES}")
            frame[3], frame[4] = k, fixed
            if step + 1 < n:
                stack.append([step + 1, stay, None, 0, None])
            else:
                found = leaf(stay)
            break
        else:
            stack.pop()
    return PermGroup(gens, n, base_hint=order), nodes
