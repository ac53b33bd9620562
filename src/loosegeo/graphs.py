"""Loose graphs: graphs whose edges may have 0, 1 or 2 endpoints.

An edge with fewer than two endpoints has "free ends".  The completion of a
loose graph adds a fresh end vertex for every free end; most geometric
constructions downstream work with coordinates indexed by completion
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permgroup import PermGroup, block_automorphisms


@dataclass(frozen=True)
class GraphDecoration:
    """Per-vertex counts of edge kinds: to end vertices, loose, to inner vertices."""

    end_edges: int
    loose_edges: int
    inner_edges: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.end_edges, self.loose_edges, self.inner_edges)


class LooseGraph:
    """A loose graph with named vertices and named edges.

    Edges are stored as ordered slot pairs (end0, end1) where each slot is a
    vertex name or None for a free end.  Loops and parallel edges between the
    same two vertices are rejected; parallel loose edges at one vertex are
    allowed (they are genuinely different free directions).
    """

    def __init__(self, vertices=(), edges=None):
        self.vertices: list[str] = []
        self.edges: dict[str, tuple[str | None, str | None]] = {}
        self._completion: Completion | None = None
        for v in vertices:
            self.add_vertex(v)
        if edges:
            for name, (a, b) in edges.items():
                self.add_edge(name, a, b)

    def add_vertex(self, name: str) -> None:
        _check_name("vertex", name)
        if name in self.vertices:
            raise ValueError(f"duplicate vertex {name!r}")
        self.vertices.append(name)
        self._completion = None

    def add_edge(self, name: str, a: str | None, b: str | None) -> None:
        _check_name("edge", name)
        if name in self.edges:
            raise ValueError(f"duplicate edge {name!r}")
        for end in (a, b):
            if end is not None and end not in self.vertices:
                raise ValueError(f"edge {name!r} references unknown vertex {end!r}")
        if a is not None and a == b:
            raise ValueError(f"edge {name!r} is a loop")
        if a is not None and b is not None:
            for e, (x, y) in self.edges.items():
                if {x, y} == {a, b}:
                    raise ValueError(f"edge {name!r} duplicates edge {e!r}")
        self.edges[name] = (a, b)
        self._completion = None

    # -- basic queries ------------------------------------------------------

    def edge_slots(self, v: str):
        """(edge, slot) pairs incident with v."""
        out = []
        for e, ends in self.edges.items():
            for slot, end in enumerate(ends):
                if end == v:
                    out.append((e, slot))
        return out

    def degree(self, v: str) -> int:
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return len(self.edge_slots(v))

    def neighbours(self, v: str) -> list[str]:
        out = []
        for e, (a, b) in self.edges.items():
            if a == v and b is not None:
                out.append(b)
            elif b == v and a is not None:
                out.append(a)
        return out

    def inner_vertices(self) -> list[str]:
        return [v for v in self.vertices if self.degree(v) >= 2]

    def decoration(self, v: str) -> GraphDecoration:
        inner = set(self.inner_vertices())
        e = loose = i = 0
        for name, ends in self.edges.items():
            if v not in ends:
                continue
            other = ends[1] if ends[0] == v else ends[0]
            if other is None:
                loose += 1
            elif other in inner:
                i += 1
            else:
                e += 1
        return GraphDecoration(e, loose, i)

    def induced_inner_subgraph(self) -> "LooseGraph":
        """The inner tree/graph: inner vertices with the edges joining them."""
        inner = self.inner_vertices()
        sub = LooseGraph(inner)
        for name, (a, b) in self.edges.items():
            if a in inner and b in inner:
                sub.add_edge(name, a, b)
        return sub

    def is_tree(self) -> bool:
        """Connected and acyclic on the real vertices (loose ends never close cycles)."""
        if not self.vertices:
            return False
        real_edges = [(a, b) for a, b in self.edges.values() if a is not None and b is not None]
        if len(real_edges) != len(self.vertices) - 1:
            return False
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for a, b in real_edges:
                if a == v and b not in seen:
                    seen.add(b)
                    frontier.append(b)
                elif b == v and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        return len(seen) == len(self.vertices)

    # -- completion ---------------------------------------------------------

    def completion(self) -> "Completion":
        """Built on first call after the last `add_vertex` or `add_edge`."""
        if self._completion is None:
            self._completion = Completion(self)
        return self._completion


FRESH_SEP = "#"


def fresh_name(edge: str, slot: int) -> str:
    return f"{edge}{FRESH_SEP}{slot}"


def _check_name(kind: str, name: str) -> None:
    """Fresh ends are named edge#slot, so a name holding the separator could
    coincide with a fresh end and share its coordinate."""
    if FRESH_SEP in name:
        raise ValueError(f"{kind} name {name!r} contains {FRESH_SEP!r}")


class Completion:
    """Completion of a loose graph: every free end gets a fresh end vertex.

    Fresh vertices are named 'edge#slot' deterministically.  `names` lists the
    original vertices first (in insertion order) followed by the fresh ones in
    (edge, slot) order; this ordering fixes the coordinate basis used by the
    geometric layer.
    """

    def __init__(self, graph: LooseGraph):
        self.graph = graph
        self.fresh: list[tuple[str, int]] = []
        self.edge_ends: dict[str, tuple[str, str]] = {}
        for e, ends in graph.edges.items():
            full = []
            for slot, end in enumerate(ends):
                if end is None:
                    self.fresh.append((e, slot))
                    full.append(fresh_name(e, slot))
                else:
                    full.append(end)
            self.edge_ends[e] = (full[0], full[1])
        self.names: list[str] = list(graph.vertices) + [fresh_name(e, s) for e, s in self.fresh]
        self.index = {v: i for i, v in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def neighbours(self, v: str) -> list[str]:
        out = []
        for a, b in self.edge_ends.values():
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out

    def adjacent(self, u: str, v: str) -> bool:
        return any({a, b} == {u, v} for a, b in self.edge_ends.values())


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class LooseMorphism:
    """A morphism of loose graphs: vertices to vertices, edges to edges or
    (for contractions) to vertices.

    `emap[e]` is either ("edge", name) or ("vertex", name).  Only edges with
    two endpoints may be contracted, and then both endpoints must map to the
    contraction vertex.
    """

    def __init__(self, source: LooseGraph, target: LooseGraph, vmap, emap):
        self.source = source
        self.target = target
        self.vmap = dict(vmap)
        self.emap = {e: tuple(img) for e, img in dict(emap).items()}

    def validate(self) -> None:
        src, tgt = self.source, self.target
        stray = [f"vmap {v!r}: not a source vertex" for v in self.vmap if v not in src.vertices]
        stray += [f"emap {e!r}: not a source edge" for e in self.emap if e not in src.edges]
        if stray:
            raise ValueError(stray[0])
        for v in src.vertices:
            if v not in self.vmap:
                raise ValueError(f"vertex {v!r} has no image")
            if self.vmap[v] not in tgt.vertices:
                raise ValueError(f"image of vertex {v!r} is not a target vertex")
        for e, ends in src.edges.items():
            if e not in self.emap:
                raise ValueError(f"edge {e!r} has no image")
            kind, name = self.emap[e]
            if kind == "vertex":
                if name not in tgt.vertices:
                    raise ValueError(f"edge {e!r} contracts to unknown vertex {name!r}")
                for end in ends:
                    if end is None:
                        continue  # free ends follow the edge into the vertex
                    if self.vmap[end] != name:
                        raise ValueError(
                            f"contraction of {e!r}: endpoint {end!r} does not map to {name!r}"
                        )
            elif kind == "edge":
                if name not in tgt.edges:
                    raise ValueError(f"edge {e!r} maps to unknown edge {name!r}")
                t_ends = tgt.edges[name]
                for end in ends:
                    if end is not None and self.vmap[end] not in t_ends:
                        raise ValueError(
                            f"edge {e!r}: endpoint {end!r} maps off the image edge {name!r}"
                        )
                real = [self.vmap[end] for end in ends if end is not None]
                if len(real) == 2 and real[0] == real[1]:
                    raise ValueError(f"edge {e!r}: both endpoints collapse onto one vertex")
            else:
                raise ValueError(f"edge {e!r}: bad image kind {kind!r}")

    def completion_vertex_map(self) -> dict[str, str]:
        """Induced map on completion vertices.

        Free ends follow their edge: under contraction they go to the
        contraction vertex; if the edge maps to an edge, each free end goes to
        the image edge's end not already claimed by a real endpoint, unmatched
        slots being paired in slot order.
        """
        self.validate()
        src_comp = self.source.completion()
        tgt_comp = self.target.completion()
        out: dict[str, str] = dict(self.vmap)
        for e, ends in self.source.edges.items():
            kind, name = self.emap[e]
            free_slots = [slot for slot, end in enumerate(ends) if end is None]
            if not free_slots:
                continue
            if kind == "vertex":
                for slot in free_slots:
                    out[fresh_name(e, slot)] = name
                continue
            t_ends = tgt_comp.edge_ends[name]
            claimed = set()
            for end in ends:
                if end is not None:
                    claimed.add(self.vmap[end])
            available = [t for t in t_ends if t not in claimed]
            for slot, t in zip(free_slots, available):
                out[fresh_name(e, slot)] = t
        # sanity: total on completion vertices
        for v in src_comp.names:
            if v not in out:
                raise AssertionError(f"completion vertex {v!r} not mapped")
            if out[v] not in tgt_comp.names:
                raise AssertionError(f"completion image {out[v]!r} unknown")
        return out

    def compose(self, other: "LooseMorphism") -> "LooseMorphism":
        """self after other (other: G1 -> G2, self: G2 -> G3).  The middle
        graphs must be one graph, or have the same vertices and edges."""
        mid, src = other.target, self.source
        if mid is not src and (mid.vertices != src.vertices or mid.edges != src.edges):
            raise ValueError("morphisms are not composable")
        vmap, emap = self.vmap, self.emap
        h = LooseMorphism.__new__(LooseMorphism)  # no __init__: these maps need no copy
        h.source, h.target = other.source, self.target
        h.vmap = {v: vmap[w] for v, w in other.vmap.items()}
        h.emap = {e: ("vertex", vmap[name]) if kind == "vertex" else emap[name]
                  for e, (kind, name) in other.emap.items()}
        return h


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def _vertex_key(g: LooseGraph, v: str, colors=None):
    dec = g.decoration(v)
    extra = colors.get(v) if colors else None
    return (g.degree(v), dec.as_tuple(), extra)


def graph_aut_group_perms(g: LooseGraph, colors=None) -> PermGroup:
    """The loose-graph automorphism group, on the positions of `g.vertices`.

    `colors` is an optional extra vertex coloring that automorphisms must
    preserve (used for decorated inner trees).  The search is
    `permgroup.block_automorphisms` with the edges that have two endpoints
    as blocks and the degree/decoration keys as seed colours.
    """
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    blocks = [(index[a], index[b]) for a, b in g.edges.values() if a is not None and b is not None]
    keys = [_vertex_key(g, v, colors) for v in verts]
    return block_automorphisms(len(verts), blocks, [0] * len(blocks), keys)[0]
