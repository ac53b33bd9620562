"""Plain-text formats for loose graphs and morphisms.

Graph files::

    # comment
    vertex x
    vertex y
    edge xy x y
    edge lx x -
    edge d - -

'-' marks a free end.  Morphism files reference two graph files and list the
vertex and edge images; ``emap e @v`` contracts edge e to vertex v::

    source toy.lg
    target k2.lg
    vmap x a
    emap xy e1
    emap lx @a
"""

from __future__ import annotations

import os

from . import gfq, theorems
from .graphs import LooseGraph, LooseMorphism


class FormatError(ValueError):
    pass


_TRUTH = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_bool(text: str) -> bool:
    """A truth value: true/false, 1/0 or yes/no, in any case."""
    try:
        return _TRUTH[text.lower()]
    except KeyError:
        raise FormatError(f"expected true/false, 1/0 or yes/no, got {text!r}") from None


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_graph(text: str) -> LooseGraph:
    g = LooseGraph()
    for lineno, parts in _lines(text):
        kind = parts[0]
        try:
            if kind == "vertex":
                if len(parts) != 2:
                    raise FormatError("vertex takes one name")
                g.add_vertex(parts[1])
            elif kind == "edge":
                if len(parts) != 4:
                    raise FormatError("edge takes a name and two ends")
                name, a, b = parts[1], parts[2], parts[3]
                g.add_edge(name, None if a == "-" else a, None if b == "-" else b)
            else:
                raise FormatError(f"unknown directive {kind!r}")
        except ValueError as exc:  # FormatError is a ValueError
            raise FormatError(f"line {lineno}: {exc}") from exc
    return g


def serialize_graph(g: LooseGraph) -> str:
    out = [f"vertex {v}" for v in g.vertices]
    for name, (a, b) in g.edges.items():
        out.append(f"edge {name} {a or '-'} {b or '-'}")
    return "\n".join(out) + "\n"


def load_graph(path: str) -> LooseGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_morphism(text: str, base_dir: str = ".") -> LooseMorphism:
    source = target = None
    vmap: dict[str, str] = {}
    emap: dict[str, tuple[str, str]] = {}
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind in ("source", "target"):
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: {kind} takes one path")
            graph = load_graph(os.path.join(base_dir, parts[1]))
            if kind == "source":
                source = graph
            else:
                target = graph
        elif kind == "vmap":
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: vmap takes two vertex names")
            if parts[1] in vmap:
                raise FormatError(f"line {lineno}: vmap {parts[1]!r} given twice")
            vmap[parts[1]] = parts[2]
        elif kind == "emap":
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: emap takes an edge and an image")
            if parts[1] in emap:
                raise FormatError(f"line {lineno}: emap {parts[1]!r} given twice")
            img = parts[2]
            if img.startswith("@"):
                emap[parts[1]] = ("vertex", img[1:])
            else:
                emap[parts[1]] = ("edge", img)
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if source is None or target is None:
        raise FormatError("morphism file needs both source and target")
    m = LooseMorphism(source, target, vmap, emap)
    m.validate()
    return m


def load_morphism(path: str) -> LooseMorphism:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_morphism(fh.read(), base_dir=os.path.dirname(path) or ".")


def parse_manifest(text: str, base_dir: str = ".") -> list[dict]:
    """Suite manifest: one entry per line.

    ``graph FILE check,check,... [key=value ...]`` runs the listed checks on
    the graph; ``global check,check,... [key=value ...]`` runs
    graph-independent checks.  Recognized keys: igp_expected (true/false) and
    q (comma-separated field sizes overriding the suite default).  Each check
    must be able to run on its line's graph, and each q be a field size.
    """
    entries = []
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind == "graph":
            if len(parts) < 3:
                raise FormatError(f"line {lineno}: graph takes a file and a check list")
            path = os.path.join(base_dir, parts[1])
            entry = {
                "name": os.path.splitext(os.path.basename(parts[1]))[0],
                "graph": load_graph(path),
                "checks": parts[2].split(","),
            }
            _parse_options(entry, parts[3:], lineno)
        elif kind == "global":
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: global takes a check list")
            entry = {"name": "global", "graph": None, "checks": parts[1].split(",")}
            _parse_options(entry, parts[2:], lineno)
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
        for check in entry["checks"]:
            problem = theorems.refusal(check, entry["graph"])
            if problem:
                raise FormatError(f"line {lineno}: {problem}")
        entries.append(entry)
    return entries


def _parse_options(entry: dict, opts, lineno: int) -> None:
    for opt in opts:
        key, _, value = opt.partition("=")
        if key == "igp_expected":
            try:
                entry["igp_expected"] = parse_bool(value)
            except FormatError as exc:
                raise FormatError(f"line {lineno}: igp_expected: {exc}") from None
        elif key == "q":
            try:
                entry["qs"] = tuple(int(v) for v in value.split(","))
            except ValueError:
                raise FormatError(
                    f"line {lineno}: q takes comma-separated field sizes, got {value!r}"
                ) from None
            try:
                for q in entry["qs"]:
                    gfq.get_field(q)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
        else:
            raise FormatError(f"line {lineno}: unknown option {key!r}")


def load_manifest(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read(), base_dir=os.path.dirname(path) or ".")
