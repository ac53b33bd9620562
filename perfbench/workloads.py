"""The benchmark's workloads: their cells, the calls into loosegeo, and how
each output is reduced to plain data for the checks in oracles.py.

One operation is one (graph, q, task) cell.  A round runs every cell of a
workload once, each on a freshly built scheme, so no profile cache carries
over from one cell or round to the next.
"""

from __future__ import annotations

import contextlib
import io
import random

import oracles

# edges of each shape on vertices 0..n-1; (v, None) is a loose edge at v
GENERATED_SHAPES = {
    "gen_p4": [(0, 1), (1, 2), (2, 3), (0, None)],
    "gen_p3": [(0, 1), (1, 2), (0, None)],
}

GEOMETRY_TASKS = ("points", "lines", "subspaces", "rules", "convexity", "decompose")


def generated_text(shape: str, seed: int) -> str:
    """A seeded presentation of one fixed loose-tree shape: random vertex
    names, vertex order (which fixes the coordinate order), edge order and
    edge orientation.  The shape is fixed because frame-search cost varies
    threefold between shapes of one size, which would tie wall_s to the seed."""
    rng = random.Random(f"{shape}:{seed}")
    edges = GENERATED_SHAPES[shape]
    n = 1 + max(v for edge in edges for v in edge if v is not None)
    tags = rng.sample(range(100, 1000), n)
    names = [f"v{t}" for t in tags]
    order = list(range(n))
    rng.shuffle(order)
    lines = [f"vertex {names[v]}" for v in order]
    rows = []
    for k, (a, b) in enumerate(edges):
        ends = [names[a], "-" if b is None else names[b]]
        rng.shuffle(ends)
        rows.append(f"edge e{rng.randrange(10**6)}x{k} {ends[0]} {ends[1]}")
    rng.shuffle(rows)
    return "\n".join(lines + rows) + "\n"


class Workload:
    """Cells of one workload; `texts` maps each graph name to its text."""

    name = ""
    qs: tuple[int, ...] = ()

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.texts = {g: self._text(g) for g in self.graph_names()}
        self.specs = {g: oracles.GraphSpec(t) for g, t in self.texts.items()}

    def _text(self, g: str) -> str:
        if g in GENERATED_SHAPES:
            return generated_text(g, self.seed)
        with open(f"{self.root}/corpus/{g}.lg", encoding="utf-8") as fh:
            return fh.read()

    def graph_names(self) -> list[str]:
        return sorted({g for g, _, _ in self.cells()})

    def cells(self) -> list[tuple[str, int, str]]:
        raise NotImplementedError

    def ops_per_round(self) -> int:
        return len(self.cells())

    def parse(self, lg) -> dict:
        """The set-up's parse step: graph objects by name."""
        return {g: lg.formats.parse_graph(t) for g, t in self.texts.items()}

    def capture(self, lg) -> None:
        """Hook run after each set-up, before any cell runs."""

    def run_cell(self, lg, graphs, cell):
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError


class Stabilizer(Workload):
    name = "stabilizer"
    qs = (3, 4)

    def cells(self):
        return [("spider", 3, "proj"), ("toy", 4, "proj"), ("p4", 4, "proj"),
                ("gamma1", 3, "proj"), ("gen_p3", 3, "proj")]

    def run_cell(self, lg, graphs, cell):
        g, q, _ = cell
        proj = lg.autsearch.proj_aut_group(lg.scheme.build_scheme(graphs[g], q))
        order = proj.perm_group.order()
        return {"linear": list(proj.linear), "frob": proj.frob_count,
                "n_elements": len(proj.elements), "order": order}

    def check(self, outputs):
        fails = []
        for (g, q, _), out in outputs.items():
            fails += oracles.check_stabilizer(self.specs[g], q, f"{g}@{q}", out["linear"],
                                              out["frob"], out["n_elements"], out["order"])
        return fails


class Incidence(Workload):
    name = "incidence"
    qs = (3,)

    def cells(self):
        return [("k3", 3, "comb"), ("fundament", 3, "comb"), ("spider", 3, "comb"),
                ("toy", 3, "comb"), ("gamma1", 3, "comb")]

    def run_cell(self, lg, graphs, cell):
        g, q, _ = cell
        scheme = lg.scheme.build_scheme(graphs[g], q)
        comb = lg.autsearch.comb_aut_group(scheme)
        order = comb.perm_group.order()
        return {"points": list(scheme.points), "lines": [(ln.kind, ln.points) for ln in comb.lines],
                "perms": list(comb.perms), "order": order}

    def check(self, outputs):
        fails = []
        for (g, q, _), out in outputs.items():
            fails += oracles.check_incidence(self.specs[g], q, f"{g}@{q}", out["points"],
                                             out["lines"], out["perms"], out["order"])
        return fails


class Geometry(Workload):
    name = "geometry"
    qs = (3,)
    trees = ("toy", "k2", "p3", "p4", "p5", "spider", "gen_p4", "gen_p3")

    def cells(self):
        return [(g, 3, task) for g in self.trees for task in GEOMETRY_TASKS]

    def run_cell(self, lg, graphs, cell):
        g, q, task = cell
        graph = graphs[g]
        if task == "rules":
            return lg.theorems.check_rules(graph, q, g).verdict
        scheme = lg.scheme.build_scheme(graph, q)
        if task == "points":
            counts = [scheme.point_count(r) for r in range(1, scheme.m + 2)]
            return {"points": list(scheme.points), "point_counts": counts}
        if task == "lines":
            return [(ln.kind, ln.points) for ln in lg.scheme.classify_lines(scheme)]
        if task == "subspaces":
            projective, affine = lg.scheme.enumerate_subspaces(scheme)
            return {"projective": projective,
                    "affine": [(a.basis, a.hyperplane, a.dim) for a in affine]}
        if task == "convexity":
            return lg.scheme.convexity_check(scheme)["ok"]
        rep = lg.scheme.decompose(scheme)
        return {"parts": (rep["x"], rep["xc"], rep["y"]), "sizes": rep["sizes"]}

    def check(self, outputs):
        fails = []
        for g in self.trees:
            res = {task: outputs.get((g, 3, task)) for task in GEOMETRY_TASKS}
            if any(v is None for v in res.values()):
                continue
            out = {**res["points"], "lines": res["lines"], **res["subspaces"],
                   "rules": res["rules"], "convex": res["convexity"],
                   "decompose": res["decompose"]["parts"],
                   "decompose_sizes": res["decompose"]["sizes"]}
            fails += oracles.check_geometry(self.specs[g], 3, f"{g}@3", out)
        return fails


class Suite(Workload):
    """`loosegeo suite corpus/manifest.txt -q 2`; one cell per report."""

    name = "suite"
    qs = (2,)

    def __init__(self, root: str, seed: int):
        self.manifest = f"{root}/corpus/manifest.txt"
        with open(self.manifest, encoding="utf-8") as fh:
            self.manifest_text = fh.read()
        self.captured: list = []
        super().__init__(root, seed)

    def graph_names(self):
        return []

    def cells(self):
        return [("manifest", 2, "suite")]

    def ops_per_round(self) -> int:
        return len(oracles.expected_reports(self.manifest_text, 2))

    def parse(self, lg):
        return {"manifest": lg.formats.load_manifest(self.manifest)}

    def capture(self, lg) -> None:
        """Keep what `theorems.run_suite` returns, so that the report
        quantities the text output leaves out can be checked."""
        inner = lg.theorems.run_suite
        sink = self.captured

        def run_suite(*args, **kwargs):
            result = inner(*args, **kwargs)
            sink.append(result)
            return result

        lg.theorems.run_suite = run_suite

    def run_cell(self, lg, graphs, cell):
        self.captured.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lg.cli.main(["suite", self.manifest, "-q", "2"])
        reports = self.captured[0]["reports"] if self.captured else []
        return {"rc": rc, "stdout": buf.getvalue(),
                "reports": [(r.theorem, r.graph, r.verdict, r.quantities) for r in reports]}

    def check(self, outputs):
        out = outputs.get(("manifest", 2, "suite"))
        if out is None:
            return []
        return oracles.check_suite(self.manifest_text, 2, out["rc"], out["stdout"], out["reports"])


WORKLOADS = {w.name: w for w in (Stabilizer, Incidence, Geometry, Suite)}
