"""Spans and counts around the public functions of loosegeo's layers.

`Tracer.install` replaces every public function of the traced modules, in
every loosegeo module namespace that binds it, and every public method on
its class, by a wrapper that records one span: name, start, end and the
span that was open when it was called.  Spans live in flat arrays and are
written out once, at the end of the run.  Nothing under src/ is changed.

Element-level helpers are left unwrapped (UNTRACED): they run once per field
element, vector entry or permutation point, and a span each would cost more
than the work it measures.  Their time is part of their caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("gfq", "scheme", "autsearch", "permgroup", "matrices", "graphs",
                  "theorems", "formats")

UNTRACED = {
    "gfq.FField.add", "gfq.FField.sub", "gfq.FField.neg", "gfq.FField.mul",
    "gfq.FField.inv", "gfq.FField.div", "gfq.FField.pow", "gfq.FField.frobenius",
    "gfq.FField.elements", "gfq.vec_add", "gfq.vec_scale", "gfq.mat_vec",
    "gfq.normalize_point", "permgroup.compose", "permgroup.inverse",
    "permgroup.is_identity", "permgroup.identity_perm",
    "scheme.SchemeModel.support_mask", "scheme.SchemeModel.contains",
    "graphs.Completion.neighbours", "graphs.Completion.adjacent",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.verify_check: dict[int, str] = {}  # span index of theorems.verify -> check id

    def _wrap(self, qualname: str, fn, after=None):
        nid = self._ids.setdefault(qualname, len(self._ids))
        if nid == len(self.names):
            self.names.append(qualname)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(idx, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _hooks(self) -> dict:
        return {
            "autsearch.collineation_stabilizes":
                lambda i, a, r: self._count("collineation_stabilizes.accepted", int(bool(r))),
            "autsearch.comb_aut_group":
                lambda i, a, r: self._count("comb_aut_group.perms", len(r.perms)),
            "permgroup.PermGroup.__init__":
                lambda i, a, r: self._count("permgroup.generators_in", len(a[0].generators)),
            "theorems.verify":
                lambda i, a, r: self.verify_check.__setitem__(i, a[0]),
        }

    def install(self, package: str) -> None:
        """Wrap the traced modules of an imported package (e.g. 'loosegeo')."""
        hooks = self._hooks()
        replaced = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{short}.{name}"
                if inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        mqual = f"{qual}.{attr}"
                        wanted = not attr.startswith("_") or mqual in hooks
                        if wanted and inspect.isfunction(val) and mqual not in UNTRACED:
                            setattr(obj, attr, self._wrap(mqual, val, hooks.get(mqual)))
                elif callable(obj) and qual not in UNTRACED:
                    replaced[id(obj)] = (obj, self._wrap(qual, obj, hooks.get(qual)))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus profile misses
        and inclusive seconds per check id and of top-level formats calls."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        self_s = [0.0] * n_names
        name, parent, start, end = self.name, self.parent, self.start, self.end
        profile = self._ids.get("scheme.SchemeModel.profile", -1)
        count_in = self._ids.get("scheme.SchemeModel.count_in_subspace", -1)
        formats_ids = {i for i, s in enumerate(self.names) if s.startswith("formats.")}
        missed = set()
        formats_top = 0.0
        for i in range(len(name)):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            incl[nid] += dur
            self_s[nid] += dur
            p = parent[i]
            if p >= 0:
                self_s[name[p]] -= dur
                if nid == count_in and name[p] == profile:
                    missed.add(p)
            if nid in formats_ids and (p < 0 or name[p] not in formats_ids):
                formats_top += dur
        per_check: dict[str, float] = {}
        for i, check in self.verify_check.items():
            per_check[check] = per_check.get(check, 0.0) + end[i] - start[i]
        spans = {s: {"calls": calls[i], "incl_s": incl[i], "self_s": self_s[i]}
                 for i, s in enumerate(self.names) if calls[i]}
        return {"spans": spans, "profile_misses": len(missed), "per_check_s": per_check,
                "formats_top_s": formats_top, "counts": dict(self.counts)}

    def write(self, path_prefix: str, extra: dict) -> None:
        """`<prefix>.json` holds the names, counts and summary; `<prefix>.spans`
        the spans as four arrays of equal length, one after another: name id
        (int32), parent span index (int32, -1 for none), start and end
        (float64, seconds on the perf_counter clock)."""
        with open(path_prefix + ".spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {"names": self.names, "span_count": len(self.name),
                  "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                  **extra}
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
